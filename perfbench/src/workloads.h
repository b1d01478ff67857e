// The benchmark's four workloads. Each one generates its inputs from the
// workload seed, runs closed-loop steps over them through the library's
// public entry points (ExperimentSuite, Config::parse + run_scenario,
// BatchRunner, the obs/core report writers), checks every run's outputs,
// and runs one traced pass that yields the per-layer counts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Host timing of one BatchRunner batch (sweep only).
struct BatchTiming {
  int workers = 0;
  double wall_ms = 0.0;
  double item_ms_sum = 0.0;
  /// Time each item waited between batch start and its own start.
  std::vector<double> wait_ms;
  /// Batch end minus the moment the first worker ran out of items.
  double straggler_ms = 0.0;
};

/// One closed-loop step: the runs it contained, their check and digest.
struct Step {
  std::vector<double> run_ms;  // host time of each simulated run
  /// Host time of the whole step (for observed: the observed run and its
  /// export, without the dark twin).
  double wall_ms = 0.0;
  /// Host time of the step's simulated runs with nothing observed (for
  /// observed: the paired dark twin).
  double dark_ms = 0.0;
  double sim_s = 0.0;          // simulated seconds covered by the step
  int attempted = 0;
  int failed = 0;
  std::string failure;         // first failed check (empty when all passed)
  std::uint64_t digest = 0;    // simulated statistics of the whole step
  // observed: the export cost of the observed run.
  double export_ms = 0.0;
  double export_mb = 0.0;
  // fig10: mean |T_sim - T_paper| / T_paper, all eight and held-out.
  double paper_err = 0.0;
  double paper_err_heldout = 0.0;
  BatchTiming batch;
};

/// A per-node battery load trace recorded by the traced pass, with the
/// battery model it was drawn from (replayed by the battery probe).
struct LoadTrace {
  std::string model;          // kibam | rakhmatov | ideal | peukert
  double capacity_mah = 0.0;  // 0 = the model's calibrated default
  std::vector<std::vector<std::pair<double, double>>> nodes;  // (A, s)
};

/// Exact counts from the traced pass (registry snapshots and RunResults),
/// plus the sizes the layer probes are scaled to.
struct Counts {
  double events_fired = 0, events_scheduled = 0, queue_depth_max = 0;
  double handler_wall_ns = 0, handler_run_ns = 0;  // pipelines only
  double drains = 0, transactions = 0, payload_bytes = 0, dropped = 0;
  double injections = 0, monitor_checks = 0, violations = 0;
  double spans_recorded = 0, spans_noted = 0;
  double sim_s = 0;
  double frames_sent = 0, frames_completed = 0, frames_lost = 0;
  double migration_retries = 0, detections = 0, detection_latency_s = 0;
  double rounds = 0, elections = 0, nodes_died = 0;
  double batch_items = 0;
  // Probe sizing.
  int trace_pairs = 0;  // distinct (actor, kind) span totals
  int endpoints = 0;
  double link_kbps = 80.0;
  std::vector<LoadTrace> loads;
};

/// The traced step: its checks, timing and digest (which must equal the
/// dark digest of input 0), and the per-layer counts.
struct TracedPass {
  Step step;
  Counts counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generate the inputs from `seed`, parse them, run any partition
  /// analysis and warm up. Called several times; each call starts afresh.
  virtual void setup(std::uint64_t seed) = 0;
  /// Distinct inputs the closed loop cycles through.
  [[nodiscard]] virtual std::size_t pool_size() const = 0;
  /// One closed-loop step over step number `k` (input k % pool_size()).
  virtual Step step(std::size_t k) = 0;
  /// Input 0 once more with a registry, profiler and power capture on,
  /// spans around every library call.
  virtual TracedPass traced(SpanRecorder& spans) = 0;

  /// Host time of Config::parse per text and of partition analysis,
  /// measured during the last setup().
  double parse_us = 0.0;
  double partition_ms = 0.0;
};

/// fig10 | fleet1000 | observed | sweep; null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// The seed whose step 0 has a recorded digest. Every invocation runs it
/// once outside the timed loop, whatever its own seed.
inline constexpr std::uint64_t kReferenceSeed = 42;

/// The digest of step 0 at kReferenceSeed that `workload` must reproduce;
/// 0 for an unknown workload.
std::uint64_t recorded_digest(const std::string& workload);

}  // namespace perfbench
