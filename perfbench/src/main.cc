// deslp end-to-end benchmark program.
//
//   deslp_perfbench --workload fig10|fleet1000|observed|sweep --seed N
//                   --seconds S --trace 0|1 [--out-dir DIR]
//
// Sets the workload up, then runs its closed loop dark for S seconds of
// steps: no registry, trace, monitor or profiler bound (the observed
// workload observes by definition and pairs each run with a dark twin).
// The set-up is repeated between steps; setup_s is the median. Every run's
// outputs are checked, and step 0 of the reference seed runs once more on a
// fresh set-up against its recorded digest. With --trace 0 the last stdout
// line carries the end-to-end metrics; with --trace 1 one more step runs
// traced, the layer probes run at that step's sizes, the spans go to
// DIR/spans-<workload>-<seed>.json and the last line carries the per-layer
// metrics. Human-readable lines before it name every metric with
// its unit, plus the workload-specific figures (accuracy against the
// paper, observation overhead) that only some workloads have.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "probes.h"
#include "reference.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 11;
constexpr long long kProbeEvents = 1'000'000;
constexpr long long kProbeSpans = 300'000;
constexpr long long kProbeSends = 200'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else if (key == "--out-dir") {
      a->out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten runs beyond it (the maximum
/// when there are too few runs for that).
struct Tail {
  double value = 0.0;
  int percentile = 100;
  int beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Tail t;
  const std::size_t n = v.size();
  if (n == 0) return t;
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  const std::size_t k = n - 11;
  t.value = v[k];
  t.percentile = static_cast<int>(100 * (k + 1) / n);
  t.beyond = static_cast<int>(n - 1 - k);
  return t;
}

/// The process's own resident high-water mark. (getrusage's ru_maxrss is
/// no use here: it keeps the launching interpreter's peak across exec.)
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Metrics in print order; the JSON line carries exactly these.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    std::printf("  %-28s %16.6f %-12s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    rows_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.12g", rows_[i].value);
      out += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Mark a step failed by a check over the whole step; a step that already
/// failed counts once.
void fail_step(Step& st, const std::string& what) {
  if (st.failed > 0) return;
  st.failed = 1;
  st.failure = what;
}

/// Runs attempted and failed, with the first failure for the log.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::string failure;

  void add(const Step& st, const std::string& where) {
    attempted += st.attempted;
    failed += st.failed;
    if (failure.empty() && !st.failure.empty())
      failure = where + ": " + st.failure;
  }
};

/// What the timed dark pass measured.
struct Timed {
  std::vector<Step> steps;
  std::vector<double> step_s;     // host time of each step
  std::vector<double> kernel_ms;  // the reference kernel after each step
  std::vector<double> setup_s;    // each set-up, the first from process start
  std::vector<std::size_t> setup_after;  // step each set-up followed
  double seconds = 0.0;           // host time of the steps alone
  double peak_rss_mb = 0.0;       // read as the loop ends

  /// Factor that brings step k's host times to the nominal host speed:
  /// kNominalMs over the median kernel time of steps k-2..k+2.
  [[nodiscard]] double scale(std::size_t k) const {
    const std::size_t lo = k < 2 ? 0 : k - 2;
    const std::size_t hi = std::min(kernel_ms.size(), k + 3);
    return kNominalMs / median({kernel_ms.begin() + static_cast<long>(lo),
                                kernel_ms.begin() + static_cast<long>(hi)});
  }
};

/// The timed dark pass: a closed loop over the input pool until the steps
/// have taken `seconds`. The reference kernel runs after every step, and
/// the set-up after the first is repeated between steps, spread evenly
/// over the pass, so setup_s sees the same host conditions as the runs;
/// the clock stops for both. Every input must reproduce its digest when it
/// repeats.
Timed run_timed(Workload& wl, const Args& args, double first_setup_s,
                Tally& tally) {
  const std::size_t pool = wl.pool_size();
  Timed t;
  t.setup_s.push_back(first_setup_s);
  t.setup_after.push_back(0);
  std::vector<Step>& steps = t.steps;
  std::vector<double>& setup_s = t.setup_s;
  std::map<std::size_t, std::uint64_t> digest_of;
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t busy = 0;
  auto setup_again = [&] {
    const std::int64_t t0 = now_ns();
    wl.setup(args.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    t.setup_after.push_back(steps.size() - 1);
  };
  do {
    const std::size_t k = steps.size();
    const std::int64_t t0 = now_ns();
    Step st = wl.step(k);
    const std::int64_t dt = now_ns() - t0;
    busy += dt;
    t.step_s.push_back(static_cast<double>(dt) / 1e9);
    t.kernel_ms.push_back(reference_kernel_ms());
    if (pool > 1 || k == 0) {
      auto [it, fresh] = digest_of.emplace(k % pool, st.digest);
      if (!fresh && it->second != st.digest)
        fail_step(st, "input " + std::to_string(k % pool) +
                          " did not repeat its digest");
    }
    tally.add(st, "step " + std::to_string(k));
    steps.push_back(std::move(st));
    const auto reps = static_cast<std::int64_t>(setup_s.size());
    if (reps < kSetupReps && busy * kSetupReps >= budget * reps)
      setup_again();
  } while (busy < budget);
  while (static_cast<int>(setup_s.size()) < kSetupReps) setup_again();
  t.seconds = static_cast<double>(busy) / 1e9;
  t.peak_rss_mb = peak_rss_mb();
  return t;
}

/// Step 0 of kReferenceSeed on a fresh set-up, untimed, against the digest
/// recorded for it: whatever --seed is, the simulated statistics must match
/// those the benchmark was defined with (fig10 also checks
/// fig10_experiments' T and F there).
void check_reference(const std::string& workload, Tally& tally) {
  auto wl = make_workload(workload);
  wl->setup(kReferenceSeed);
  Step st = wl->step(0);
  std::printf("# reference seed %llu step 0 digest %016llx\n",
              static_cast<unsigned long long>(kReferenceSeed),
              static_cast<unsigned long long>(st.digest));
  if (st.digest != recorded_digest(workload))
    fail_step(st, "differs from the recorded digest");
  tally.add(st, "reference seed step 0");
}

void report_end_to_end(const Args& args, const Timed& t, std::size_t pool,
                       const Tally& tally, Report& report) {
  // Host times at the nominal host speed (reference.h), raw beside them.
  std::vector<double> run_ms;
  std::vector<double> raw_ms;
  double sim_s = 0.0;
  double scaled_s = 0.0;
  for (std::size_t k = 0; k < t.steps.size(); ++k) {
    const double f = t.scale(k);
    for (double ms : t.steps[k].run_ms) {
      run_ms.push_back(ms * f);
      raw_ms.push_back(ms);
    }
    sim_s += t.steps[k].sim_s;
    scaled_s += t.step_s[k] * f;
  }
  std::vector<double> setup_s;
  for (std::size_t j = 0; j < t.setup_s.size(); ++j)
    setup_s.push_back(t.setup_s[j] * t.scale(t.setup_after[j]));
  auto raw = [](double v, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "raw %.6g %s", v, unit);
    return std::string(buf);
  };
  const Tail tail = tail_of(run_ms);
  report.add("setup_s", median(setup_s), "s",
             raw(median(t.setup_s), "s") + ", median of " +
                 std::to_string(setup_s.size()) + " set-ups");
  report.add("run_ms_p50", median(run_ms), "ms",
             raw(median(raw_ms), "ms") + ", n=" +
                 std::to_string(run_ms.size()));
  report.add("run_ms_tail", tail.value, "ms",
             raw(tail_of(raw_ms).value, "ms") + ", p" +
                 std::to_string(tail.percentile) + ", " +
                 std::to_string(tail.beyond) + " runs beyond, n=" +
                 std::to_string(run_ms.size()));
  report.add("sim_s_per_s", sim_s / scaled_s, "sim-s/s",
             raw(sim_s / t.seconds, "sim-s/s"));
  report.add("peak_rss_mb", t.peak_rss_mb, "MB");
  std::printf("  %-28s %16.6f %-12s median of %zu, one after each step; "
              "times above are at %g ms\n", "reference_kernel_ms",
              median(t.kernel_ms), "ms", t.kernel_ms.size(), kNominalMs);
  std::printf("  %-28s %16.6f %-12s failed / attempted (also the JSON "
              "line's own keys)\n", "fail_rate",
              ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)), "fraction");
  if (args.workload == "fig10") {
    // Accuracy over the first pass of the link-seed pool.
    double err = 0.0;
    double held = 0.0;
    const std::size_t n = std::min(pool, t.steps.size());
    for (std::size_t k = 0; k < n; ++k) {
      err += t.steps[k].paper_err / static_cast<double>(n);
      held += t.steps[k].paper_err_heldout / static_cast<double>(n);
    }
    std::printf("  %-28s %16.6f %-12s mean |T_sim-T_paper|/T_paper, all "
                "eight experiments\n", "paper_t_err", err, "fraction");
    std::printf("  %-28s %16.6f %-12s the same over 2B and 2C (held out "
                "of calibration)\n", "paper_t_err_heldout", held, "fraction");
  } else {
    std::printf("  %-28s %16s %-12s no reference results for this "
                "workload\n", "paper_t_err", "unvalidated", "");
  }
  if (args.workload == "observed") {
    std::vector<double> ratios;
    for (const Step& st : t.steps)
      ratios.push_back(ratio(st.run_ms.front(), st.dark_ms));
    std::printf("  %-28s %16.6f %-12s median of %zu paired observed/dark "
                "run host-time ratios (export excluded)\n", "obs_overhead",
                median(ratios), "ratio", ratios.size());
  }
}

/// The traced step, the layer probes sized by it, and the per-layer
/// metrics; the spans go to the output directory.
void report_layers(Workload& wl, const Args& args,
                   const std::vector<Step>& steps, Tally& tally,
                   Report& report) {
  SpanRecorder spans;
  TracedPass tp = wl.traced(spans);
  if (tp.step.digest != steps[0].digest)
    fail_step(tp.step, "disagrees with the dark pass on input 0");
  tally.add(tp.step, "traced pass");
  const Counts& c = tp.counts;

  // Probe spans carry the layer "probe": the benchmark calls sim, battery
  // and net only through core, so no layer's self time includes them.
  const int probes = spans.open("bench", "layer probes", -1, 1);
  double bare_ns = 0.0;
  double trace_ns = 0.0;
  double drain_ns = 0.0;
  double send_ns = 0.0;
  {
    ScopedSpan s(&spans, "probe", "Engine probe", probes, 1);
    const int depth = std::max(1, static_cast<int>(c.queue_depth_max));
    bare_ns = probe_engine(
        depth, std::min(static_cast<long long>(c.events_fired), kProbeEvents),
        ratio(c.sim_s * 1e9 * depth, c.events_fired));
  }
  {
    ScopedSpan s(&spans, "probe", "Trace::note_span probe", probes, 1);
    trace_ns = probe_trace(
        c.trace_pairs,
        std::min(static_cast<long long>(c.spans_noted), kProbeSpans));
  }
  {
    ScopedSpan s(&spans, "probe", "BatteryBank replay probe", probes, 1);
    drain_ns = probe_battery(c.loads);
  }
  {
    ScopedSpan s(&spans, "probe", "Hub::begin_send probe", probes, 1);
    send_ns = probe_hub(
        c.endpoints,
        std::min(static_cast<long long>(c.transactions), kProbeSends),
        ratio(c.payload_bytes, c.transactions), c.link_kbps);
  }
  spans.close(probes);

  std::filesystem::create_directories(args.out_dir);
  const std::string spans_path = args.out_dir + "/spans-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
  {
    std::ofstream os(spans_path);
    spans.write_json(os);
  }
  std::printf("# spans written to %s\n", spans_path.c_str());

  // Dark host time of input 0, the input the traced step repeats.
  const std::size_t pool = wl.pool_size();
  std::vector<double> dark_ms;
  std::vector<double> wall_ms;
  std::vector<double> observe_ms;
  std::vector<double> export_ms;
  std::vector<double> export_mb;
  std::vector<double> waits;
  std::vector<double> efficiency;
  std::vector<double> straggler;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const Step& st = steps[k];
    if (k % pool == 0) {
      dark_ms.push_back(st.dark_ms);
      wall_ms.push_back(st.wall_ms);
    }
    if (st.export_mb > 0.0) {
      observe_ms.push_back(st.run_ms.front() - st.dark_ms);
      export_ms.push_back(st.export_ms);
      export_mb.push_back(st.export_mb);
    }
    if (st.batch.workers > 0) {
      waits.insert(waits.end(), st.batch.wait_ms.begin(),
                   st.batch.wait_ms.end());
      efficiency.push_back(ratio(st.batch.item_ms_sum,
                                 st.batch.workers * st.batch.wall_ms));
      straggler.push_back(st.batch.straggler_ms);
    }
  }
  const double dark_ns = median(dark_ms) * 1e6;
  const double ns_per_event = ratio(dark_ns, c.events_fired);

  report.add("sim.events_fired", c.events_fired, "count");
  report.add("sim.fire_ratio", ratio(c.events_fired, c.events_scheduled),
             "ratio");
  report.add("sim.queue_depth_max", c.queue_depth_max, "count");
  report.add("sim.ns_per_event", ns_per_event, "ns", "dark host time / fired");
  report.add("sim.dispatch_share",
             c.handler_wall_ns > 0.0
                 ? 1.0 - ratio(c.handler_wall_ns, c.handler_run_ns)
                 : 0.0,
             "fraction",
             c.handler_wall_ns > 0.0 ? "" : "(no profiler on fleet runs)");
  report.add("sim.bare_ns_per_event", bare_ns, "ns", "bare Engine probe");
  report.add("sim.overhead_factor", ratio(ns_per_event, bare_ns), "ratio");
  report.add("sim.trace_ns_per_span", trace_ns, "ns", "note_span probe");
  report.add("sim.trace_share", ratio(trace_ns * c.spans_noted, dark_ns),
             "fraction", "probe cost x spans / dark host time");
  report.add("battery.drains", c.drains, "count");
  report.add("battery.drains_per_event", ratio(c.drains, c.events_fired),
             "ratio");
  report.add("battery.ns_per_drain", drain_ns, "ns", "load replay probe");
  report.add("battery.share", ratio(drain_ns * c.drains, dark_ns), "fraction",
             "probe cost x drains / dark host time");
  report.add("net.transactions", c.transactions, "count");
  report.add("net.payload_mb", c.payload_bytes / 1e6, "MB");
  report.add("net.drop_ratio", ratio(c.dropped, c.transactions), "ratio");
  report.add("net.ns_per_send", send_ns, "ns", "begin_send probe");
  report.add("net.share", ratio(send_ns * c.transactions, dark_ns), "fraction",
             "probe cost x sends / dark host time");
  report.add("fault.injections", c.injections, "count");
  report.add("obs.monitor_checks", c.monitor_checks, "count");
  report.add("obs.violations", c.violations, "count");
  report.add("obs.spans_recorded", c.spans_recorded, "count");
  report.add("obs.observe_ms", median(observe_ms), "ms",
             "paired observed minus dark");
  report.add("obs.export_ms", median(export_ms), "ms");
  report.add("obs.export_mb", median(export_mb), "MB");
  report.add("obs.traced_over_dark", ratio(tp.step.wall_ms, median(wall_ms)),
             "ratio");
  report.add("core.frames_sent", c.frames_sent, "count");
  report.add("core.frames_completed", c.frames_completed, "count");
  report.add("core.frames_lost", c.frames_lost, "count");
  report.add("core.migration_retries", c.migration_retries, "count");
  report.add("core.detections", c.detections, "count");
  report.add("core.detection_latency_s",
             ratio(c.detection_latency_s, c.detections), "sim-s");
  report.add("core.rounds", c.rounds, "count");
  report.add("core.elections", c.elections, "count");
  report.add("core.nodes_died", c.nodes_died, "count");
  report.add("core.batch.items", c.batch_items, "count");
  report.add("core.batch.wait_ms_p50", median(waits), "ms");
  report.add("core.batch.efficiency", median(efficiency), "ratio");
  report.add("core.batch.straggler_ms", median(straggler), "ms");
  report.add("task.partition_ms", wl.partition_ms, "ms");
  report.add("util.config_parse_us", wl.parse_us, "us");
  const auto self = spans.self_ms_by_layer();
  for (const char* layer :
       {"bench", "core", "core.batch", "util", "task", "obs"}) {
    const auto it = self.find(layer);
    report.add(std::string(layer) + ".self_ms",
               it == self.end() ? 0.0 : it->second, "ms", "span self time");
  }
}

int run(const Args& args, std::int64_t t_start) {
  auto wl = make_workload(args.workload);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s' (fig10, fleet1000, observed, "
                         "sweep)\n", args.workload.c_str());
    return 2;
  }

  wl->setup(args.seed);
  Tally tally;
  const Timed timed = run_timed(
      *wl, args, static_cast<double>(now_ns() - t_start) / 1e9, tally);
  check_reference(args.workload, tally);
  std::printf("%s seed=%llu steps=%zu timed=%.3fs\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), timed.steps.size(),
              timed.seconds);
  Report report;
  if (args.trace)
    report_layers(*wl, args, timed.steps, tally, report);
  else
    report_end_to_end(args, timed, wl->pool_size(), tally, report);

  const bool correct = tally.failed == 0;
  if (!correct)
    std::fprintf(stderr, "%s: %lld of %lld runs failed; first: %s\n",
                 args.workload.c_str(), tally.failed, tally.attempted,
                 tally.failure.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, tally.failed,
              report.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::int64_t t_start = perfbench::now_ns();
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: deslp_perfbench --workload fig10|fleet1000|observed|"
                 "sweep --seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  return perfbench::run(args, t_start);
}
