#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string_view>
#include <thread>

#include "battery/bank.h"
#include "battery/kibam.h"
#include "battery/rakhmatov.h"
#include "core/batch.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/scenario.h"
#include "cpu/cpu.h"
#include "fault/fault.h"
#include "obs/aggregate.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/profiler.h"
#include "obs/trace_export.h"
#include "util/config.h"
#include "util/rng.h"

namespace perfbench {

using namespace deslp;

namespace {

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

/// The workload seed itself, then further seeds drawn from it.
std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint64_t> out{seed};
  Rng rng(seed);
  while (out.size() < n) out.push_back(rng() >> 33);
  return out;
}

/// FNV-1a over the simulated statistics of a step.
class Digest {
 public:
  void add(long long v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h_ ^= (u >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  /// Doubles enter at a fixed resolution, not bit for bit.
  void add(double v, double resolution) {
    add(static_cast<long long>(std::llround(v / resolution)));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Everything a run simulated, excluding what observation adds (monitor
/// checks and violations), so a dark run and its observed twin hash alike.
void hash_run(Digest& d, const core::RunResult& r) {
  d.add(r.frames_sent);
  d.add(r.frames_completed);
  d.add(r.frames_lost);
  d.add(r.migration_retries);
  d.add(r.fault_injections);
  d.add(r.sim_end.value(), 1e-9);
  d.add(r.last_completion.value(), 1e-9);
  for (const auto& n : r.nodes) {
    d.add(n.died ? 1LL : 0LL);
    d.add(n.death_time.value(), 1e-9);
    d.add(n.final_soc, 1e-9);
    d.add(n.energy_used.value(), 1e-6);
    d.add(n.rotations);
    d.add(n.migrated ? 1LL : 0LL);
  }
}

/// Conservation and monitor verdicts every run must satisfy; "" = pass.
std::string check_run(const core::RunResult& r) {
  if (r.frames_completed > r.frames_sent) return "frames completed > sent";
  if (r.frames_lost > r.frames_sent) return "frames lost > sent";
  if (r.monitors_failed) return "a fail-severity monitor fired";
  return "";
}

void note_failure(Step& st, const std::string& what) {
  if (what.empty()) return;
  ++st.failed;
  if (st.failure.empty()) st.failure = what;
}

/// Generated inputs are the benchmark's own; a rejected one is a bug in
/// the generator, so the run stops without a result.
[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

Config must_parse(const std::string& text) {
  std::string error;
  auto cfg = Config::parse(text, &error);
  if (!cfg) die("generated INI rejected: " + error + "\n" + text);
  return std::move(*cfg);
}

double metric(const obs::Snapshot& snap, std::string_view name,
              bool high_water = false) {
  for (const auto& m : snap)
    if (m.name == name) return high_water ? m.max : m.value;
  return 0.0;
}

/// Sum of every metric named `<prefix>...<suffix>`.
double metric_sum(const obs::Snapshot& snap, std::string_view prefix,
                  std::string_view suffix) {
  double sum = 0.0;
  for (const auto& m : snap) {
    const std::string_view n = m.name;
    if (n.size() >= prefix.size() + suffix.size() && n.starts_with(prefix) &&
        n.ends_with(suffix))
      sum += m.value;
  }
  return sum;
}

/// Fold one traced run's registry snapshot, result and observation into
/// the per-layer counts.
void add_counts(Counts& c, const obs::Snapshot& snap,
                const core::RunResult& r, const core::RunObservation& cap) {
  c.events_fired += metric(snap, "sim.events.fired");
  c.events_scheduled += metric(snap, "sim.events.scheduled");
  c.queue_depth_max =
      std::max(c.queue_depth_max, metric(snap, "sim.queue.depth", true));
  c.drains += metric_sum(snap, "node.", ".drains");
  c.transactions += metric(snap, "hub.transactions");
  c.payload_bytes += metric(snap, "hub.payload_bytes");
  c.dropped += metric(snap, "hub.dropped_to_failed") +
               metric(snap, "hub.dropped_by_fault");
  c.injections += static_cast<double>(r.fault_injections);
  c.monitor_checks += static_cast<double>(r.monitor_checks);
  c.violations += static_cast<double>(r.violations_total);
  c.spans_recorded += static_cast<double>(cap.trace.spans().size());
  c.spans_noted += static_cast<double>(cap.trace.span_count());
  c.sim_s += r.sim_end.value();
  c.frames_sent += static_cast<double>(r.frames_sent);
  c.frames_completed += static_cast<double>(r.frames_completed);
  c.frames_lost += static_cast<double>(r.frames_lost);
  c.migration_retries += static_cast<double>(r.migration_retries);
  c.detections += metric(snap, "system.detections");
  c.detection_latency_s += metric(snap, "system.detection_latency_s");
  c.rounds += metric(snap, "fleet.rounds");
  c.elections += metric(snap, "fleet.elections");
  for (const auto& n : r.nodes) c.nodes_died += n.died ? 1.0 : 0.0;
  c.trace_pairs = std::max(
      c.trace_pairs, static_cast<int>(cap.trace.span_totals().size()));
  c.endpoints = std::max(c.endpoints, static_cast<int>(r.nodes.size()) + 1);
}

/// Per-node load segments from the power-monitor current tracks.
LoadTrace loads_from_counters(const core::RunObservation& cap,
                              std::string model, double capacity_mah) {
  LoadTrace lt{std::move(model), capacity_mah, {}};
  for (const auto& track : cap.counters) {
    if (track.name != "current_mA") continue;
    auto& segs = lt.nodes.emplace_back();
    for (std::size_t i = 0; i + 1 < track.samples.size(); ++i) {
      const double dt =
          static_cast<double>(track.samples[i + 1].at_ns -
                              track.samples[i].at_ns) / 1e9;
      segs.emplace_back(track.samples[i].value / 1000.0, dt);
    }
  }
  return lt;
}

// The monitor section of examples/scenarios/monitors.ini, fixed here so the
// benchmark's inputs do not change when the example does.
constexpr const char* kMonitorsIni = R"([monitor]
frame_latency = system.frame_latency_s < 600
frame_latency.severity = warn
accounting = system.frames_lost <= system.frames_sent
accounting.severity = fail
accounting.on = update
throughput = rate(system.frames_completed) >= 0
throughput.severity = fail
progress = system.frames_completed >= 1
progress.window = 100..86400
progress.severity = warn
checkpoint_s = 60
)";

// ---------------------------------------------------------------------------
// fig10: the paper's eight experiments, one at a time, over link seeds.

struct PaperRow {
  const char* id;
  long long frames;
  double t_hours;
};

// fig10_experiments' T and F for 0A-2C at link seed 42.
constexpr PaperRow kFig10Seed42[] = {
    {"0A", 13129, 4.0117},  {"0B", 20853, 12.7439}, {"1", 7444, 4.7559},
    {"1A", 13737, 8.7764},  {"2", 21451, 13.7048},  {"2A", 22368, 14.2907},
    {"2B", 24696, 15.7780}, {"2C", 27866, 17.8033},
};

class Fig10 final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    const std::int64_t t0 = now_ns();
    specs_ = core::paper_experiments();
    partition_ms = ms_between(t0, now_ns());
    suites_.clear();
    for (std::uint64_t s : derive_seeds(seed, kPool)) {
      core::ExperimentSuite::Options o;
      o.seed = s;
      suites_.push_back(std::make_unique<core::ExperimentSuite>(o));
    }
    for (const auto& spec : specs_)
      if (spec.id == "1") (void)suites_[0]->run(spec);  // warm-up
  }

  [[nodiscard]] std::size_t pool_size() const override { return kPool; }

  Step step(std::size_t k) override {
    const core::ExperimentSuite& suite = *suites_[k % kPool];
    Step st;
    Digest d;
    std::vector<core::ExperimentResult> results;
    const std::int64_t t0 = now_ns();
    for (const auto& spec : specs_) results.push_back(suite.run(spec));
    st.wall_ms = ms_between(t0, now_ns());
    st.run_ms.push_back(st.wall_ms);
    st.dark_ms = st.wall_ms;
    st.attempted = 1;
    check(results, k, st, d);
    st.digest = d.value();
    return st;
  }

  TracedPass traced(SpanRecorder& spans) override {
    TracedPass tp;
    const int root = spans.open("bench", "fig10 traced step", -1, 0);
    {
      ScopedSpan s(&spans, "task", "paper_experiments", root, 0);
      specs_ = core::paper_experiments();
    }
    core::ExperimentSuite::Options o = suites_[0]->options();
    o.collect_metrics = true;
    const core::ExperimentSuite suite(o);
    std::vector<core::ExperimentResult> results;
    const std::int64_t t0 = now_ns();
    for (const auto& spec : specs_) {
      const bool des = spec.kind == core::ExperimentSpec::Kind::kPipeline;
      core::RunObservation cap;
      obs::Profiler prof;
      const int s = spans.open("core", "ExperimentSuite::run " + spec.id, root,
                               0);
      const std::int64_t r0 = now_ns();
      results.push_back(des ? suite.run(spec, &cap, &prof) : suite.run(spec));
      const std::int64_t r1 = now_ns();
      spans.close(s);
      if (!des) continue;
      tp.counts.handler_wall_ns += static_cast<double>(prof.handler_wall_ns());
      tp.counts.handler_run_ns += static_cast<double>(r1 - r0);
      add_counts(tp.counts, results.back().metrics, results.back().details,
                 cap);
      tp.counts.loads.push_back(loads_from_counters(cap, "kibam", 0.0));
    }
    tp.step.wall_ms = ms_between(t0, now_ns());
    spans.close(root);
    Digest d;
    check(results, 0, tp.step, d);
    tp.step.attempted = 1;
    tp.step.digest = d.value();
    return tp;
  }

 private:
  static constexpr std::size_t kPool = 4;

  void check(const std::vector<core::ExperimentResult>& results,
             std::size_t k, Step& st, Digest& d) const {
    double err = 0.0;
    double err_heldout = 0.0;
    std::string failure;
    auto life = [&results](const char* id) {
      for (const auto& r : results)
        if (r.id == id) return r.battery_life.value();
      return 0.0;
    };
    for (const auto& r : results) {
      d.add(r.frames);
      d.add(r.battery_life.value(), 1e-9);
      hash_run(d, r.details);
      if (failure.empty()) failure = check_run(r.details);
      st.sim_s += r.details.sim_end.value();
      const double paper_s = r.paper.battery_life_hours * 3600.0;
      const double e = std::abs(r.battery_life.value() - paper_s) / paper_s;
      err += e / static_cast<double>(results.size());
      if (r.id == "2B" || r.id == "2C") err_heldout += e / 2.0;
    }
    st.paper_err = err;
    st.paper_err_heldout = err_heldout;
    const char* order[] = {"1", "1A", "2", "2A", "2B", "2C"};
    for (int i = 0; i + 1 < 6 && failure.empty(); ++i)
      if (!(life(order[i]) < life(order[i + 1])))
        failure = std::string("lifetime order broken at T(") + order[i] +
                  ") >= T(" + order[i + 1] + ")";
    if (failure.empty() && seed_ == kReferenceSeed && k == 0) {
      for (const auto& row : kFig10Seed42) {
        for (const auto& r : results) {
          if (r.id != row.id) continue;
          if (r.frames != row.frames ||
              std::abs(r.battery_life.value() / 3600.0 - row.t_hours) > 5e-5)
            failure = std::string("experiment ") + row.id +
                      " differs from fig10_experiments at seed 42";
        }
      }
    }
    note_failure(st, failure);
  }

  std::uint64_t seed_ = 0;
  std::vector<core::ExperimentSpec> specs_;
  std::vector<std::unique_ptr<core::ExperimentSuite>> suites_;
};

// ---------------------------------------------------------------------------
// fleet1000: a 1000-node, 25-cluster LEACH fleet (fleet_1000.ini's shape).

std::string fleet_text(std::uint64_t seed, int max_rounds) {
  std::ostringstream os;
  os << "[system]\nseed = " << seed << "\n"
     << "[link]\npreset = custom\neffective_kbps = 2000\nline_kbps = 2304\n"
        "startup_min_ms = 1\nstartup_max_ms = 2\n"
     << "[battery]\nmodel = ideal\ncapacity_mah = 0.12\n"
     << "[fleet]\nnodes = 1000\nclusters = 25\nround_s = 1\n"
        "epoch_rounds = 10\nelection = max_soc\nreading_bytes = 64\n"
        "aggregate_bytes = 256\nsense_kcycles = 2000\n"
        "aggregate_kcycles_per_reading = 100\nmember_mhz = 59.0\n"
        "head_mhz = 206.4\nmax_rounds = "
     << max_rounds << "\nstall_rounds = 30\n";
  return os.str();
}

class Fleet1000 final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    configs_.clear();
    std::vector<std::string> texts;
    for (std::uint64_t s : derive_seeds(seed, kPool))
      texts.push_back(fleet_text(s, kRounds));
    const std::int64_t t0 = now_ns();
    for (const auto& t : texts) configs_.push_back(must_parse(t));
    parse_us = ms_between(t0, now_ns()) * 1e3 / static_cast<double>(kPool);
    partition_ms = 0.0;
    (void)core::run_scenario(must_parse(fleet_text(seed, 2)));  // warm-up
  }

  [[nodiscard]] std::size_t pool_size() const override { return kPool; }

  Step step(std::size_t k) override {
    Step st;
    const std::int64_t t0 = now_ns();
    std::string error;
    const auto out = core::run_scenario(configs_[k % kPool], &error);
    st.wall_ms = ms_between(t0, now_ns());
    st.run_ms.push_back(st.wall_ms);
    st.dark_ms = st.wall_ms;
    st.attempted = 1;
    Digest d;
    check(out, error, st, d);
    st.digest = d.value();
    return st;
  }

  TracedPass traced(SpanRecorder& spans) override {
    TracedPass tp;
    const int root = spans.open("bench", "fleet1000 traced step", -1, 0);
    core::RunObservation cap;
    std::string error;
    std::optional<core::ScenarioOutcome> out;
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan s(&spans, "core", "run_scenario", root, 0);
      out = core::run_scenario(configs_[0], nullptr, &cap, &error);
    }
    tp.step.wall_ms = ms_between(t0, now_ns());
    spans.close(root);
    Digest d;
    check(out, error, tp.step, d);
    if (out) {
      add_counts(tp.counts, out->metrics, out->run, cap);
      tp.counts.link_kbps = 2000.0;
      // Fleets keep no power trace: replay each node's recorded activity
      // spans at the node's average current instead.
      LoadTrace lt{"ideal", 0.12, {}};
      lt.nodes.resize(out->run.nodes.size());
      for (const auto& sp : cap.trace.spans()) {
        if (!sp.actor.starts_with("Node")) continue;
        const auto idx = static_cast<std::size_t>(
            std::stoi(sp.actor.substr(4)) - 1);
        if (idx >= lt.nodes.size()) continue;
        lt.nodes[idx].emplace_back(
            out->run.nodes[idx].average_current.value(),
            static_cast<double>((sp.end - sp.begin).nanos()) / 1e9);
      }
      tp.counts.loads.push_back(std::move(lt));
    }
    tp.step.attempted = 1;
    tp.step.digest = d.value();
    return tp;
  }

 private:
  static constexpr std::size_t kPool = 4;
  static constexpr int kRounds = 40;

  static void check(const std::optional<core::ScenarioOutcome>& out,
                    const std::string& error, Step& st, Digest& d) {
    if (!out) return note_failure(st, "run_scenario: " + error);
    if (!out->fleet) return note_failure(st, "no fleet summary");
    const auto& f = *out->fleet;
    hash_run(d, out->run);
    d.add(f.rounds);
    d.add(f.elections);
    d.add(f.head_switches);
    d.add(static_cast<long long>(f.died));
    d.add(f.first_death_s, 1e-9);
    d.add(f.half_alive_s, 1e-9);
    d.add(f.last_alive_s, 1e-9);
    st.sim_s += out->run.sim_end.value();
    std::string failure = check_run(out->run);
    if (failure.empty() && (f.first_death_s < 0.0 || f.half_alive_s < 0.0))
      failure = "fleet milestones not reached inside the run";
    if (failure.empty() && f.half_alive_s < f.first_death_s)
      failure = "half-alive milestone before first death";
    if (failure.empty() && f.last_alive_s >= 0.0 &&
        f.last_alive_s < f.half_alive_s)
      failure = "last death before half-alive milestone";
    if (failure.empty() && f.head_conflicts != 0)
      failure = "a node headed two clusters in one epoch";
    note_failure(st, failure);
  }

  std::vector<Config> configs_;
};

// ---------------------------------------------------------------------------
// observed: 2B under a seeded fault plan, fully observed, paired with its
// dark twin in the same process.

/// An output sink that counts and discards: exports pay for formatting, as
/// when writing a file, without disk traffic or a growing in-memory copy.
class ByteCounter final : public std::streambuf {
 public:
  std::size_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::size_t>(n);
    return n;
  }
};

/// Blackout, brownout and burst loss at seeded times inside the life of
/// the half-size pack. Input `i` of `n` draws each time from the i-th of n
/// equal slices of its window, so every seed's pool spans the same spread.
std::string fault_text(std::uint64_t seed, std::size_t i, std::size_t n) {
  Rng rng(seed);
  auto at = [&](double lo, double hi) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    return std::llround(lo + (hi - lo) * (static_cast<double>(i) + u) /
                                 static_cast<double>(n));
  };
  auto uniform = [&rng](double lo, double hi) {
    return std::llround(lo + (hi - lo) * static_cast<double>(rng() >> 11) *
                                 0x1.0p-53);
  };
  std::ostringstream os;
  os << "[fault]\nseed = " << (rng() >> 33) << "\n";
  // Blackouts stay shorter than the 57.5 s stall window (25 frame delays),
  // so the pipeline rides them out instead of ending the run.
  os << "event1 = blackout target=0 at=" << at(1800, 5400)
     << " dur=" << uniform(20, 50) << "\n";
  os << "event2 = brownout target=2 at=" << at(5400, 12600)
     << " dur=" << uniform(60, 180) << "\n";
  os << "event3 = burst_loss target=0 at=" << at(9000, 18000)
     << " dur=" << uniform(300, 1200)
     << " p=" << static_cast<double>(uniform(5, 15)) / 100.0
     << "\n";
  return os.str();
}

class Observed final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    const std::int64_t p0 = now_ns();
    const auto specs = core::paper_experiments();
    partition_ms = ms_between(p0, now_ns());
    core::ExperimentSpec spec;
    for (const auto& s : specs)
      if (s.id == "2B") spec = s;
    const auto seeds = derive_seeds(seed, kPool);
    std::vector<std::string> texts{kMonitorsIni};
    for (std::size_t i = 0; i < kPool; ++i)
      texts.push_back(fault_text(seeds[i], i, kPool));
    const std::int64_t t0 = now_ns();
    std::vector<Config> cfgs;
    for (const auto& t : texts) cfgs.push_back(must_parse(t));
    parse_us =
        ms_between(t0, now_ns()) * 1e3 / static_cast<double>(texts.size());
    std::string error;
    auto monitors = obs::monitor_specs_from_config(cfgs[0], &error);
    if (!monitors) die("monitors rejected: " + error);
    // A half-size calibrated pack keeps an observed run, its export and its
    // dark twin under half a second of host time, so a run holds enough
    // pairs for a tail percentile.
    battery::KibamParams pack = battery::itsy_kibam_params();
    pack.capacity = pack.capacity * 0.5;
    core::ExperimentSuite::Options dark;
    dark.battery_factory = [pack] { return battery::make_kibam_battery(pack); };
    dark.battery_bank_factory = [pack] {
      return std::make_unique<battery::BatteryBank>(pack);
    };
    dark.builtin_monitors = false;
    core::ExperimentSuite::Options lit = dark;
    lit.collect_metrics = true;
    lit.monitors = *monitors;
    lit.monitor_checkpoint_s =
        obs::monitor_checkpoint_from_config(cfgs[0], 0.0);
    lit.builtin_monitors = true;
    lit.builtin_monitor_severity = obs::Severity::kFail;
    inputs_.clear();
    for (std::size_t i = 0; i < kPool; ++i) {
      auto plan = fault::FaultPlan::from_config(cfgs[i + 1], &error);
      if (!plan) die("fault plan rejected: " + error);
      Input in;
      in.spec = spec;
      in.spec.fault_plan = std::move(*plan);
      dark.seed = lit.seed = seeds[i];
      in.dark = std::make_unique<core::ExperimentSuite>(dark);
      in.lit = std::make_unique<core::ExperimentSuite>(lit);
      inputs_.push_back(std::move(in));
    }
    // Warm-up: one pair over the first input, cut short after 2000 frames.
    dark.max_frames = lit.max_frames = 2000;
    Input warm;
    warm.spec = inputs_[0].spec;
    warm.dark = std::make_unique<core::ExperimentSuite>(dark);
    warm.lit = std::make_unique<core::ExperimentSuite>(lit);
    (void)pair(warm, true);
  }

  [[nodiscard]] std::size_t pool_size() const override { return kPool; }

  Step step(std::size_t k) override {
    // Alternate which twin runs first so order and cache warmth cancel.
    return pair(inputs_[k % kPool], k % 2 == 0);
  }

  TracedPass traced(SpanRecorder& spans) override {
    TracedPass tp;
    Input& in = inputs_[0];
    const int root = spans.open("bench", "observed traced step", -1, 0);
    core::RunObservation cap;
    obs::Profiler prof;
    std::optional<core::ExperimentResult> r;
    const std::int64_t t0 = now_ns();
    std::int64_t r1 = 0;
    {
      ScopedSpan s(&spans, "core", "ExperimentSuite::run 2B", root, 0);
      r.emplace(in.lit->run(in.spec, &cap, &prof));
      r1 = now_ns();
    }
    (void)export_all(*r, cap, prof, &spans, root);
    tp.step.wall_ms = ms_between(t0, now_ns());
    spans.close(root);
    tp.counts.handler_wall_ns = static_cast<double>(prof.handler_wall_ns());
    tp.counts.handler_run_ns = static_cast<double>(r1 - t0);
    add_counts(tp.counts, r->metrics, r->details, cap);
    tp.counts.loads.push_back(loads_from_counters(cap, "kibam", 0.0));
    Digest d;
    hash_run(d, r->details);
    tp.step.digest = d.value();
    tp.step.attempted = 1;
    note_failure(tp.step, check_run(r->details));
    return tp;
  }

 private:
  static constexpr std::size_t kPool = 8;

  struct Input {
    core::ExperimentSpec spec;
    std::unique_ptr<core::ExperimentSuite> dark;
    std::unique_ptr<core::ExperimentSuite> lit;
  };

  /// One observed run (with export) and its dark twin, checked and timed.
  static Step pair(Input& in, bool dark_first) {
    Step st;
    std::optional<core::ExperimentResult> dark;
    std::optional<core::ExperimentResult> lit;
    auto run_dark = [&] {
      const std::int64_t t0 = now_ns();
      dark.emplace(in.dark->run(in.spec));
      st.dark_ms = ms_between(t0, now_ns());
    };
    auto run_lit = [&] {
      core::RunObservation cap;
      obs::Profiler prof;
      const std::int64_t t0 = now_ns();
      lit.emplace(in.lit->run(in.spec, &cap, &prof));
      const std::int64_t t1 = now_ns();
      st.export_mb = export_all(*lit, cap, prof, nullptr, -1);
      const std::int64_t t2 = now_ns();
      st.run_ms.push_back(ms_between(t0, t1));
      st.export_ms = ms_between(t1, t2);
      st.wall_ms = ms_between(t0, t2);
    };
    if (dark_first) {
      run_dark();
      run_lit();
    } else {
      run_lit();
      run_dark();
    }
    st.attempted = 1;
    st.sim_s = lit->details.sim_end.value() + dark->details.sim_end.value();
    Digest d;
    Digest dd;
    hash_run(d, lit->details);
    hash_run(dd, dark->details);
    st.digest = d.value();
    std::string failure = check_run(lit->details);
    if (failure.empty()) failure = check_run(dark->details);
    if (failure.empty() && d.value() != dd.value())
      failure = "observed run differs from its dark twin";
    if (failure.empty() && lit->details.fault_injections == 0)
      failure = "no fault was injected";
    note_failure(st, failure);
    return st;
  }

  /// Write every artifact of an observed run to memory; returns megabytes.
  static double export_all(const core::ExperimentResult& r,
                           const core::RunObservation& cap,
                           const obs::Profiler& prof, SpanRecorder* spans,
                           int parent) {
    const std::vector<core::ExperimentResult> results{r};
    ByteCounter sink;
    std::ostream out(&sink);
    auto emit = [&](const char* name, auto&& write) {
      ScopedSpan s(spans, "obs", name, parent, 0);
      write(out);
      out.flush();
    };
    emit("write_chrome_trace", [&](std::ostream& os) {
      obs::write_chrome_trace(cap.trace, cap.counters, os);
    });
    emit("Profiler::write_json",
         [&](std::ostream& os) { prof.write_json(os); });
    emit("write_snapshot_json",
         [&](std::ostream& os) { obs::write_snapshot_json(r.metrics, os); });
    emit("write_violations_json", [&](std::ostream& os) {
      obs::write_violations_json(r.details.violations, os);
    });
    emit("write_run_report_json", [&](std::ostream& os) {
      core::write_run_report_json(results, os);
    });
    emit("write_results_csv",
         [&](std::ostream& os) { core::write_results_csv(results, os); });
    emit("write_node_csv",
         [&](std::ostream& os) { core::write_node_csv(results, os); });
    emit("Aggregator::write_json", [&](std::ostream& os) {
      obs::Aggregator agg;
      core::aggregate_results(results, agg);
      agg.write_json(os);
    });
    return static_cast<double>(sink.bytes) / 1e6;
  }

  std::vector<Input> inputs_;
};

// ---------------------------------------------------------------------------
// sweep: generated scenario INIs through BatchRunner.

struct SweepItem {
  std::string text;
  std::string model;
  double capacity_mah = 0.0;
};

constexpr const char* kModels[] = {"kibam", "rakhmatov", "peukert", "ideal"};

/// The 12 shapes each battery model is swept over.
struct Shape {
  int stages;
  double kbps;
  bool dvs_io;
  int technique;  // 0 none, 1 acks, 2 rotation
};
constexpr Shape kShapes[] = {
    {1, 80, true, 0},   {1, 80, false, 0},  {1, 160, true, 0},
    {1, 160, false, 0}, {2, 80, true, 0},   {2, 80, true, 1},
    {2, 80, true, 2},   {2, 80, false, 2},  {2, 160, true, 0},
    {2, 160, true, 1},  {2, 160, true, 2},  {2, 160, false, 0},
};
constexpr std::size_t kSweepItems = 4 * std::size(kShapes);

/// Item `i` of batch `b`: the grid point is fixed by `i`; the seed perturbs
/// link rate, capacity, rotation period and jitter, so no two runs repeat.
SweepItem sweep_item(std::uint64_t seed, std::size_t b, std::size_t i) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + b * 1000003ULL + i);
  auto uniform = [&rng](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const Shape& sh = kShapes[i / 4];
  SweepItem it;
  it.model = kModels[i % 4];
  const double base_mah =
      it.model == "rakhmatov"
          ? to_milliamp_hours(battery::itsy_rakhmatov_params().alpha)
          : to_milliamp_hours(battery::itsy_kibam_params().capacity);
  const double scale = std::round(uniform(45, 55)) / 100.0;
  const double kbps = std::round(sh.kbps * uniform(1.0, 1.1) * 10) / 10;
  std::ostringstream os;
  os << "[system]\nseed = " << (rng() >> 33) << "\n";
  os << "[link]\npreset = itsy\neffective_kbps = " << kbps
     << "\nline_kbps = " << std::round(kbps * 14.4) / 10 << "\n";
  it.capacity_mah = std::round(base_mah * scale);
  os << "[battery]\nmodel = " << it.model
     << "\ncapacity_mah = " << it.capacity_mah << "\n";
  os << "[pipeline]\nstages = " << sh.stages
     << "\ndvs_during_io = " << (sh.dvs_io ? "true" : "false") << "\n";
  if (sh.technique == 1) os << "[technique]\nacks = true\n";
  if (sh.technique == 2)
    os << "[technique]\nrotation_period = "
       << 50 * (1 + static_cast<int>(rng() % 4)) << "\n";
  it.text = os.str();
  return it;
}

class Sweep final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
    runner_ = std::make_unique<core::BatchRunner>(
        core::BatchOptions{static_cast<int>(std::min(4U, hw))});
    // Every generated link rate must admit a feasible two-stage partition.
    const std::int64_t p0 = now_ns();
    for (double kbps : {80.0, 160.0}) {
      net::LinkSpec link = net::itsy_serial_link();
      link.effective_rate = kilobits_per_second(kbps);
      link.line_rate = kilobits_per_second(kbps * 1.44);
      if (!core::selected_two_node_partition(cpu::itsy_sa1100(),
                                             atr::itsy_atr_profile(), link)
               .feasible())
        die("no feasible two-stage partition at " + std::to_string(kbps) +
            " kbps");
    }
    partition_ms = ms_between(p0, now_ns());
    batch0_.clear();
    for (std::size_t i = 0; i < kSweepItems; ++i)
      batch0_.push_back(sweep_item(seed, 0, i));
    const std::int64_t t0 = now_ns();
    for (const auto& it : batch0_) (void)must_parse(it.text);
    parse_us =
        ms_between(t0, now_ns()) * 1e3 / static_cast<double>(kSweepItems);
    // Warm-up: one item per worker, the cheapest shape of each model.
    std::vector<SweepItem> warm(batch0_.begin(), batch0_.begin() + 4);
    (void)run_batch(warm, nullptr, -1);
  }

  [[nodiscard]] std::size_t pool_size() const override { return 1; }

  Step step(std::size_t k) override {
    std::vector<SweepItem> items;
    if (k == 0) {
      items = batch0_;
    } else {
      for (std::size_t i = 0; i < kSweepItems; ++i)
        items.push_back(sweep_item(seed_, k, i));
    }
    return run_batch(items, nullptr, -1).step;
  }

  TracedPass traced(SpanRecorder& spans) override {
    const int root = spans.open("bench", "sweep traced step", -1, 0);
    TracedPass tp = run_batch(batch0_, &spans, root);
    spans.close(root);
    return tp;
  }

 private:
  struct Outcome {
    std::optional<core::ScenarioOutcome> out;
    std::string error;
    core::RunObservation cap;
    std::int64_t handler_ns = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::thread::id worker;
  };
  /// Parse and run `items` on the pool. With `spans`, every item is run
  /// traced (capture + profiler) under a span of its own and the counts
  /// are filled in.
  TracedPass run_batch(const std::vector<SweepItem>& items,
                       SpanRecorder* spans, int parent) {
    TracedPass b;
    const bool traced = spans != nullptr;
    const std::int64_t t0 = now_ns();
    std::vector<Outcome> outs;
    {
      ScopedSpan map_span(spans, "core.batch", "BatchRunner::map", parent, 0);
      const int map_id = map_span.id();
      outs = runner_->map<Outcome>(items.size(), [&](std::size_t i) {
        Outcome o;
        o.worker = std::this_thread::get_id();
        o.start_ns = now_ns();
        const int run_id = static_cast<int>(i);
        std::optional<Config> cfg;
        {
          ScopedSpan s(spans, "util", "Config::parse", map_id, run_id);
          cfg = Config::parse(items[i].text, &o.error);
        }
        if (cfg && traced) {
          ScopedSpan s(spans, "core", "run_scenario", map_id, run_id);
          obs::Profiler prof;
          o.out = core::run_scenario(*cfg, nullptr, &o.cap, &prof, &o.error);
          o.handler_ns = prof.handler_wall_ns();
        } else if (cfg) {
          o.out = core::run_scenario(*cfg, &o.error);
        }
        o.end_ns = now_ns();
        return o;
      });
    }
    const std::int64_t t1 = now_ns();
    Step& st = b.step;
    st.wall_ms = ms_between(t0, t1);
    st.batch.workers = runner_->jobs();
    st.batch.wall_ms = st.wall_ms;
    st.run_ms = runner_->last_wall_ms();
    Digest d;
    std::vector<std::pair<std::thread::id, std::int64_t>> last_end;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const Outcome& o = outs[i];
      ++st.attempted;
      st.batch.item_ms_sum += ms_between(o.start_ns, o.end_ns);
      st.batch.wait_ms.push_back(ms_between(t0, o.start_ns));
      auto it = std::find_if(
          last_end.begin(), last_end.end(),
          [&](const auto& p) { return p.first == o.worker; });
      if (it == last_end.end())
        last_end.emplace_back(o.worker, o.end_ns);
      else
        it->second = std::max(it->second, o.end_ns);
      if (!o.out) {
        note_failure(st, "item " + std::to_string(i) + ": " + o.error);
        continue;
      }
      hash_run(d, o.out->run);
      st.sim_s += o.out->run.sim_end.value();
      const std::string failure = check_run(o.out->run);
      note_failure(st, failure.empty()
                           ? failure
                           : "item " + std::to_string(i) + ": " + failure);
      if (traced) {
        add_counts(b.counts, o.out->metrics, o.out->run, o.cap);
        b.counts.handler_wall_ns += static_cast<double>(o.handler_ns);
        b.counts.handler_run_ns += static_cast<double>(o.end_ns - o.start_ns);
        b.counts.loads.push_back(loads_from_counters(o.cap, items[i].model,
                                                     items[i].capacity_mah));
      }
    }
    std::int64_t first_idle = t1;
    for (const auto& p : last_end) first_idle = std::min(first_idle, p.second);
    st.batch.straggler_ms = ms_between(first_idle, t1);
    st.dark_ms = st.batch.item_ms_sum;
    st.digest = d.value();
    b.counts.batch_items = static_cast<double>(items.size());
    return b;
  }

  std::uint64_t seed_ = 0;
  std::unique_ptr<core::BatchRunner> runner_;
  std::vector<SweepItem> batch0_;
};

}  // namespace

std::uint64_t recorded_digest(const std::string& workload) {
  // Step 0 at kReferenceSeed, recorded when the benchmark was defined.
  if (workload == "fig10") return 0xc2c4ec2e6ca9f6e4ULL;
  if (workload == "fleet1000") return 0xe8b0374893b8e9f0ULL;
  if (workload == "observed") return 0x93a25138f31a12d9ULL;
  if (workload == "sweep") return 0x8085ef848d69ec32ULL;
  return 0;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig10") return std::make_unique<Fig10>();
  if (name == "fleet1000") return std::make_unique<Fleet1000>();
  if (name == "observed") return std::make_unique<Observed>();
  if (name == "sweep") return std::make_unique<Sweep>();
  return nullptr;
}

}  // namespace perfbench
