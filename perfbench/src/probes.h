// Same-process layer probes for the traced pass. Each drives one layer in
// isolation at the sizes the workload's own traced run reported, so its
// per-operation cost can be set beside the in-run figure as a ratio.
#pragma once

#include <vector>

#include "workloads.h"

namespace perfbench {

/// Bare sim::Engine: `depth` self-rescheduling events, each re-posting
/// itself after a uniform delay in [1, 2 * mean_delay_ns], until about
/// `events` have fired. Returns ns per fired event.
double probe_engine(int depth, long long events, double mean_delay_ns);

/// sim::Trace::note_span over `pairs` distinct (actor, kind) totals with
/// span storage off. Returns ns per noted span.
double probe_trace(int pairs, long long spans);

/// Replay every recorded per-node load segment against fresh batteries of
/// the recorded model (a BatteryBank for KiBaM and Rakhmatov, the scalar
/// model otherwise). Returns ns per replayed drain.
double probe_battery(const std::vector<LoadTrace>& loads);

/// net::Hub::begin_send from every node to its neighbour among `endpoints`
/// endpoints at `mean_bytes` per message, deliveries dispatched. Returns ns
/// per send.
double probe_hub(int endpoints, long long sends, double mean_bytes,
                 double kbps);

}  // namespace perfbench
