#include "probes.h"

#include <algorithm>
#include <memory>
#include <string>

#include "battery/bank.h"
#include "battery/battery.h"
#include "battery/kibam.h"
#include "battery/rakhmatov.h"
#include "net/hub.h"
#include "net/link.h"
#include "sim/channel.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace perfbench {

using namespace deslp;

namespace {

double ns_per(std::int64_t t0, std::int64_t t1, long long n) {
  return static_cast<double>(t1 - t0) / static_cast<double>(std::max(1LL, n));
}

struct Tick {
  sim::Engine* engine;
  Rng* rng;
  long long* fired;
  long long limit;
  std::uint64_t span_ns;
  void operator()() const {
    if (++*fired >= limit) return;
    const auto delay = static_cast<std::int64_t>(1 + (*rng)() % span_ns);
    engine->post_after(sim::Dur{delay}, *this);
  }
};

}  // namespace

double probe_engine(int depth, long long events, double mean_delay_ns) {
  sim::Engine engine;
  Rng rng(7);
  long long fired = 0;
  const auto span =
      static_cast<std::uint64_t>(std::max(2.0, 2.0 * mean_delay_ns));
  for (int i = 0; i < std::max(1, depth); ++i)
    engine.post_after(sim::Dur{static_cast<std::int64_t>(1 + rng() % span)},
                      Tick{&engine, &rng, &fired, events, span});
  const std::int64_t t0 = now_ns();
  engine.run();
  return ns_per(t0, now_ns(), fired);
}

double probe_trace(int pairs, long long spans) {
  sim::Trace trace;
  trace.set_recording(false);
  std::vector<std::string> actors;
  for (int i = 0; i < std::max(1, pairs); ++i)
    actors.push_back("Node" + std::to_string(i + 1));
  const auto n = static_cast<long long>(actors.size());
  const std::int64_t t0 = now_ns();
  for (long long i = 0; i < spans; ++i)
    trace.note_span(actors[static_cast<std::size_t>(i % n)], "COMP",
                    sim::Time{i}, sim::Time{i + 1});
  return ns_per(t0, now_ns(), spans);
}

double probe_battery(const std::vector<LoadTrace>& loads) {
  long long drains = 0;
  std::int64_t busy = 0;
  for (const LoadTrace& lt : loads) {
    const Coulombs cap = milliamp_hours(lt.capacity_mah);
    std::unique_ptr<battery::BatteryBank> bank;
    if (lt.model == "kibam") {
      battery::KibamParams p = battery::itsy_kibam_params();
      if (lt.capacity_mah > 0.0) p.capacity = cap;
      bank = std::make_unique<battery::BatteryBank>(p);
    } else if (lt.model == "rakhmatov") {
      battery::RakhmatovParams p = battery::itsy_rakhmatov_params();
      if (lt.capacity_mah > 0.0) p.alpha = cap;
      bank = std::make_unique<battery::BatteryBank>(p);
    }
    std::vector<std::unique_ptr<battery::Battery>> cells;
    for (std::size_t i = 0; i < lt.nodes.size(); ++i) {
      if (bank != nullptr)
        cells.push_back(bank->add_view());
      else if (lt.model == "peukert")
        cells.push_back(
            battery::make_peukert_battery(cap, 1.3, milliamps(100.0)));
      else
        cells.push_back(battery::make_ideal_battery(cap));
    }
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < lt.nodes.size(); ++i) {
      for (const auto& [current, dt] : lt.nodes[i]) {
        if (bank != nullptr)
          (void)bank->discharge(i, amps(current), seconds(dt));
        else
          (void)cells[i]->discharge(amps(current), seconds(dt));
      }
      drains += static_cast<long long>(lt.nodes[i].size());
    }
    busy += now_ns() - t0;
  }
  return ns_per(0, busy, drains);
}

double probe_hub(int endpoints, long long sends, double mean_bytes,
                 double kbps) {
  sim::Engine engine;
  net::LinkSpec link = net::itsy_serial_link();
  link.effective_rate = kilobits_per_second(kbps);
  link.line_rate = kilobits_per_second(kbps * 1.44);
  net::Hub hub(engine, link);
  const int n = std::max(2, endpoints);
  std::vector<sim::Channel<net::Delivery>*> boxes;
  for (int a = 0; a < n; ++a) boxes.push_back(&hub.attach(a));
  net::Message msg;
  msg.size = bytes(static_cast<std::int64_t>(std::max(1.0, mean_bytes)));
  const std::int64_t t0 = now_ns();
  for (long long i = 0; i < sends; ++i) {
    msg.src = 1 + static_cast<int>(i % (n - 1));
    msg.dst = (msg.src + 1) % n;
    (void)hub.begin_send(msg);
    if ((i + 1) % 1024 == 0 || i + 1 == sends) {
      engine.run();
      // Nobody reads the mailboxes; empty them so memory stays flat.
      for (auto* box : boxes) {
        if (box->buffered() == 0) continue;
        box->close();
        box->reopen();
      }
    }
  }
  return ns_per(t0, now_ns(), sends);
}

}  // namespace perfbench
