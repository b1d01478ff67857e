#include "reference.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

double reference_kernel_ms() {
  constexpr int kIterations = 200'000;
  constexpr std::uint32_t kTableMask = (1U << 14) - 1;  // 64 KB of counters
  std::vector<std::uint32_t> table(kTableMask + 1);
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  for (std::uint32_t i = 0; i < 64; ++i) heap.emplace(0.01 * i, i);
  std::uint64_t x = 88172645463325252ULL;  // xorshift64, fixed seed
  double acc = 0.0;
  const std::int64_t t0 = now_ns();
  for (int it = 0; it < kIterations; ++it) {
    const auto [at, id] = heap.top();
    heap.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = (static_cast<double>(x >> 11) + 1.0) * 0x1.0p-53;
    acc += std::exp(-3.0 * u);
    table[static_cast<std::uint32_t>(x >> 20) & kTableMask] += id;
    heap.emplace(at - std::log(u), id);
  }
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  // Keep the work observable so it cannot be optimized away.
  std::uint64_t sum = 0;
  for (std::uint32_t v : table) sum += v;
  volatile double sink = acc + static_cast<double>(sum);
  (void)sink;
  return ms;
}

}  // namespace perfbench
