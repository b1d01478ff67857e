#include "spans.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::open(std::string_view layer, std::string_view name,
                       int parent, int run_id) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(layer), std::string(name), start, start,
                        parent, run_id});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                 s.end_ns);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cur_begin = 0;
    std::int64_t cur_end = -1;
    for (auto [b, e] : kids) {
      b = std::max(b, s.start_ns);
      e = std::min(e, s.end_ns);
      if (e <= b) continue;
      if (b > cur_end) {
        if (cur_end > cur_begin) covered += cur_end - cur_begin;
        cur_begin = b;
        cur_end = e;
      } else {
        cur_end = std::max(cur_end, e);
      }
    }
    if (cur_end > cur_begin) covered += cur_end - cur_begin;
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

void SpanRecorder::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"layer\":\"" << s.layer
       << "\",\"name\":\"" << s.name
       << "\",\"start_ns\":" << (s.start_ns - origin)
       << ",\"end_ns\":" << (s.end_ns - origin) << ",\"parent\":" << s.parent
       << ",\"run\":" << s.run_id << '}';
  }
  os << "\n]}\n";
}

}  // namespace perfbench
