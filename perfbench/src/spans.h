// In-memory host-time spans for the traced pass.
//
// The benchmark opens a span around every call it makes into a library
// layer. A span records its layer, name, start, end, the span that caused
// it and the run it belongs to; spans stay in memory and are written out
// once the benchmark ends. A layer's self time is the time its spans cover
// minus the part of that time their child spans cover (children may run
// in parallel on BatchRunner workers, so the covered part is a union).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host monotonic clock in nanoseconds.
std::int64_t now_ns();

class SpanRecorder {
 public:
  struct Span {
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int run_id = -1;
  };

  /// Open a span under `parent` (-1 = root) for run `run_id`; returns its id.
  int open(std::string_view layer, std::string_view name, int parent,
           int run_id);
  void close(int id);

  /// Self time per layer, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// JSON: {"spans":[{"id":..,"layer":..,"name":..,"start_ns":..,
  /// "end_ns":..,"parent":..,"run":..},...]}, start times relative to the
  /// first span.
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;  // item spans open and close on batch workers
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op, so the dark pass runs the
/// same code with no spans.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view layer, std::string_view name,
             int parent, int run_id)
      : rec_(rec),
        id_(rec != nullptr ? rec->open(layer, name, parent, run_id) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
