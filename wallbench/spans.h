#ifndef IRONSAFE_WALLBENCH_SPANS_H_
#define IRONSAFE_WALLBENCH_SPANS_H_

// Wall-clock spans the benchmark records around its own calls into the
// program's public functions. A span carries a name, a layer (the module
// whose function it times), start and end on the steady clock, its parent
// span and the op it belongs to. Spans live in memory while the traced
// phase runs and are written out as Chrome trace_event JSON at exit, in
// the shape bench/trace_check validates (complete "X" events, ts/dur in
// microseconds with nanosecond digits, args.id / args.parent).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ironsafe::wallbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int64_t id = 0;
    int64_t parent = -1;
    int64_t op = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;

    int64_t duration_ns() const { return end_ns - start_ns; }
  };

  /// Spans are recorded only while enabled; Scope is a branch otherwise.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Tags every span opened from now on with op id `op` (-1: none).
  void set_op(int64_t op) { op_ = op; }

  int64_t Open(std::string_view name, std::string_view layer) {
    Span span;
    span.name = std::string(name);
    span.layer = std::string(layer);
    span.id = static_cast<int64_t>(spans_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op_;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void Close(int64_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in nanoseconds of every span named `name`.
  std::vector<int64_t> Durations(std::string_view name) const {
    std::vector<int64_t> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.duration_ns());
    }
    return out;
  }

  /// Self time per layer of the spans with ids in [first, last): each
  /// span's duration minus the time its direct children cover. Spans nest
  /// on one thread, so children never overlap, and a child's id is above
  /// its parent's.
  std::map<std::string, int64_t> SelfTimeByLayer(size_t first,
                                                 size_t last) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.duration_ns();
      }
    }
    std::map<std::string, int64_t> self;
    for (size_t i = first; i < last && i < spans_.size(); ++i) {
      self[spans_[i].layer] += spans_[i].duration_ns() - child_ns[i];
    }
    return self;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      int64_t ts = s.start_ns - epoch;
      int64_t dur = s.duration_ns();
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %lld.%03lld, "
                   "\"dur\": %lld.%03lld, \"args\": {\"id\": %lld, "
                   "\"parent\": %lld, \"op\": %lld}}%s\n",
                   s.name.c_str(), s.layer.c_str(),
                   static_cast<long long>(ts / 1000),
                   static_cast<long long>(ts % 1000),
                   static_cast<long long>(dur / 1000),
                   static_cast<long long>(dur % 1000),
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.op),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // innermost last
};

/// RAII span around one call. Inert (no clock read) when `log` is null or
/// disabled, which is how the untraced phase runs the same code.
class Scope {
 public:
  Scope(SpanLog* log, std::string_view name, std::string_view layer)
      : log_(log != nullptr && log->enabled() ? log : nullptr) {
    if (log_ != nullptr) id_ = log_->Open(name, layer);
  }
  ~Scope() { Close(); }

  void Close() {
    if (log_ != nullptr) log_->Close(id_);
    log_ = nullptr;
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int64_t id_ = -1;
};

}  // namespace ironsafe::wallbench

#endif  // IRONSAFE_WALLBENCH_SPANS_H_
