#ifndef IRONSAFE_OBS_TRACE_H_
#define IRONSAFE_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "sim/cost_model.h"

namespace ironsafe::obs {

/// One closed (or still-open) interval on the query timeline.
///
/// Simulated times are the deterministic record: they are derived from
/// `CostModel::elapsed_ns()` deltas and are bit-identical across worker
/// counts and machines. Wall-clock fields are auxiliary measurements of
/// this particular run and are excluded from the default export.
struct Span {
  std::string name;
  std::string category;
  int64_t id = 0;
  int64_t parent = -1;  ///< span id, or -1 for a root
  int depth = 0;

  sim::SimNanos sim_start_ns = 0;
  sim::SimNanos sim_end_ns = 0;

  int64_t wall_start_us = 0;  ///< µs since the tracer's epoch
  int64_t wall_end_us = 0;

  /// Detail spans (per-morsel slices, per-worker lanes) legitimately vary
  /// in count and shape with the real worker cap, so they are excluded
  /// from the default (deterministic) export.
  bool detail = false;
  int lane = 0;  ///< display lane for detail spans (worker index)

  std::vector<std::pair<std::string, std::string>> tags;

  sim::SimNanos sim_duration_ns() const { return sim_end_ns - sim_start_ns; }
};

/// What an exporter emits. The defaults produce the deterministic trace:
/// simulated-time spans only, no wall clock, no per-worker detail, no
/// process-wide counters.
struct ExportOptions {
  bool include_wall = false;    ///< add wall-clock fields to span args
  bool include_detail = false;  ///< include per-worker detail spans
  /// When set, a top-level "counters" object snapshots this registry.
  /// Counters are process-cumulative, so only include them when the trace
  /// covers the whole process (as the benches do).
  const MetricsRegistry* metrics = nullptr;
};

/// Records a tree of spans for one traced run.
///
/// All mutating calls are mutex-guarded, but the open/close *structure*
/// is intended to be driven from one session thread (workers contribute
/// only flat detail spans); span ids and ordering are then deterministic.
///
/// Timeline placement: several `CostModel`s can contribute to one trace
/// (the monitor's control-path model, the query outcome's model, ...),
/// and each only yields deltas. The tracer therefore keeps a layout
/// cursor per open span: a child starts at its parent's cursor, and on
/// close ends at max(start + own model delta, end of its last child);
/// closing advances the parent's cursor to that end. Contiguous charges
/// on one model thus tile their parent exactly, and spans without a
/// model (passed a null CostModel) get their duration derived from their
/// children.
class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a child of the innermost open span (or a root). `cost` may be
  /// null: the span's duration is then derived from its children.
  /// Returns the span id.
  int64_t OpenSpan(std::string_view name, std::string_view category,
                   const sim::CostModel* cost);

  /// Closes the innermost open span; `id` must match it (enforces proper
  /// nesting). `cost` must be the model passed to OpenSpan (or null).
  void CloseSpan(int64_t id, const sim::CostModel* cost);

  void AddTag(int64_t id, std::string_view key, std::string_view value);
  void AddTag(int64_t id, std::string_view key, int64_t value);

  /// Appends a flat detail span (e.g. one morsel slice) under the
  /// innermost open span without advancing any cursor. `sim_dur_ns` is
  /// the slice's own simulated elapsed time; its display start is the
  /// parent's current cursor so sibling lanes align. Returns the span id.
  int64_t AddDetailSpan(std::string_view name, std::string_view category,
                        sim::SimNanos sim_dur_ns, int lane,
                        int64_t wall_start_us, int64_t wall_end_us);

  /// Appends a detail span at an explicit place on the simulated
  /// timeline, independent of any cursor. This is how event-driven
  /// components (the serving pipeline's interleaved stages) show true
  /// overlap: each stage records its own [start, end) as computed by the
  /// event queue, so concurrent stages of different sessions visibly
  /// overlap in the detail lanes. Like every detail span it is excluded
  /// from the default (deterministic) export. Returns the span id.
  int64_t AddTimelineSpan(std::string_view name, std::string_view category,
                          sim::SimNanos sim_start_ns, sim::SimNanos sim_end_ns,
                          int lane);

  /// µs since this tracer was constructed (steady clock); safe from any
  /// thread. Use to timestamp detail spans.
  int64_t WallNowUs() const;

  /// Chrome trace_event JSON (chrome://tracing, Perfetto). ts/dur are
  /// simulated microseconds with ns precision; args carry span id/parent
  /// and tags. Deterministic under the default options.
  void ExportChromeTrace(std::ostream& out, const ExportOptions& opts) const;
  Status WriteChromeTrace(const std::string& path,
                          const ExportOptions& opts) const;

  /// Human-readable indented tree with simulated durations.
  void ExportTree(std::ostream& out) const;

  std::vector<Span> spans() const;
  size_t span_count() const;
  size_t open_count() const;
  void Clear();

 private:
  struct OpenState {
    int64_t id = 0;
    bool has_model = false;
    sim::SimNanos raw_open = 0;  ///< model elapsed_ns() at open
    sim::SimNanos start = 0;     ///< display start on the timeline
    sim::SimNanos cursor = 0;    ///< end of the last closed child
  };

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<OpenState> open_;  // innermost last
  sim::SimNanos root_cursor_ = 0;
  // ironsafe-lint: allow(determinism) — epoch for the opt-in wall lane
  std::chrono::steady_clock::time_point epoch_;
};

/// The tracer the current thread reports to, or null (tracing off).
/// Thread-local: worker threads do not inherit the session thread's
/// tracer, which keeps span structure single-threaded by construction.
Tracer* CurrentTracer();
void SetCurrentTracer(Tracer* tracer);

/// Installs `tracer` as the current thread's tracer for a scope.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer* tracer) : prev_(CurrentTracer()) {
    SetCurrentTracer(tracer);
  }
  ~ScopedTracer() { SetCurrentTracer(prev_); }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* prev_;
};

/// RAII span against the current thread's tracer. When no tracer is
/// installed every member is a cheap no-op (one TLS load), so call sites
/// can instrument unconditionally.
class SpanGuard {
 public:
  SpanGuard(std::string_view name, std::string_view category,
            const sim::CostModel* cost)
      : tracer_(CurrentTracer()), cost_(cost) {
    if (tracer_ != nullptr) id_ = tracer_->OpenSpan(name, category, cost);
  }
  ~SpanGuard() { Close(); }

  void Close() {
    if (tracer_ != nullptr) {
      tracer_->CloseSpan(id_, cost_);
      tracer_ = nullptr;
    }
  }
  void Tag(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) tracer_->AddTag(id_, key, value);
  }
  void Tag(std::string_view key, int64_t value) {
    if (tracer_ != nullptr) tracer_->AddTag(id_, key, value);
  }
  bool active() const { return tracer_ != nullptr; }
  int64_t id() const { return id_; }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const sim::CostModel* cost_ = nullptr;
  int64_t id_ = -1;
};

}  // namespace ironsafe::obs

#endif  // IRONSAFE_OBS_TRACE_H_
