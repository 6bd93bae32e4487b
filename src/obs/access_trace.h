#ifndef IRONSAFE_OBS_ACCESS_TRACE_H_
#define IRONSAFE_OBS_ACCESS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ironsafe::obs {

class Tracer;

/// What an access event describes. The stream is the machine-checkable
/// record of the executor's externally observable behaviour: which scan
/// units (pages / row blocks) were touched in which order, and the shape
/// parameters of every operator pass. For the oblivious execution mode
/// the whole stream must be a function of input *shapes* only; for the
/// plain engine it legitimately tracks selectivity (rows kept per
/// filter, join output sizes, group counts), which is exactly the leak
/// the property harness demonstrates.
enum class AccessKind : uint8_t {
  kQueryBegin,   ///< a = 1 when oblivious mode, 0 plain
  kScanBegin,    ///< a = morsel units, b = table row count
  kUnitRead,     ///< a = unit index, b = rows decoded from the unit
  kScanEnd,      ///< a = rows kept (plain) / rows padded through (oblivious)
  kFilter,       ///< a = rows in, b = rows out (oblivious: in == out)
  kJoinBegin,    ///< a = left rows, b = right rows
  kSortNetwork,  ///< a = padded (power-of-two) size, b = compare-exchanges
  kJoinMerge,    ///< a = merged pair count, b = 1 when merge-path, 0 NL
  kJoinEnd,      ///< a = output rows, b = 1 when hash/merge, 0 nested-loop
  kAggregate,    ///< a = rows in, b = groups out (oblivious: b == a pad)
  kSort,         ///< a = rows sorted (plain comparison sort)
  kProject,      ///< a = rows projected
  kDistinct,     ///< a = rows in, b = rows out (oblivious: in == out)
  kResult,       ///< a = padded pipeline width (NOT the declassified
                 ///< result row count; see docs/OBLIVIOUS.md)
};

std::string_view AccessKindName(AccessKind kind);

struct AccessEvent {
  AccessKind kind = AccessKind::kQueryBegin;
  uint64_t a = 0;
  uint64_t b = 0;

  bool operator==(const AccessEvent&) const = default;
};

/// An append-only log of access events for one traced run.
///
/// Not thread-safe by design: the session thread records operator-level
/// events directly, and scan workers record their unit reads into
/// private per-slice logs which the session thread appends in worker
/// order after the pool drains — the same merge discipline the engines
/// already use for cost slices, so the merged stream is identical for
/// every real worker count.
class AccessLog {
 public:
  void Record(AccessKind kind, uint64_t a = 0, uint64_t b = 0) {
    events_.push_back(AccessEvent{kind, a, b});
  }
  void Append(const AccessLog& other) {
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  }

  const std::vector<AccessEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  void Clear() { events_.clear(); }

  /// Canonical one-event-per-line rendering; two logs are equal iff
  /// their renderings are byte-identical.
  std::string ToString() const;

  /// FNV-1a 64 over the canonical rendering. Bit-identical fingerprints
  /// are the property the oblivious suite asserts across value-randomized
  /// same-shape inputs and across real worker counts.
  uint64_t Fingerprint() const;

 private:
  std::vector<AccessEvent> events_;
};

/// The access log the current thread records to, or null (recording
/// off). Thread-local, mirroring obs::CurrentTracer: worker threads do
/// not inherit the session thread's log.
AccessLog* CurrentAccessLog();
void SetCurrentAccessLog(AccessLog* log);

/// Installs `log` as the current thread's access log for a scope.
class ScopedAccessLog {
 public:
  explicit ScopedAccessLog(AccessLog* log) : prev_(CurrentAccessLog()) {
    SetCurrentAccessLog(log);
  }
  ~ScopedAccessLog() { SetCurrentAccessLog(prev_); }
  ScopedAccessLog(const ScopedAccessLog&) = delete;
  ScopedAccessLog& operator=(const ScopedAccessLog&) = delete;

 private:
  AccessLog* prev_;
};

/// FNV-1a 64 of raw bytes (the fingerprint primitive used above).
uint64_t Fnv1a64(std::string_view bytes);

/// Extractor over the PR 2 tracer: canonically serializes the
/// deterministic span stream (non-detail spans only — detail spans
/// legitimately vary with the real worker cap) as
/// `name|category|id|parent|depth|sim_start|sim_end|tag=value|...`
/// lines. Stage tags such as rows_out make the plain engine's spans
/// diverge across value-randomized same-shape inputs, while an
/// oblivious run's signature must be bit-identical; the simulated
/// timestamps additionally pin every cost charge.
std::string DeterministicSpanSignature(const Tracer& tracer);

/// FNV-1a 64 of DeterministicSpanSignature.
uint64_t SpanFingerprint(const Tracer& tracer);

}  // namespace ironsafe::obs

#endif  // IRONSAFE_OBS_ACCESS_TRACE_H_
