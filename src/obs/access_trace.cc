#include "obs/access_trace.h"

#include <sstream>

#include "obs/trace.h"

namespace ironsafe::obs {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

thread_local AccessLog* t_access_log = nullptr;

}  // namespace

std::string_view AccessKindName(AccessKind kind) {
  switch (kind) {
    case AccessKind::kQueryBegin: return "query_begin";
    case AccessKind::kScanBegin: return "scan_begin";
    case AccessKind::kUnitRead: return "unit_read";
    case AccessKind::kScanEnd: return "scan_end";
    case AccessKind::kFilter: return "filter";
    case AccessKind::kJoinBegin: return "join_begin";
    case AccessKind::kSortNetwork: return "sort_network";
    case AccessKind::kJoinMerge: return "join_merge";
    case AccessKind::kJoinEnd: return "join_end";
    case AccessKind::kAggregate: return "aggregate";
    case AccessKind::kSort: return "sort";
    case AccessKind::kProject: return "project";
    case AccessKind::kDistinct: return "distinct";
    case AccessKind::kResult: return "result";
  }
  return "unknown";
}

std::string AccessLog::ToString() const {
  std::ostringstream out;
  for (const AccessEvent& e : events_) {
    out << AccessKindName(e.kind) << '(' << e.a << ',' << e.b << ")\n";
  }
  return out.str();
}

uint64_t AccessLog::Fingerprint() const { return Fnv1a64(ToString()); }

AccessLog* CurrentAccessLog() { return t_access_log; }

void SetCurrentAccessLog(AccessLog* log) { t_access_log = log; }

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = kFnvOffset;
  for (char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * kFnvPrime;
  }
  return h;
}

std::string DeterministicSpanSignature(const Tracer& tracer) {
  std::ostringstream out;
  for (const Span& span : tracer.spans()) {
    if (span.detail) continue;
    out << span.name << '|' << span.category << '|' << span.id << '|'
        << span.parent << '|' << span.depth << '|' << span.sim_start_ns << '|'
        << span.sim_end_ns;
    for (const auto& [key, value] : span.tags) {
      out << '|' << key << '=' << value;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace ironsafe::obs
