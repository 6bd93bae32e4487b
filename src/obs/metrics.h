#ifndef IRONSAFE_OBS_METRICS_H_
#define IRONSAFE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ironsafe::obs {

/// Monotonically increasing event count (bytes shipped, ecall round
/// trips, RPMB reads, ...). Updates are relaxed atomic adds, so hot
/// paths pay one uncontended RMW per event.
class Counter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-written point-in-time value (resident bytes, active sessions).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Process-wide name -> metric registry. counter()/gauge() get-or-create
/// and return a reference that stays valid for the registry's lifetime
/// (node-based map), so call sites cache it in a function-local static
/// and the steady-state cost is a single relaxed atomic op.
///
/// Naming convention: dotted lowercase paths grouped by subsystem, e.g.
/// `tee.sgx.transitions`, `net.channel.send_bytes` (docs/OBSERVABILITY.md
/// lists the full registry).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Name-sorted snapshot of every registered metric's current value.
  std::vector<std::pair<std::string, int64_t>> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
};

inline Counter& GetCounter(std::string_view name) {
  return MetricsRegistry::Global().counter(name);
}
inline Gauge& GetGauge(std::string_view name) {
  return MetricsRegistry::Global().gauge(name);
}

/// Hot-path counter bump. Resolves the registry lookup once per call
/// site; compiles to nothing under -DIRONSAFE_OBS_DISABLE.
#ifndef IRONSAFE_OBS_DISABLE
#define IRONSAFE_COUNTER_ADD(name, delta)                       \
  do {                                                          \
    static ::ironsafe::obs::Counter& _ironsafe_obs_counter =    \
        ::ironsafe::obs::GetCounter(name);                      \
    _ironsafe_obs_counter.Add(                                  \
        static_cast<int64_t>(delta));                           \
  } while (0)
#else
#define IRONSAFE_COUNTER_ADD(name, delta) \
  do {                                    \
  } while (0)
#endif

}  // namespace ironsafe::obs

#endif  // IRONSAFE_OBS_METRICS_H_
