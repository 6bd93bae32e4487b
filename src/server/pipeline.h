#ifndef IRONSAFE_SERVER_PIPELINE_H_
#define IRONSAFE_SERVER_PIPELINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sim/event_queue.h"

namespace ironsafe::server {

/// One slot-limited stage of the serving pipeline (decode, authorize,
/// execute, encode), driven by a shared sim::EventQueue.
///
/// A job entering a stage starts immediately if a slot is free, else
/// waits FIFO. Starting a job runs its `runner` natively *at that
/// moment* — native execution order therefore equals the deterministic
/// event order — and the returned simulated duration schedules a
/// completion event at start + duration, which frees the slot, starts
/// the next waiting job, and invokes `done` so the owner can route the
/// job to its next stage.
///
/// Not thread-safe; QueryService drives every stage under its dispatch
/// lock.
class PipelineStage {
 public:
  /// Does the job's native work; returns its simulated duration.
  using Runner = std::function<sim::SimNanos(uint64_t token,
                                             sim::SimNanos start)>;
  /// Invoked (via the event queue) when the job's simulated interval
  /// ends; routes the job onward.
  using Done = std::function<void(uint64_t token, sim::SimNanos end)>;

  PipelineStage(std::string name, size_t slots, sim::EventQueue* events,
                Runner runner, Done done)
      : name_(std::move(name)), slots_(slots == 0 ? 1 : slots),
        events_(events), runner_(std::move(runner)), done_(std::move(done)) {}

  /// Starts the job now (slot free) or queues it FIFO.
  void Enter(uint64_t token);

  bool idle() const { return busy_ == 0 && waiting_.empty(); }
  size_t busy() const { return busy_; }
  size_t waiting() const { return waiting_.size(); }
  const std::string& name() const { return name_; }
  /// Jobs ever entered (for pipeline counters).
  uint64_t entered() const { return entered_; }

 private:
  void Start(uint64_t token);

  std::string name_;
  size_t slots_;
  sim::EventQueue* events_;
  Runner runner_;
  Done done_;
  size_t busy_ = 0;
  std::deque<uint64_t> waiting_;
  uint64_t entered_ = 0;
};

/// Credit-based flow control for chunked response delivery.
struct StreamOptions {
  /// Sealed response frames larger than this are delivered to the client
  /// in chunks of this size (on the simulated timeline only — the frame
  /// itself stays one AEAD unit, so result bytes are unchanged).
  size_t chunk_bytes = 1024;
  /// Credit window: at most this many chunks in flight before the sender
  /// blocks waiting for the client to return a credit.
  size_t credits = 4;
  /// Round trip for one credit grant to come back from the client.
  sim::SimNanos credit_rtt_ns = 100'000;
};

/// The computed delivery schedule of one chunked response.
struct StreamPlan {
  size_t chunks = 1;
  /// Time the sender spent blocked on exhausted credits.
  sim::SimNanos stall_ns = 0;
  /// Delivery instant of each chunk, as an offset from stream start;
  /// non-decreasing.
  std::vector<sim::SimNanos> delivery_ns;

  sim::SimNanos duration_ns() const {
    return delivery_ns.empty() ? 0 : delivery_ns.back();
  }
};

/// Computes the whole delivery schedule of a `frame_bytes` response
/// analytically (no per-chunk events): chunk transfer times come from
/// the profile's network link (per-message latency + bandwidth), the
/// sender serializes chunks on the link, and chunk i may only start once
/// the credit of chunk i - credits has returned (delivery +
/// credit_rtt_ns + extra_stall_ns). `extra_stall_ns` models a slow
/// client delaying every credit grant (the kServerStreamStall fault).
/// Pure function of its inputs — deterministic by construction.
StreamPlan PlanStream(size_t frame_bytes, const StreamOptions& options,
                      const sim::HardwareProfile& profile,
                      sim::SimNanos extra_stall_ns = 0);

}  // namespace ironsafe::server

#endif  // IRONSAFE_SERVER_PIPELINE_H_
