#ifndef IRONSAFE_SERVER_QUERY_SERVICE_H_
#define IRONSAFE_SERVER_QUERY_SERVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/chacha20.h"
#include "engine/ironsafe.h"
#include "net/secure_channel.h"
#include "server/pipeline.h"
#include "server/plan_cache.h"
#include "server/scheduler.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"

namespace ironsafe::server {

/// One statement as a client submits it (sealed on its session channel).
struct StatementRequest {
  std::string sql;
  std::string execution_policy;
  std::optional<int64_t> insert_expiry;
  std::optional<int64_t> insert_reuse;
};

Bytes EncodeStatementRequest(const StatementRequest& request);
Result<StatementRequest> DecodeStatementRequest(const Bytes& plain);

/// What the service seals back for one executed statement. `status` is
/// the engine/monitor outcome (a policy rejection travels here, inside
/// the channel); the remaining fields are meaningful only when it is OK.
struct StatementResponse {
  Status status = Status::OK();
  sql::QueryResult result;
  sim::SimNanos monitor_ns = 0;
  sim::SimNanos execution_ns = 0;
  bool offloaded = false;
  bool plan_cache_hit = false;

  sim::SimNanos total_ns() const { return monitor_ns + execution_ns; }
};

Bytes EncodeStatementResponse(const StatementResponse& response);
Result<StatementResponse> DecodeStatementResponse(const Bytes& plain);

/// Terminal record for one submitted statement. `transport` is OK when
/// `response_frame` holds a sealed StatementResponse; it is kUnavailable
/// when the session dropped or closed before the statement ran (the
/// statement did NOT execute — safe to resubmit on a new session), or
/// when the session dropped midstream (the statement DID execute but the
/// response was lost; read-only statements are still safe to resubmit).
/// A request frame that fails to open or decode completes with that error
/// (e.g. kCorruption) and did NOT execute.
/// The latency fields are simulated-timeline measurements: scheduling
/// delay runs from admission to the scheduler pop, end-to-end from
/// admission to response delivery (or to the aborting event).
struct Completion {
  uint64_t seq = 0;
  Status transport = Status::OK();
  Bytes response_frame;
  sim::SimNanos sched_delay_ns = 0;
  sim::SimNanos e2e_ns = 0;
  /// Number of delivery chunks when the response streamed under
  /// credit-based flow control; 0 for single-frame delivery.
  uint32_t stream_chunks = 0;
  /// Time the delivery spent blocked on exhausted credits.
  sim::SimNanos stream_stall_ns = 0;
};

struct ServiceOptions {
  SchedulerLimits limits;
  size_t plan_cache_capacity = 128;
  /// Statements that may occupy the execute stage concurrently (on the
  /// simulated timeline; native work still runs one event at a time).
  size_t execute_slots = 4;
  StreamOptions stream;
};

/// Multi-tenant serving front end over one IronSafeSystem (the "many
/// clients" deployment of paper Figure 2): per-session attested secure
/// channels, bounded weighted-fair admission with per-tenant SLO
/// weights, a policy-epoch-keyed plan cache, result streaming with
/// credit-based flow control, and graceful drain.
///
/// Threading model: Submit / TakeCompletions / CloseSession are
/// thread-safe and may be called from concurrent client threads.
/// RunUntilIdle (concurrent callers serialize) drives the event-driven
/// pipeline: stages of *different* statements interleave on the
/// simulated timeline, but their native work runs one event at a time in
/// the deterministic event order, which is what keeps aggregate cost
/// totals and the default trace bit-identical across worker counts: the
/// simulated account depends on the submission schedule, never on
/// thread timing.
class QueryService {
 public:
  QueryService(engine::IronSafeSystem* system, ServiceOptions options);

  /// The client's half of an open session: the service keeps the mirror
  /// channel, so frames sealed on `channel` authenticate at the service
  /// and vice versa.
  struct ClientSession {
    uint64_t id = 0;
    std::unique_ptr<net::SecureChannel> channel;
  };

  /// Authenticates `client_key_id` against the monitor's client registry
  /// (RegisterClient keys) and runs a fresh net::Handshake for the
  /// session; `weight` is the tenant's SLO weight in the weighted-fair
  /// scheduler (gold > silver > bronze). kUnauthenticated for unknown
  /// clients; kInvalidArgument for weight 0; kUnavailable while
  /// draining.
  Result<ClientSession> OpenSession(const std::string& client_key_id,
                                    uint32_t weight = 1);

  /// One session to open as part of a batch.
  struct SessionSpec {
    std::string client_key_id;
    uint32_t weight = 1;
  };

  /// Opens a cohort of sessions in one enclave entry: the monitor
  /// authenticates every key and mints every session key inside a single
  /// transition (net::Handshake::FromSessionKey derives the channel
  /// pair), amortizing the dominant per-session attestation cost at
  /// 10k+ sessions. Result i corresponds to spec i; failures are
  /// per-spec (an unknown key does not fail its cohort).
  std::vector<Result<ClientSession>> OpenSessionBatch(
      const std::vector<SessionSpec>& specs);

  /// Closes a session: zeroizes the service-side channel keys and
  /// completes any still-queued statements with kUnavailable. The
  /// service forgets the session once its last completion is taken.
  Status CloseSession(uint64_t session_id);

  /// Changes the session's SLO weight for statements admitted from now
  /// on. kInvalidArgument for weight 0 (it would starve the tenant).
  Status SetSessionWeight(uint64_t session_id, uint32_t weight);

  /// Admits one sealed request frame; returns the statement's seq.
  /// kResourceExhausted (retryable backpressure, see common/retry) when
  /// the session quota or global queue bound is hit; kUnavailable while
  /// draining; kNotFound for unknown/closed sessions.
  Result<uint64_t> Submit(uint64_t session_id, const Bytes& request_frame);

  /// Dispatches queued statements in weighted-fair order until the queue
  /// and the pipeline are empty; returns how many statements it popped
  /// from the scheduler. Safe to call from any thread (concurrent
  /// callers serialize); determinism holds whenever the submission
  /// schedule itself is deterministic.
  size_t RunUntilIdle();

  /// Pops every finished completion for the session, submission order.
  std::vector<Completion> TakeCompletions(uint64_t session_id);

  /// Stops admission (new Submit/OpenSession fail kUnavailable), then
  /// executes everything already admitted. Every admitted statement ends
  /// in exactly one completion: nothing is lost, nothing runs twice.
  /// Returns how many queued statements the drain flushed.
  size_t Drain();

  /// Drain + close every session (keys zeroized).
  void Shutdown();

  bool draining() const;

  struct Stats {
    uint64_t sessions_opened = 0;
    uint64_t sessions_closed = 0;
    uint64_t batch_opens = 0;          ///< OpenSessionBatch calls
    uint64_t statements_admitted = 0;
    uint64_t statements_rejected = 0;  ///< admission backpressure
    uint64_t statements_executed = 0;
    uint64_t statements_aborted = 0;   ///< completed without a response
    uint64_t plan_cache_hits = 0;
    uint64_t plan_cache_misses = 0;
    size_t peak_queue_depth = 0;
    sim::SimNanos total_monitor_ns = 0;
    sim::SimNanos total_execution_ns = 0;
    sim::SimNanos total_serve_ns = 0;  ///< response sealing/shipping
    sim::SimNanos total_sched_delay_ns = 0;
    uint64_t stream_chunks = 0;        ///< chunks across streamed responses
    sim::SimNanos stream_stall_ns = 0; ///< flow-control stall, summed
    /// Sessions the service still holds: open ones, and closed ones whose
    /// completions the client has not taken yet.
    size_t sessions_held = 0;
  };
  Stats stats() const;

 private:
  struct Session {
    std::string client_key;
    std::unique_ptr<net::SecureChannel> channel;  // service end
    uint64_t next_seq = 0;
    bool closed = false;
    std::deque<Completion> completions;
    // ---- ordered completion emitter ----
    /// Completions whose seq is ahead of next_emit_seq wait here so the
    /// visible completion order is always submission order.
    std::map<uint64_t, Completion> staged;
    uint64_t next_emit_seq = 0;
    // ---- per-session encode barrier (channel frames carry send seqs,
    // so Send must happen in submission order per session) ----
    uint64_t next_encode_seq = 0;
    std::map<uint64_t, uint64_t> parked_encode;  ///< seq -> token
    std::set<uint64_t> encode_released;  ///< seqs done with the barrier
    /// Streams of one session serialize on its downlink.
    sim::SimNanos stream_busy_until = 0;
  };

  /// One statement in flight between the scheduler pop and the encode
  /// stage.
  struct Inflight {
    uint64_t session_id = 0;
    uint64_t seq = 0;
    Bytes request_frame;
    sim::SimNanos arrival_ns = 0;
    sim::SimNanos sched_delay_ns = 0;
    std::string client_key;
    StatementRequest request;
    StatementResponse response;
    /// Not OK once the statement can no longer produce a sealed response.
    Status transport = Status::OK();
    /// The authorization the execute stage runs: a plan-cache hit, or the
    /// fresh one (shared with the cache when it is cacheable).
    std::shared_ptr<const CachedPlan> plan;
    Bytes session_key;
    sim::SimNanos monitor_ns = 0;
    Bytes frame;  ///< sealed response, produced by the encode stage
  };

  // ---- pipeline stages ----
  /// Pops one statement's worth of intake: session checks, the session
  /// drop fault, then entry into the decode stage.
  void IntakeStatement(QueuedStatement item);
  sim::SimNanos RunDecode(uint64_t token, sim::SimNanos start);
  void DecodeDone(uint64_t token, sim::SimNanos end);
  sim::SimNanos RunAuthorize(uint64_t token, sim::SimNanos start);
  void AuthorizeDone(uint64_t token, sim::SimNanos end);
  sim::SimNanos RunExecute(uint64_t token, sim::SimNanos start);
  sim::SimNanos RunEncode(uint64_t token, sim::SimNanos start);
  /// Routes a token to the encode stage, honoring the per-session seq
  /// barrier (parks it when an earlier seq has not encoded yet).
  void RouteToEncode(uint64_t token);
  /// Takes a token out of the pipeline at `end` (after encode, or after a
  /// failed decode): releases its seq at the encode barrier, then aborts
  /// it or schedules delivery of its sealed response.
  void Retire(uint64_t token, sim::SimNanos end);
  /// Schedules delivery of a sealed response: immediate completion for
  /// single-frame responses, a chunked credit-window schedule (plus the
  /// midstream-drop / stream-stall fault sites) for larger ones.
  void ScheduleDelivery(Inflight state, sim::SimNanos encode_end);

  // ---- shared helpers ----
  /// Weight and client-registry checks for a session about to open.
  /// Requires mu_.
  Status CheckSessionLocked(const std::string& client_key_id,
                            uint32_t weight) const;
  /// Registers an open session around its service-side channel; returns
  /// its id. Requires mu_.
  uint64_t AddSessionLocked(const std::string& client_key_id, uint32_t weight,
                            std::unique_ptr<net::SecureChannel> channel);
  /// The two terminal paths of a statement; each stages its completion.
  /// AbortLocked: no sealed response reaches the client (`why` becomes
  /// the transport status). Requires mu_.
  void AbortLocked(Session& session, uint64_t seq, Status why,
                   sim::SimNanos sched_delay, sim::SimNanos e2e,
                   uint32_t delivered_chunks = 0);
  /// DeliverLocked: the sealed response arrived; success bookkeeping.
  /// Requires mu_.
  void DeliverLocked(Session& session, Completion completion, bool hit,
                     sim::SimNanos monitor_ns, sim::SimNanos execution_ns);
  /// Stages `completion` and flushes the contiguous prefix to the
  /// session's visible completion queue. Requires mu_.
  void StageCompletionLocked(Session& session, Completion completion);
  /// Advances the encode barrier past released seqs; returns the parked
  /// token that may now encode, if any. Requires mu_.
  std::optional<uint64_t> AdvanceEncodeLocked(Session& session);
  /// Closes a session in place: zeroizes keys, aborts queued statements.
  /// Requires mu_.
  void CloseSessionLocked(Session& session, uint64_t session_id,
                          std::string_view reason);
  /// Erases a closed session once nothing of it remains: every admitted
  /// statement has emitted its completion (so none is queued, in the
  /// pipeline or awaiting delivery) and the client has taken them all.
  /// Requires mu_.
  void EraseIfFinishedLocked(std::map<uint64_t, Session>::iterator it);
  void EmitStageSpan(std::string_view name, sim::SimNanos start,
                     sim::SimNanos end, int lane);

  engine::IronSafeSystem* system_;
  ServiceOptions options_;
  crypto::Drbg handshake_drbg_;

  /// Guards sessions_, scheduler_, draining_, counters, serve_cost_ and
  /// sim_now_.
  mutable std::mutex mu_;
  /// Serializes statement dispatch (the event queue, the stages, the
  /// in-flight table, the plan cache); always acquired before mu_.
  std::mutex dispatch_mu_;

  std::map<uint64_t, Session> sessions_;
  FairScheduler scheduler_;
  PlanCache plan_cache_;
  uint64_t next_session_id_ = 1;
  bool draining_ = false;

  // Pipeline state (all under dispatch_mu_).
  sim::EventQueue events_;
  PipelineStage decode_;
  PipelineStage authorize_;
  PipelineStage execute_;
  PipelineStage encode_;
  std::map<uint64_t, Inflight> inflight_;
  uint64_t next_token_ = 0;
  /// Intake window: the scheduler is popped only while fewer than this
  /// many statements are in flight, so the weighted-fair order governs
  /// everything beyond a small pipelining horizon.
  size_t pipeline_window_;

  /// The serving clock, mirrored from events_.now() under mu_ so Submit
  /// can stamp arrivals without touching the event queue.
  sim::SimNanos sim_now_ = 0;

  sim::CostModel serve_cost_;
  Stats stats_;
};

}  // namespace ironsafe::server

#endif  // IRONSAFE_SERVER_QUERY_SERVICE_H_
