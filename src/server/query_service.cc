#include "server/query_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"

namespace ironsafe::server {

namespace {

/// Seeds the DRBG behind every per-session handshake. The seed is fixed,
/// so a fixed session-open order yields identical channel keys (and thus
/// byte-identical frames) run over run.
Bytes HandshakeSeedBytes() {
  constexpr uint64_t kHandshakeSeed = 0x5e55104e;
  Bytes b = ToBytes("ironsafe query service handshake drbg");
  PutU64(&b, kHandshakeSeed);
  return b;
}

/// Reads one flag byte; anything but 0 or 1 is a malformed frame.
Result<bool> ReadFlag(ByteReader* reader, std::string_view name) {
  ASSIGN_OR_RETURN(Bytes flag, reader->ReadBytes(1));
  if (flag[0] > 1) {
    return Status::InvalidArgument("statement frame: " + std::string(name) +
                                   " flag must be 0 or 1");
  }
  return flag[0] == 1;
}

}  // namespace

Bytes EncodeStatementRequest(const StatementRequest& request) {
  Bytes out;
  out.push_back(request.insert_expiry.has_value() ? 1 : 0);
  PutU64(&out, static_cast<uint64_t>(request.insert_expiry.value_or(0)));
  out.push_back(request.insert_reuse.has_value() ? 1 : 0);
  PutU64(&out, static_cast<uint64_t>(request.insert_reuse.value_or(0)));
  PutLengthPrefixed(&out, request.sql);
  PutLengthPrefixed(&out, request.execution_policy);
  return out;
}

Result<StatementRequest> DecodeStatementRequest(const Bytes& plain) {
  ByteReader reader(plain);
  StatementRequest request;
  ASSIGN_OR_RETURN(bool has_expiry, ReadFlag(&reader, "has_expiry"));
  ASSIGN_OR_RETURN(uint64_t expiry, reader.ReadU64());
  if (has_expiry) request.insert_expiry = static_cast<int64_t>(expiry);
  ASSIGN_OR_RETURN(bool has_reuse, ReadFlag(&reader, "has_reuse"));
  ASSIGN_OR_RETURN(uint64_t reuse, reader.ReadU64());
  if (has_reuse) request.insert_reuse = static_cast<int64_t>(reuse);
  ASSIGN_OR_RETURN(request.sql, reader.ReadLengthPrefixedString());
  ASSIGN_OR_RETURN(request.execution_policy,
                   reader.ReadLengthPrefixedString());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after statement request");
  }
  return request;
}

Bytes EncodeStatementResponse(const StatementResponse& response) {
  Bytes out;
  out.push_back(response.status.ok() ? 1 : 0);
  if (!response.status.ok()) {
    PutU32(&out, static_cast<uint32_t>(response.status.code()));
    PutLengthPrefixed(&out, response.status.message());
    return out;
  }
  PutLengthPrefixed(&out, net::SerializeResult(response.result));
  PutU64(&out, response.monitor_ns);
  PutU64(&out, response.execution_ns);
  out.push_back(response.offloaded ? 1 : 0);
  out.push_back(response.plan_cache_hit ? 1 : 0);
  return out;
}

Result<StatementResponse> DecodeStatementResponse(const Bytes& plain) {
  ByteReader reader(plain);
  StatementResponse response;
  ASSIGN_OR_RETURN(bool ok, ReadFlag(&reader, "ok"));
  if (!ok) {
    // Fail closed: an error frame must carry a real error code, or an
    // error could decode as an empty success.
    ASSIGN_OR_RETURN(uint32_t code, reader.ReadU32());
    if (code < static_cast<uint32_t>(StatusCode::kInvalidArgument) ||
        code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
      return Status::InvalidArgument("statement response: status code " +
                                     std::to_string(code) + " out of range");
    }
    ASSIGN_OR_RETURN(std::string message, reader.ReadLengthPrefixedString());
    response.status = Status(static_cast<StatusCode>(code), std::move(message));
  } else {
    ASSIGN_OR_RETURN(Bytes wire, reader.ReadLengthPrefixed());
    ASSIGN_OR_RETURN(response.result, net::DeserializeResult(wire));
    ASSIGN_OR_RETURN(response.monitor_ns, reader.ReadU64());
    ASSIGN_OR_RETURN(response.execution_ns, reader.ReadU64());
    ASSIGN_OR_RETURN(response.offloaded, ReadFlag(&reader, "offloaded"));
    ASSIGN_OR_RETURN(response.plan_cache_hit, ReadFlag(&reader, "hit"));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after statement response");
  }
  return response;
}

QueryService::QueryService(engine::IronSafeSystem* system,
                           ServiceOptions options)
    : system_(system),
      options_(options),
      handshake_drbg_(HandshakeSeedBytes()),
      scheduler_(options.limits),
      plan_cache_(options.plan_cache_capacity),
      decode_("decode", 1, &events_,
              [this](uint64_t token, sim::SimNanos start) {
                return RunDecode(token, start);
              },
              [this](uint64_t token, sim::SimNanos end) {
                DecodeDone(token, end);
              }),
      authorize_("authorize", 1, &events_,
                 [this](uint64_t token, sim::SimNanos start) {
                   return RunAuthorize(token, start);
                 },
                 [this](uint64_t token, sim::SimNanos end) {
                   AuthorizeDone(token, end);
                 }),
      execute_("execute", options.execute_slots, &events_,
               [this](uint64_t token, sim::SimNanos start) {
                 return RunExecute(token, start);
               },
               [this](uint64_t token, sim::SimNanos) {
                 RouteToEncode(token);
               }),
      encode_("encode", 1, &events_,
              [this](uint64_t token, sim::SimNanos start) {
                return RunEncode(token, start);
              },
              [this](uint64_t token, sim::SimNanos end) {
                Retire(token, end);
              }),
      pipeline_window_(std::max<size_t>(2, 2 * options.execute_slots)) {}

Status QueryService::CheckSessionLocked(const std::string& client_key_id,
                                        uint32_t weight) const {
  if (weight == 0) {
    return Status::InvalidArgument(
        "session weight 0 would starve the tenant; weights must be >= 1");
  }
  // Session identity maps onto the monitor's client registry: a key the
  // data producer never registered cannot even open a channel.
  if (!system_->monitor()->ClientRegistered(client_key_id)) {
    return Status::Unauthenticated("unknown client key: " + client_key_id);
  }
  return Status::OK();
}

uint64_t QueryService::AddSessionLocked(
    const std::string& client_key_id, uint32_t weight,
    std::unique_ptr<net::SecureChannel> channel) {
  uint64_t id = next_session_id_++;
  Session session;
  session.client_key = client_key_id;
  session.channel = std::move(channel);
  sessions_.emplace(id, std::move(session));
  if (weight != 1) (void)scheduler_.SetSessionWeight(id, weight);
  ++stats_.sessions_opened;
  IRONSAFE_COUNTER_ADD("server.sessions.opened", 1);
  obs::GetGauge("server.sessions.active")
      .Set(static_cast<int64_t>(stats_.sessions_opened -
                                stats_.sessions_closed));
  return id;
}

Result<QueryService::ClientSession> QueryService::OpenSession(
    const std::string& client_key_id, uint32_t weight) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    return Status::Unavailable("service is draining; no new sessions");
  }
  RETURN_IF_ERROR(CheckSessionLocked(client_key_id, weight));
  // The registry check and key mint enter the monitor enclave — one
  // transition per session on this path (see OpenSessionBatch).
  serve_cost_.ChargeEnclaveTransition();
  net::Handshake client_side(&handshake_drbg_);
  net::Handshake service_side(&handshake_drbg_);
  ASSIGN_OR_RETURN(net::Handshake::Hello client_hello, client_side.Start());
  ASSIGN_OR_RETURN(net::Handshake::Hello service_hello, service_side.Start());
  ASSIGN_OR_RETURN(std::unique_ptr<net::SecureChannel> client_channel,
                   client_side.Finish(service_hello, /*is_initiator=*/true));
  ASSIGN_OR_RETURN(std::unique_ptr<net::SecureChannel> service_channel,
                   service_side.Finish(client_hello, /*is_initiator=*/false));
  uint64_t id =
      AddSessionLocked(client_key_id, weight, std::move(service_channel));
  return ClientSession{id, std::move(client_channel)};
}

std::vector<Result<QueryService::ClientSession>> QueryService::OpenSessionBatch(
    const std::vector<SessionSpec>& specs) {
  // Results are built in place: moving a Result temporary into the vector
  // makes GCC 12 warn about the inactive unique_ptr alternative.
  std::vector<Result<ClientSession>> out;
  out.reserve(specs.size());
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    for (size_t i = 0; i < specs.size(); ++i) {
      out.emplace_back(
          Status::Unavailable("service is draining; no new sessions"));
    }
    return out;
  }
  // One enclave round trip authenticates the whole cohort: the monitor
  // checks the registry and mints a session key for every spec inside a
  // single transition, and the channel pair derives from the minted key
  // (net::Handshake::FromSessionKey) instead of a public-key handshake.
  // This amortizes the per-session costs that dominate open at 10k+
  // sessions.
  serve_cost_.ChargeEnclaveTransition();
  ++stats_.batch_opens;
  IRONSAFE_COUNTER_ADD("server.sessions.batch_opens", 1);
  for (const SessionSpec& spec : specs) {
    Status checked = CheckSessionLocked(spec.client_key_id, spec.weight);
    if (!checked.ok()) {
      out.emplace_back(std::move(checked));
      continue;
    }
    Bytes session_key = handshake_drbg_.Generate(32);
    auto channels = net::Handshake::FromSessionKey(session_key);
    if (!channels.ok()) {
      out.emplace_back(channels.status());
      continue;
    }
    uint64_t id = AddSessionLocked(spec.client_key_id, spec.weight,
                                   std::move(channels->second));
    out.emplace_back(ClientSession{id, std::move(channels->first)});
  }
  return out;
}

void QueryService::CloseSessionLocked(Session& session, uint64_t session_id,
                                      std::string_view reason) {
  session.closed = true;
  session.channel->Close();
  for (QueuedStatement& evicted : scheduler_.EvictSession(session_id)) {
    sim::SimNanos waited =
        sim_now_ >= evicted.arrival_ns ? sim_now_ - evicted.arrival_ns : 0;
    session.encode_released.insert(evicted.seq);
    AbortLocked(session, evicted.seq, Status::Unavailable(std::string(reason)),
                waited, waited);
  }
  ++stats_.sessions_closed;
  IRONSAFE_COUNTER_ADD("server.sessions.closed", 1);
  obs::GetGauge("server.sessions.active")
      .Set(static_cast<int64_t>(stats_.sessions_opened -
                                stats_.sessions_closed));
}

Status QueryService::CloseSession(uint64_t session_id) {
  // dispatch_mu_ first: a close never interleaves with an in-flight
  // statement, so every executed statement gets a sealed response and
  // every aborted one provably never ran.
  std::lock_guard<std::mutex> dispatch_lock(dispatch_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.closed) {
    return Status::NotFound("unknown session: " + std::to_string(session_id));
  }
  CloseSessionLocked(it->second, session_id, "session closed before dispatch");
  EraseIfFinishedLocked(it);
  return Status::OK();
}

void QueryService::EraseIfFinishedLocked(
    std::map<uint64_t, Session>::iterator it) {
  const Session& session = it->second;
  if (session.closed && session.next_emit_seq == session.next_seq &&
      session.completions.empty()) {
    sessions_.erase(it);
  }
}

Status QueryService::SetSessionWeight(uint64_t session_id, uint32_t weight) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.closed) {
    return Status::NotFound("unknown session: " + std::to_string(session_id));
  }
  return scheduler_.SetSessionWeight(session_id, weight);
}

Result<uint64_t> QueryService::Submit(uint64_t session_id,
                                      const Bytes& request_frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    return Status::Unavailable("service is draining; statement refused");
  }
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.closed) {
    return Status::NotFound("unknown session: " + std::to_string(session_id));
  }
  QueuedStatement item;
  item.session_id = session_id;
  item.seq = it->second.next_seq;
  item.request_frame = request_frame;
  item.arrival_ns = sim_now_;
  Status admitted = scheduler_.Admit(std::move(item));
  if (!admitted.ok()) {
    ++stats_.statements_rejected;
    IRONSAFE_COUNTER_ADD("server.admission.rejected", 1);
    return admitted;
  }
  uint64_t seq = it->second.next_seq++;
  ++stats_.statements_admitted;
  stats_.peak_queue_depth = scheduler_.peak_depth();
  IRONSAFE_COUNTER_ADD("server.admission.accepted", 1);
  obs::GetGauge("server.queue.peak_depth")
      .Set(static_cast<int64_t>(scheduler_.peak_depth()));
  return seq;
}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

size_t QueryService::RunUntilIdle() {
  std::lock_guard<std::mutex> dispatch_lock(dispatch_mu_);
  size_t popped = 0;
  for (;;) {
    // Lazy intake: pop the weighted-fair scheduler only when the decode
    // stage can accept work and the in-flight window has room, so the
    // schedule — not the pipeline — decides order beyond a small
    // pipelining horizon (and the session-drop fault still sees exactly
    // the statements that reached intake).
    std::optional<QueuedStatement> item;
    if (decode_.idle() && inflight_.size() < pipeline_window_) {
      std::lock_guard<std::mutex> lock(mu_);
      item = scheduler_.Next();
    }
    if (item.has_value()) {
      ++popped;
      IntakeStatement(std::move(*item));
      continue;
    }
    if (!events_.pending()) break;
    events_.RunNext();
    std::lock_guard<std::mutex> lock(mu_);
    sim_now_ = events_.now();
  }
  return popped;
}

void QueryService::IntakeStatement(QueuedStatement item) {
  uint64_t token = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sim::SimNanos now = events_.now();
    sim::SimNanos sched_delay =
        now >= item.arrival_ns ? now - item.arrival_ns : 0;
    stats_.total_sched_delay_ns += sched_delay;
    // The session is open: every close path evicts its queued statements
    // under dispatch_mu_, which RunUntilIdle holds from the pop onward.
    Session& session = sessions_.find(item.session_id)->second;
    // Injected session drop at dispatch: the tenant disappears while its
    // statement is queued. The victim statement and everything else the
    // session had queued complete with kUnavailable (nothing executed),
    // the channel keys are zeroized, and the client recovers by opening
    // a fresh session and resubmitting.
    if (sim::FaultAt(sim::fault_site::kServerSessionDrop)) {
      IRONSAFE_COUNTER_ADD("server.sessions.injected_drops", 1);
      session.encode_released.insert(item.seq);
      AbortLocked(session, item.seq,
                  Status::Unavailable("injected: session dropped"),
                  sched_delay, sched_delay);
      CloseSessionLocked(session, item.session_id,
                         "injected: session dropped");
      return;
    }
    token = next_token_++;
    Inflight state;
    state.session_id = item.session_id;
    state.seq = item.seq;
    state.request_frame = std::move(item.request_frame);
    state.arrival_ns = item.arrival_ns;
    state.sched_delay_ns = sched_delay;
    inflight_.emplace(token, std::move(state));
  }
  decode_.Enter(token);
}

sim::SimNanos QueryService::RunDecode(uint64_t token, sim::SimNanos start) {
  Inflight& state = inflight_.find(token)->second;
  sim::CostModel recv_cost;
  obs::SpanGuard span("stage-decode", "server", &recv_cost);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Session& session = sessions_.find(state.session_id)->second;
    auto plain = session.channel->Receive(state.request_frame, &recv_cost);
    auto decoded = plain.ok() ? DecodeStatementRequest(*plain)
                              : Result<StatementRequest>(plain.status());
    if (!decoded.ok()) {
      state.transport = decoded.status();
    } else {
      state.request = std::move(*decoded);
      state.client_key = session.client_key;
    }
    serve_cost_.MergeChild(recv_cost);
  }
  span.Close();
  sim::SimNanos duration = recv_cost.elapsed_ns();
  EmitStageSpan("decode", start, start + duration, 0);
  IRONSAFE_COUNTER_ADD("server.pipeline.decoded", 1);
  return duration;
}

void QueryService::DecodeDone(uint64_t token, sim::SimNanos end) {
  if (!inflight_.find(token)->second.transport.ok()) {
    Retire(token, end);
    return;
  }
  authorize_.Enter(token);
}

sim::SimNanos QueryService::RunAuthorize(uint64_t token, sim::SimNanos start) {
  Inflight& state = inflight_.find(token)->second;
  obs::SpanGuard span("stage-authorize", "server", nullptr);
  uint64_t epoch = system_->monitor()->policy_epoch();
  auto plan = plan_cache_.Lookup(state.client_key,
                                 state.request.execution_policy,
                                 state.request.sql, epoch);
  sim::SimNanos monitor_ns = 0;
  if (plan != nullptr) {
    state.response.plan_cache_hit = true;
    auto key = system_->AuthorizeCached(state.client_key, state.request.sql,
                                        plan->auth.obligations, &monitor_ns);
    if (!key.ok()) {
      state.response.status = key.status();
    } else {
      state.session_key = std::move(*key);
      state.plan = std::move(plan);
    }
  } else {
    auto authorized = system_->Authorize(state.client_key, state.request.sql,
                                         state.request.execution_policy,
                                         state.request.insert_expiry,
                                         state.request.insert_reuse);
    if (!authorized.ok()) {
      state.response.status = authorized.status();
    } else {
      monitor_ns = authorized->monitor_ns;
      state.session_key = authorized->auth.session_key;
      CachedPlan fresh{std::move(authorized->auth), monitor_ns};
      if (fresh.auth.rewritten.kind == sql::Statement::Kind::kSelect &&
          plan_cache_.capacity() > 0) {
        state.plan = plan_cache_.Insert(
            state.client_key, state.request.execution_policy,
            state.request.sql, epoch, std::move(fresh));
      } else {
        state.plan = std::make_shared<const CachedPlan>(std::move(fresh));
      }
    }
  }
  state.monitor_ns = monitor_ns;
  span.Close();
  EmitStageSpan("authorize", start, start + monitor_ns, 1);
  IRONSAFE_COUNTER_ADD("server.pipeline.authorized", 1);
  return monitor_ns;
}

void QueryService::AuthorizeDone(uint64_t token, sim::SimNanos) {
  Inflight& state = inflight_.find(token)->second;
  if (!state.response.status.ok()) {
    // Policy rejection: no data path, but the rejection still travels to
    // the client inside the channel as a sealed error response.
    RouteToEncode(token);
    return;
  }
  execute_.Enter(token);
}

sim::SimNanos QueryService::RunExecute(uint64_t token, sim::SimNanos start) {
  Inflight& state = inflight_.find(token)->second;
  obs::SpanGuard span("stage-execute", "server", nullptr);
  auto result = system_->ExecuteAuthorized(state.plan->auth, state.session_key,
                                           state.request.execution_policy,
                                           state.request.sql,
                                           state.monitor_ns);
  sim::SimNanos duration = 0;
  if (!result.ok()) {
    state.response.status = result.status();
  } else {
    state.response.result = std::move(result->result);
    state.response.monitor_ns = result->monitor_ns;
    state.response.execution_ns = result->execution_ns;
    state.response.offloaded = result->offloaded;
    // The stage occupies the timeline for the data path + proof only;
    // the control-path half already ran in the authorize stage.
    sim::SimNanos total = result->total_ns();
    duration = total >= state.monitor_ns ? total - state.monitor_ns : total;
  }
  span.Close();
  EmitStageSpan("execute", start, start + duration, 2);
  IRONSAFE_COUNTER_ADD("server.pipeline.executed", 1);
  return duration;
}

void QueryService::RouteToEncode(uint64_t token) {
  Inflight& state = inflight_.find(token)->second;
  bool start_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Session& session = sessions_.find(state.session_id)->second;
    // Channel frames carry per-session send sequence numbers, so Send
    // must happen in submission order even when a later statement clears
    // the execute stage first.
    if (state.seq == session.next_encode_seq) {
      start_now = true;
    } else {
      session.parked_encode.emplace(state.seq, token);
    }
  }
  if (start_now) encode_.Enter(token);
}

sim::SimNanos QueryService::RunEncode(uint64_t token, sim::SimNanos start) {
  Inflight& state = inflight_.find(token)->second;
  sim::CostModel send_cost;
  obs::SpanGuard span("stage-encode", "server", &send_cost);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Session& session = sessions_.find(state.session_id)->second;
    auto frame = session.channel->Send(EncodeStatementResponse(state.response),
                                       &send_cost);
    if (!frame.ok()) {
      state.transport = frame.status();
    } else {
      state.frame = std::move(*frame);
    }
    serve_cost_.MergeChild(send_cost);
  }
  span.Close();
  sim::SimNanos duration = send_cost.elapsed_ns();
  EmitStageSpan("encode", start, start + duration, 3);
  IRONSAFE_COUNTER_ADD("server.pipeline.encoded", 1);
  return duration;
}

void QueryService::Retire(uint64_t token, sim::SimNanos end) {
  Inflight state = std::move(inflight_.extract(token).mapped());
  std::optional<uint64_t> next_token;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Session& session = sessions_.find(state.session_id)->second;
    session.encode_released.insert(state.seq);
    next_token = AdvanceEncodeLocked(session);
    if (!state.transport.ok()) {
      AbortLocked(session, state.seq, state.transport, state.sched_delay_ns,
                  end - state.arrival_ns);
    }
  }
  if (state.transport.ok()) ScheduleDelivery(std::move(state), end);
  if (next_token.has_value()) encode_.Enter(*next_token);
}

void QueryService::ScheduleDelivery(Inflight state, sim::SimNanos encode_end) {
  StreamPlan plan = PlanStream(state.frame.size(), options_.stream,
                               serve_cost_.profile());
  if (plan.chunks <= 1) {
    // Small response: the sealed frame ships whole; delivery coincides
    // with the encode stage's end.
    std::lock_guard<std::mutex> lock(mu_);
    DeliverLocked(sessions_.find(state.session_id)->second,
                  Completion{state.seq, Status::OK(), std::move(state.frame),
                             state.sched_delay_ns,
                             encode_end - state.arrival_ns, 0, 0},
                  state.response.plan_cache_hit, state.response.monitor_ns,
                  state.response.execution_ns);
    return;
  }

  // Chunked delivery under credit-based flow control. The schedule is
  // computed analytically — chunk transfer times from the network link,
  // chunk i gated on the credit of chunk i-W — and only the terminal
  // event is posted.
  sim::SimNanos extra_stall = 0;
  if (auto stall = sim::FaultAt(sim::fault_site::kServerStreamStall)) {
    // A slow client delays every credit grant; latency-only fault.
    extra_stall = options_.stream.credit_rtt_ns * (1 + stall->param % 8);
    IRONSAFE_COUNTER_ADD("server.stream.injected_stalls", 1);
    plan = PlanStream(state.frame.size(), options_.stream,
                      serve_cost_.profile(), extra_stall);
  }
  std::optional<sim::FaultHit> drop =
      sim::FaultAt(sim::fault_site::kServerMidstreamDrop);

  sim::SimNanos start = encode_end;
  uint32_t chunks = static_cast<uint32_t>(plan.chunks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Session& session = sessions_.find(state.session_id)->second;
    // One downlink per session: streams serialize on it.
    if (session.stream_busy_until > start) start = session.stream_busy_until;
    session.stream_busy_until = start + plan.duration_ns();
    stats_.stream_chunks += plan.chunks;
    stats_.stream_stall_ns += plan.stall_ns;
  }
  IRONSAFE_COUNTER_ADD("server.pipeline.stream.chunks",
                       static_cast<int64_t>(plan.chunks));
  IRONSAFE_COUNTER_ADD("server.pipeline.stream.stall_ns",
                       static_cast<int64_t>(plan.stall_ns));
  EmitStageSpan("stream", start, start + plan.duration_ns(), 4);

  if (drop.has_value()) {
    // The session drops mid-delivery: the statement executed but its
    // result never fully arrived. The completion is kUnavailable and the
    // session closes at the failing chunk's delivery instant.
    IRONSAFE_COUNTER_ADD("server.sessions.injected_midstream_drops", 1);
    size_t drop_chunk = static_cast<size_t>(drop->param % plan.chunks);
    sim::SimNanos drop_at = start + plan.delivery_ns[drop_chunk];
    events_.Post(
        drop_at,
        [this, session_id = state.session_id, seq = state.seq,
         arrival = state.arrival_ns, sched_delay = state.sched_delay_ns,
         delivered = static_cast<uint32_t>(drop_chunk)](sim::SimNanos now) {
          std::lock_guard<std::mutex> lock(mu_);
          Session& session = sessions_.find(session_id)->second;
          if (!session.closed) {
            CloseSessionLocked(session, session_id,
                               "injected: session dropped midstream");
          }
          AbortLocked(
              session, seq,
              Status::Unavailable("injected: session dropped midstream"),
              sched_delay, now >= arrival ? now - arrival : 0, delivered);
        });
    return;
  }

  events_.Post(
      start + plan.duration_ns(),
      [this, session_id = state.session_id, seq = state.seq,
       arrival = state.arrival_ns, sched_delay = state.sched_delay_ns,
       stall = plan.stall_ns, chunks, frame = std::move(state.frame),
       cache_hit = state.response.plan_cache_hit,
       monitor_ns = state.response.monitor_ns,
       execution_ns = state.response.execution_ns](sim::SimNanos now) mutable {
        std::lock_guard<std::mutex> lock(mu_);
        DeliverLocked(sessions_.find(session_id)->second,
                      Completion{seq, Status::OK(), std::move(frame),
                                 sched_delay,
                                 now >= arrival ? now - arrival : 0, chunks,
                                 stall},
                      cache_hit, monitor_ns, execution_ns);
      });
}

std::optional<uint64_t> QueryService::AdvanceEncodeLocked(Session& session) {
  for (;;) {
    auto released = session.encode_released.find(session.next_encode_seq);
    if (released != session.encode_released.end()) {
      session.encode_released.erase(released);
      ++session.next_encode_seq;
      continue;
    }
    auto parked = session.parked_encode.find(session.next_encode_seq);
    if (parked != session.parked_encode.end()) {
      uint64_t token = parked->second;
      session.parked_encode.erase(parked);
      return token;
    }
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Shared helpers and lifecycle
// ---------------------------------------------------------------------------

void QueryService::AbortLocked(Session& session, uint64_t seq, Status why,
                               sim::SimNanos sched_delay, sim::SimNanos e2e,
                               uint32_t delivered_chunks) {
  StageCompletionLocked(session, Completion{seq, std::move(why), {},
                                            sched_delay, e2e,
                                            delivered_chunks, 0});
  ++stats_.statements_aborted;
  IRONSAFE_COUNTER_ADD("server.statements.aborted", 1);
}

void QueryService::DeliverLocked(Session& session, Completion completion,
                                 bool hit, sim::SimNanos monitor_ns,
                                 sim::SimNanos execution_ns) {
  StageCompletionLocked(session, std::move(completion));
  ++stats_.statements_executed;
  if (hit) {
    ++stats_.plan_cache_hits;
  } else {
    ++stats_.plan_cache_misses;
  }
  stats_.total_monitor_ns += monitor_ns;
  stats_.total_execution_ns += execution_ns;
  stats_.total_serve_ns = serve_cost_.elapsed_ns();
  IRONSAFE_COUNTER_ADD("server.statements.executed", 1);
}

void QueryService::StageCompletionLocked(Session& session,
                                         Completion completion) {
  // Ordered emitter: completions become visible in submission order no
  // matter which pipeline stage (or fault path) resolved them first.
  session.staged.emplace(completion.seq, std::move(completion));
  for (auto it = session.staged.begin();
       it != session.staged.end() && it->first == session.next_emit_seq;
       it = session.staged.begin()) {
    session.completions.push_back(std::move(it->second));
    session.staged.erase(it);
    ++session.next_emit_seq;
  }
}

void QueryService::EmitStageSpan(std::string_view name, sim::SimNanos start,
                                 sim::SimNanos end, int lane) {
  obs::Tracer* tracer = obs::CurrentTracer();
  if (tracer == nullptr) return;
  tracer->AddTimelineSpan(name, "server.pipeline", start, end, lane);
}

std::vector<Completion> QueryService::TakeCompletions(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Completion> out;
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return out;
  out.assign(std::make_move_iterator(it->second.completions.begin()),
             std::make_move_iterator(it->second.completions.end()));
  it->second.completions.clear();
  EraseIfFinishedLocked(it);
  return out;
}

size_t QueryService::Drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  size_t flushed = RunUntilIdle();
  IRONSAFE_COUNTER_ADD("server.drain.flushed", flushed);
  return flushed;
}

void QueryService::Shutdown() {
  Drain();
  std::lock_guard<std::mutex> dispatch_lock(dispatch_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  // The drain left nothing queued, so closing aborts no statement.
  for (auto& [id, session] : sessions_) {
    if (!session.closed) CloseSessionLocked(session, id, "service shut down");
  }
}

bool QueryService::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

QueryService::Stats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.sessions_held = sessions_.size();
  return out;
}

}  // namespace ironsafe::server
