#ifndef IRONSAFE_SQL_EXEC_INTERNAL_H_
#define IRONSAFE_SQL_EXEC_INTERNAL_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/access_trace.h"
#include "obs/trace.h"
#include "sql/column_batch.h"
#include "sql/executor.h"
#include "sql/schema.h"
#include "sql/table.h"

/// One logical plan, two physical pipelines. Every planning decision of a
/// SELECT lives here, once: the execution context, the FROM/JOIN fold,
/// which WHERE conjuncts a scan claims, how join predicates split into
/// equi keys and residuals, the aggregation plan (aggregates, the
/// post-aggregation rewrite of items/HAVING/ORDER BY, the aggregate
/// output schema) and the aggregate fold itself (AggState), the
/// projection plan (output names and types, the `*`-only rule, hidden
/// ORDER BY keys), and the slice fan-out that parallel stages run on.
///
/// Only the physical operators differ. The plain pipeline
/// (vector_executor.cc) keeps column batches with selection vectors, scan
/// pushdown, a hash join and a typed SUM/AVG/COUNT fast path in front of
/// AggState. The oblivious pipeline (oblivious_executor.cc,
/// docs/OBLIVIOUS.md) keeps validity masks, full scans, bitonic sort
/// networks, the sort-merge join and padded aggregation. Not part of the
/// public sql API.
namespace ironsafe::sql::exec {

// Fan-out floors: below these per-worker shares, morsel overhead beats
// the parallel win, so the planner shrinks the worker count. Partition
// boundaries depend only on (work size, worker count), never on thread
// scheduling.
constexpr uint64_t kMinScanUnitsPerWorker = 2;
constexpr uint64_t kMinJoinRowsPerWorker = 512;

// Per-row / per-exchange constants of the oblivious mode
// (oblivious_executor.cc, docs/OBLIVIOUS.md). They sit above the plain
// engine's constants because every oblivious step also maintains
// validity flags and staging copies; the real overhead, though, comes
// from the shape-only bounds: full scans with no pushdown, padded
// filters/aggregates and O(n log^2 n) sort networks.
constexpr uint64_t kOblScanRowCycles = 200;
constexpr uint64_t kOblFilterRowCycles = 90;
constexpr uint64_t kOblSortCmpCycles = 120;
constexpr uint64_t kOblMergeRowCycles = 150;
constexpr uint64_t kOblAggRowCycles = 220;
constexpr uint64_t kOblProjectRowCycles = 130;

class ExecSubqueryRunner : public SubqueryRunner {
 public:
  ExecSubqueryRunner(Database* db, sim::CostModel* cost,
                     const ExecOptions& opts)
      : db_(db), cost_(cost), opts_(opts) {
    // Correlated subqueries re-execute per outer row; their stage spans
    // would dwarf the trace without adding structure.
    opts_.trace = false;
  }

  /// Uncorrelated subqueries execute once and are cached (keyed by AST
  /// node); every later call shares the cached result. A subquery that
  /// fails without the outer scope is correlated and re-executes per
  /// outer row.
  Result<std::shared_ptr<const QueryResult>> RunSubquery(
      const SelectStmt& stmt, const EvalScope* outer) override {
    auto it = cache_.find(&stmt);
    if (it != cache_.end()) return it->second;
    if (!correlated_.count(&stmt)) {
      auto r = ExecuteSelect(db_, stmt, nullptr, cost_, opts_);
      if (r.ok()) {
        auto shared = std::make_shared<const QueryResult>(std::move(*r));
        cache_.emplace(&stmt, shared);
        return shared;
      }
      correlated_.insert(&stmt);
    }
    ASSIGN_OR_RETURN(QueryResult result,
                     ExecuteSelect(db_, stmt, outer, cost_, opts_));
    return std::make_shared<const QueryResult>(std::move(result));
  }

  bool IsCached(const SelectStmt& stmt) const override {
    return cache_.count(&stmt) > 0;
  }

 private:
  Database* db_;
  sim::CostModel* cost_;
  ExecOptions opts_;
  std::map<const SelectStmt*, std::shared_ptr<const QueryResult>> cache_;
  std::set<const SelectStmt*> correlated_;
};

/// Shared execution state for one SELECT.
struct Ctx {
  /// Wires the subquery runner and evaluator; stage spans go to the
  /// thread's tracer and access events to its obs::AccessLog when
  /// options.trace asks for them.
  Ctx(Database* database, sim::CostModel* cost_model,
      const ExecOptions& options, ExecStats* exec_stats,
      const EvalScope* outer_scope);

  Database* db = nullptr;
  sim::CostModel* cost = nullptr;
  ExecOptions opts;
  ExecStats* stats = nullptr;
  const EvalScope* outer = nullptr;
  std::unique_ptr<ExecSubqueryRunner> runner;
  std::unique_ptr<Evaluator> eval;
  uint64_t pending_cycles = 0;
  /// True when stage spans go to the current thread's tracer. Untraced
  /// runs keep the seed behavior exactly: charges stay batched until the
  /// single flush at query end.
  bool traced = false;
  /// Non-null when access events are recorded (opts.trace on and an
  /// obs::AccessLog installed on the session thread). Subquery
  /// executions inherit trace=false from ExecSubqueryRunner and so are
  /// excluded, matching the span stream.
  obs::AccessLog* access = nullptr;

  void RecordAccess(obs::AccessKind kind, uint64_t a = 0, uint64_t b = 0) {
    if (access != nullptr) access->Record(kind, a, b);
  }

  void Charge(uint64_t cycles) { pending_cycles += cycles; }

  void FlushCharges() {
    if (cost != nullptr && pending_cycles > 0) {
      cost->ChargeParallelCycles(opts.site, pending_cycles, opts.parallelism);
    }
    pending_cycles = 0;
  }

  void TrackMemory(uint64_t bytes) {
    if (stats != nullptr) {
      stats->peak_memory_bytes = std::max(stats->peak_memory_bytes, bytes);
    }
    if (bytes > opts.memory_cap_bytes) {
      uint64_t overflow = bytes - opts.memory_cap_bytes;
      if (stats != nullptr) stats->spill_bytes += overflow;
      if (cost != nullptr) {
        // Spill: write the overflow out and read it back.
        cost->ChargeDiskWrite(overflow);
        cost->ChargeDiskRead(overflow);
      }
    }
  }
};

/// Pipeline-stage span. Batched CPU cycles are flushed to the cost model
/// on both edges so the span's simulated interval covers the stage's CPU
/// work. Flush points are stage boundaries — the same sequence for every
/// worker count — so traced runs stay deterministic; untraced runs skip
/// the flushes and match the seed's charging bit for bit.
class StageSpan {
 public:
  StageSpan(Ctx* ctx, std::string_view name) : ctx_(ctx) {
    if (ctx_->traced) {
      ctx_->FlushCharges();
      id_ = obs::CurrentTracer()->OpenSpan(name, "sql", ctx_->cost);
      open_ = true;
    }
  }
  ~StageSpan() { Close(); }

  void Close() {
    if (open_) {
      ctx_->FlushCharges();
      obs::CurrentTracer()->CloseSpan(id_, ctx_->cost);
      open_ = false;
    }
  }
  void Tag(std::string_view key, int64_t value) {
    if (open_) obs::CurrentTracer()->AddTag(id_, key, value);
  }
  void Tag(std::string_view key, std::string_view value) {
    if (open_) obs::CurrentTracer()->AddTag(id_, key, value);
  }

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Ctx* ctx_;
  int64_t id_ = -1;
  bool open_ = false;
};

/// Normalized grouping/join key: the AppendKey encodings of `values`,
/// concatenated. NULL encodes as a value, so GROUP BY and DISTINCT put
/// NULLs together; equi-joins must drop NULL-keyed rows themselves
/// (SQL: NULL = NULL is unknown).
Bytes KeyOf(const std::vector<Value>& values);

/// Number of workers for a parallelizable stage of `work` units. The
/// result depends only on the requested fan-out, the pool's worker cap
/// and the work size — never on thread scheduling — so the partition
/// (and therefore row order and merged cost) is reproducible.
int PlanWorkers(const Ctx& ctx, uint64_t work, uint64_t min_per_worker);

// ---- Slice fan-out (morsel scans, join-key evaluation) ----

/// One worker's contiguous share [begin, end) of a parallel stage. A
/// stage derives its slice type from this and adds its payload.
struct Slice {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t cycles = 0;
  /// Private cost model of a stage that touches storage; merged into the
  /// query's in slice order.
  std::optional<sim::CostModel> cost;
  Status status = Status::OK();
  int64_t wall_start_us = 0;
  int64_t wall_end_us = 0;
};

/// Splits `items` contiguously over the workers PlanWorkers grants for
/// `work` units.
template <typename S>
std::vector<S> PlanSlices(const Ctx& ctx, uint64_t items, uint64_t work,
                          uint64_t min_per_worker) {
  const uint64_t workers = PlanWorkers(ctx, work, min_per_worker);
  std::vector<S> slices(workers);
  for (uint64_t w = 0; w < workers; ++w) {
    slices[w].begin = items * w / workers;
    slices[w].end = items * (w + 1) / workers;
  }
  return slices;
}

/// Runs `body(&slice)` for every slice on the shared pool. A body
/// reports failure in slice->status; traced runs time each slice.
template <typename S, typename Body>
void RunSlices(const Ctx& ctx, std::vector<S>* slices, const Body& body) {
  obs::Tracer* tracer = ctx.traced ? obs::CurrentTracer() : nullptr;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(slices->size());
  for (S& slice : *slices) {
    S* s = &slice;
    tasks.push_back([s, tracer, &body] {
      if (tracer != nullptr) s->wall_start_us = tracer->WallNowUs();
      body(s);
      if (tracer != nullptr) s->wall_end_us = tracer->WallNowUs();
    });
  }
  common::ThreadPool::Shared().RunTasks(tasks);
}

/// Morsel-parallel scan of `table`: its units split contiguously over the
/// workers, each decoding its range in order against a private cost slice
/// and handing every decoded unit to `visit(&slice, unit, decoded)`,
/// which returns a Status. Returns the slices for MergeSlices.
template <typename S, typename Visit>
std::vector<S> ScanMorsels(const Ctx& ctx, Table* table, const Visit& visit) {
  const uint64_t units = table->morsel_units();
  auto slices = PlanSlices<S>(ctx, units, units, kMinScanUnitsPerWorker);
  if (ctx.cost != nullptr) {
    for (S& slice : slices) slice.cost.emplace(ctx.cost->profile());
  }
  table->BeginParallelScan(static_cast<int>(slices.size()));
  RunSlices(ctx, &slices, [table, &visit](S* slice) {
    sim::CostModel* wcost = slice->cost ? &*slice->cost : nullptr;
    for (uint64_t unit = slice->begin; unit < slice->end; ++unit) {
      Result<DecodedMorsel> decoded = table->DecodeMorselBatch(unit, wcost);
      Status s = decoded.ok() ? visit(slice, unit, *decoded) : decoded.status();
      if (!s.ok()) {
        slice->status = s;
        return;
      }
    }
  });
  table->EndParallelScan();
  return slices;
}

/// A slice's detail span; tags are dropped when the run is untraced.
struct DetailSpan {
  obs::Tracer* tracer = nullptr;
  int64_t id = -1;

  void Tag(std::string_view key, uint64_t value) const {
    if (tracer != nullptr) {
      tracer->AddTag(id, key, static_cast<int64_t>(value));
    }
  }
};

/// Simulated length of a slice's detail span: its cost slice's elapsed
/// time, or its cycles charged on a scratch model of the query's.
sim::SimNanos SliceSimNanos(const Ctx& ctx, const Slice& slice);

/// Merges the slices in slice order; the first failed slice's status is
/// returned. Each slice's cycles and cost model join the query's. A
/// traced run records one detail span `name` per slice, tagged worker,
/// `begin_tag` and `end_tag`. `merge(slice, span)` then takes the
/// slice's payload and adds its own tags.
template <typename S, typename Merge>
Status MergeSlices(Ctx* ctx, std::vector<S>* slices, std::string_view name,
                   std::string_view begin_tag, std::string_view end_tag,
                   const Merge& merge) {
  obs::Tracer* tracer = ctx->traced ? obs::CurrentTracer() : nullptr;
  for (size_t w = 0; w < slices->size(); ++w) {
    S& s = (*slices)[w];
    RETURN_IF_ERROR(s.status);
    ctx->Charge(s.cycles);
    if (ctx->cost != nullptr && s.cost.has_value()) {
      ctx->cost->MergeChild(*s.cost);
    }
    DetailSpan span;
    if (tracer != nullptr) {
      span = DetailSpan{
          tracer, tracer->AddDetailSpan(name, "sql", SliceSimNanos(*ctx, s),
                                        static_cast<int>(w), s.wall_start_us,
                                        s.wall_end_us)};
      span.Tag("worker", w);
      span.Tag(begin_tag, s.begin);
      span.Tag(end_tag, s.end);
    }
    merge(s, span);
  }
  return Status::OK();
}

// ---- The plain pipeline's join ----

/// The plain pipeline's join (vector_executor.cc): a hash join on the
/// equi keys ClassifyJoinPredicates finds, else a nested loop. Matches
/// are (batch, row) references; output batches gather their cells
/// column by column, cut at exactly ColumnBatch::kBatchRows rows, in
/// probe order then build order (left-major for the nested loop).
/// Residual predicates filter gathered candidate batches.
Result<VecRel> JoinRelationsVec(Ctx* ctx, VecRel left, VecRel right,
                                std::vector<ConjunctInfo>* conjuncts,
                                const Expr* on);

// ---- The logical plan ----

/// Folds FROM and JOIN left to right: `scan(ref)` reads each relation
/// (claiming its conjuncts), and `join(left, right, on)` joins it to the
/// relation so far; comma-separated relations join with no ON.
template <typename Rel, typename Scan, typename Join>
Result<Rel> FoldFromClause(const SelectStmt& stmt, const Scan& scan,
                           const Join& join) {
  ASSIGN_OR_RETURN(Rel current, scan(stmt.from[0]));
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    ASSIGN_OR_RETURN(Rel next, scan(stmt.from[i]));
    ASSIGN_OR_RETURN(current,
                     join(std::move(current), std::move(next), nullptr));
  }
  for (const JoinClause& clause : stmt.joins) {
    ASSIGN_OR_RETURN(Rel next, scan(clause.table));
    ASSIGN_OR_RETURN(current, join(std::move(current), std::move(next),
                                   clause.on.get()));
  }
  return current;
}

/// One equi-join key: `left_expr` reads the left input, `right_expr` the
/// right.
struct EquiKey {
  const Expr* left_expr;
  const Expr* right_expr;
};

struct JoinPredicates {
  std::vector<EquiKey> keys;
  std::vector<const Expr*> residual;
};

/// Splits a join's predicates — its ON conjuncts plus every unclaimed
/// subquery-free WHERE conjunct the joined schema resolves (claimed
/// here) — into equi keys and residuals. A subquery-free `a = b` whose
/// sides each read one input becomes a key; everything else is residual.
JoinPredicates ClassifyJoinPredicates(const Schema& left,
                                      const Schema& right, const Expr* on,
                                      std::vector<ConjunctInfo>* conjuncts);

/// The aggregation half of the plan.
struct AggPlan {
  /// GROUP BY or any aggregate in the items, HAVING or ORDER BY.
  bool aggregated = false;
  std::vector<const Expr*> group_exprs;
  /// Each distinct aggregate once, ordered by printed form.
  std::vector<const Expr*> aggs;
  /// The printed form of each aggregate: its output column's name.
  std::vector<std::string> agg_names;
  /// Items, HAVING and ORDER BY as evaluated after aggregation: over the
  /// aggregate output columns when aggregated, plain clones otherwise.
  std::vector<SelectItem> items;
  ExprPtr having;
  std::vector<OrderItem> order_by;

  /// The aggregation's output schema over `input`: group keys, then
  /// aggregates, each named by its printed form.
  Schema OutputSchema(const Schema& input) const;
};

/// Fails with InvalidArgument when HAVING appears without aggregation.
Result<AggPlan> PlanAggregation(const SelectStmt& stmt);

/// Running state of one aggregate over one group.
struct AggState {
  double sum = 0;
  int64_t isum = 0;
  bool all_int = true;
  uint64_t count = 0;
  Value min, max;
  std::set<std::string> distinct;

  /// Folds one input row's argument value (COUNT(*) ignores it). NULLs
  /// are skipped; SUM stays integral while every input is INT.
  void Add(const Expr& agg, const Value& v);
  /// The aggregate's result; SUM, AVG, MIN and MAX of no input are NULL.
  Value Finalize(const Expr& agg) const;
};

/// A finished group's output row: its key values, then each aggregate.
Row FinalizeGroup(const std::vector<Value>& gvals,
                  const std::vector<const Expr*>& aggs,
                  const std::vector<AggState>& states);

/// The projection half of the plan.
struct ProjectionPlan {
  /// SELECT *: rows pass through under the input schema.
  bool star_only = false;
  Schema schema;
  /// Per ORDER BY key: true when it reads input columns the output does
  /// not carry, so the projection evaluates it as a hidden key.
  std::vector<bool> order_from_input;
  bool any_hidden = false;
};

/// Names and types the output columns (alias, else the bare column
/// name, else the printed expression) and finds the hidden ORDER BY
/// keys. Fails when `*` is not the only item.
Result<ProjectionPlan> PlanProjection(const std::vector<SelectItem>& items,
                                      const std::vector<OrderItem>& order_by,
                                      const Schema& input);

/// One output row's ORDER BY values: hidden keys come from `hidden` in
/// order, the others evaluate over the output row.
Result<std::vector<Value>> OrderKeys(Ctx* ctx,
                                     const std::vector<OrderItem>& order_by,
                                     const ProjectionPlan& plan,
                                     const Row& row,
                                     const std::vector<Value>& hidden);

// ---- Engine entry points ----

/// SELECT without FROM: evaluates the items once against the outer
/// scope. Touches no storage, so the plain and oblivious pipelines share
/// it. The other entry points require a non-empty FROM.
Result<QueryResult> ExecuteSelectWithoutFrom(Database* db,
                                             const SelectStmt& stmt,
                                             const EvalScope* outer,
                                             sim::CostModel* cost,
                                             const ExecOptions& opts);

/// The batch-at-a-time columnar engine (vector_executor.cc); its result
/// is units, not rows (ExecuteSelectBatches).
Result<VecRel> ExecuteSelectVectorized(Database* db, const SelectStmt& stmt,
                                       const EvalScope* outer,
                                       sim::CostModel* cost,
                                       const ExecOptions& opts,
                                       ExecStats* stats);

/// The oblivious mode (oblivious_executor.cc): one dummy-padded pipeline
/// whose access trace and cost depend only on input shapes.
Result<QueryResult> ExecuteSelectOblivious(Database* db,
                                           const SelectStmt& stmt,
                                           const EvalScope* outer,
                                           sim::CostModel* cost,
                                           const ExecOptions& opts,
                                           ExecStats* stats);

}  // namespace ironsafe::sql::exec

#endif  // IRONSAFE_SQL_EXEC_INTERNAL_H_
