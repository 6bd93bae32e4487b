#ifndef IRONSAFE_SQL_EXEC_INTERNAL_H_
#define IRONSAFE_SQL_EXEC_INTERNAL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/access_trace.h"
#include "obs/trace.h"
#include "sql/executor.h"
#include "sql/schema.h"

/// Internals shared by the batch-at-a-time columnar engine
/// (vector_executor.cc) and the oblivious mode (oblivious_executor.cc):
/// conjunct analysis, expression rewriting, key normalization,
/// cost-charging context and stage spans. Not part of the public sql API.
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
  /// node); a subquery that fails without the outer scope is correlated
  /// and re-executes per outer row.
  Result<QueryResult> RunSubquery(const SelectStmt& stmt,
                                  const EvalScope* outer) override {
    auto it = cache_.find(&stmt);
    if (it != cache_.end()) return it->second;
    if (!correlated_.count(&stmt)) {
      auto r = ExecuteSelect(db_, stmt, nullptr, cost_, opts_);
      if (r.ok()) {
        cache_.emplace(&stmt, *r);
        return *r;
      }
      correlated_.insert(&stmt);
    }
    return ExecuteSelect(db_, stmt, outer, cost_, opts_);
  }

  bool IsCached(const SelectStmt& stmt) const override {
    return cache_.count(&stmt) > 0;
  }

 private:
  Database* db_;
  sim::CostModel* cost_;
  ExecOptions opts_;
  std::map<const SelectStmt*, QueryResult> cache_;
  std::set<const SelectStmt*> correlated_;
};

/// Shared execution state for one SELECT.
struct Ctx {
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

// ---- Expression analysis helpers (exec_internal.cc) ----

struct ConjunctInfo {
  const Expr* expr = nullptr;
  std::set<std::string> columns;
  bool has_subquery = false;
  bool consumed = false;
};

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out);
void CollectColumns(const Expr& e, std::set<std::string>* cols,
                    bool* has_subquery);
bool ResolvableBy(const std::set<std::string>& cols, const Schema& schema);
std::vector<ConjunctInfo> AnalyzeConjuncts(const Expr* where);
bool HasAggregate(const Expr& e);
void CollectAggregates(const Expr& e,
                       std::map<std::string, const Expr*>* aggs);

/// Clones `e`, replacing any subtree whose printed form is in `names`
/// with a column reference of that name (the post-aggregation schema
/// names its columns by printed expression).
ExprPtr RewriteToColumns(const Expr& e, const std::set<std::string>& names);

/// Best-effort static type inference for output schemas.
Type InferType(const Expr& e, const Schema& schema);

/// Normalized grouping/join key: numerics (except dates) collapse to the
/// double bit pattern so INT 3 and DOUBLE 3.0 group/join together;
/// everything else uses Value::Serialize. NULL encodes as a value, so
/// GROUP BY and DISTINCT put NULLs together; equi-joins must drop
/// NULL-keyed rows themselves (SQL: NULL = NULL is unknown).
Bytes KeyOf(const std::vector<Value>& values);

/// Number of workers for a parallelizable stage of `work` units. The
/// result depends only on the requested fan-out, the pool's worker cap
/// and the work size — never on thread scheduling — so the partition
/// (and therefore row order and merged cost) is reproducible.
int PlanWorkers(const Ctx& ctx, uint64_t work, uint64_t min_per_worker);

// ---- Engine entry points ----

/// SELECT without FROM: evaluates the items once against the outer
/// scope. Touches no storage, so the plain and oblivious pipelines share
/// it. The other entry points require a non-empty FROM.
Result<QueryResult> ExecuteSelectWithoutFrom(Database* db,
                                             const SelectStmt& stmt,
                                             const EvalScope* outer,
                                             sim::CostModel* cost,
                                             const ExecOptions& opts);

/// The batch-at-a-time columnar engine (vector_executor.cc).
Result<QueryResult> ExecuteSelectVectorized(Database* db,
                                            const SelectStmt& stmt,
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
