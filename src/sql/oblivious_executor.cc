#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "sql/column_batch.h"
#include "sql/database.h"
#include "sql/exec_internal.h"
#include "sql/oblivious_kernels.h"

/// The oblivious execution mode (docs/OBLIVIOUS.md): one dummy-padded
/// pipeline next to the plain vectorized engine.
///
/// Obliviousness invariants, enforced at the page/batch/operator-event
/// granularity the access-trace harness observes (tests/oblivious_test.cc):
///  - scans read every morsel unit of each base table in order, with no
///    predicate pushdown narrowing what is fetched;
///  - filters never drop rows — they flip validity flags, so every
///    downstream pass keeps its shape, and conjuncts are never
///    short-circuited (the evaluation count per row is fixed);
///  - sorts run on a bitonic merge network whose compare-exchange
///    sequence is a pure function of the padded size;
///  - equi-joins are sort-merge over both *full* inputs — filtered-out
///    rows participate with their validity flag down, so the merge
///    structure depends only on the join-key multiplicity of the stored
///    data (public), never on predicate selectivity;
///  - aggregation output is padded to its worst-case bound (one group
///    per input row), with null-filled dummy rows for the slack.
/// Row-level arithmetic inside the simulated enclave (expression
/// evaluation, aggregate accumulation) is below this model's
/// granularity; the branch-free discipline is enforced mechanically for
/// the kernels in oblivious_kernels.* by ironsafe_lint.
namespace ironsafe::sql::exec {

namespace {

/// A dummy-padded relation: `rows` always carries well-typed data (real
/// scanned/joined tuples, or null-filled dummies after aggregation);
/// `valid[i]` says whether row i logically exists. Validity never drives
/// control flow inside the pipeline — only the final declassification
/// compacts on it.
struct ORel {
  Schema schema;
  std::vector<Row> rows;
  std::vector<uint8_t> valid;
};

uint64_t ORelBytes(const ORel& rel) {
  uint64_t total = 0;
  for (const Row& r : rel.rows) total += RowBytes(r);
  return total;
}

/// Pads `items` to the next power of two with default-constructed
/// sentinels (every sortable item type below defaults to pad = 1, which
/// all comparators order last), runs the bitonic network, charges the
/// exchange count and records the network's shape, then drops the
/// sentinels again. The whole access sequence is a function of
/// items->size() alone.
template <typename T, typename Cmp>
void SortNetwork(Ctx* ctx, std::vector<T>* items, const Cmp& cmp) {
  const size_t n = items->size();
  const size_t padded = NextPow2(std::max<size_t>(n, 1));
  items->resize(padded);
  uint64_t exchanges = BitonicSort(items, cmp);
  ctx->Charge(exchanges * kOblSortCmpCycles);
  ctx->RecordAccess(obs::AccessKind::kSortNetwork, padded, exchanges);
  items->resize(n);
}

int CompareU64(uint64_t a, uint64_t b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

// ---- Scan ----

struct OblScanSlice {
  std::vector<Row> rows;
  uint64_t rows_scanned = 0;
  uint64_t cycles = 0;
  std::optional<sim::CostModel> cost;
  obs::AccessLog access;
  Status status = Status::OK();
  uint64_t unit_begin = 0;
  uint64_t unit_end = 0;
  int64_t wall_start_us = 0;
  int64_t wall_end_us = 0;
};

/// Full-table morsel scan with no pushed filters: every unit is read in
/// table order regardless of values. Workers scan contiguous unit
/// ranges against private cost/access slices which merge in worker
/// order, so rows, charges and the unit-read event sequence are
/// identical for every real worker count. Every row is charged the same
/// flat constant — the `cached` decode discount is deliberately not
/// taken, so cost stays history-independent.
Status ScanTableOblivious(Ctx* ctx, Table* table, ORel* rel) {
  uint64_t units = table->morsel_units();
  if (units == 0) return Status::OK();  // empty table: nothing to read

  int workers = PlanWorkers(*ctx, units, kMinScanUnitsPerWorker);
  std::vector<OblScanSlice> slices(workers);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  const bool record = ctx->access != nullptr;
  obs::Tracer* tracer = ctx->traced ? obs::CurrentTracer() : nullptr;
  for (int w = 0; w < workers; ++w) {
    uint64_t begin = units * w / workers;
    uint64_t end = units * (w + 1) / workers;
    OblScanSlice* slice = &slices[w];
    slice->unit_begin = begin;
    slice->unit_end = end;
    if (ctx->cost != nullptr) slice->cost.emplace(ctx->cost->profile());
    tasks.push_back([table, record, begin, end, slice, tracer] {
      if (tracer != nullptr) slice->wall_start_us = tracer->WallNowUs();
      sim::CostModel* wcost = slice->cost ? &*slice->cost : nullptr;
      [&] {
        Row row;
        for (uint64_t unit = begin; unit < end; ++unit) {
          Result<DecodedMorsel> decoded = table->DecodeMorselBatch(unit, wcost);
          if (!decoded.ok()) {
            slice->status = decoded.status();
            return;
          }
          const auto& batch = decoded->batch;
          const uint64_t unit_rows = batch == nullptr ? 0 : batch->rows();
          for (size_t i = 0; i < unit_rows; ++i) {
            batch->MaterializeRow(i, &row);
            slice->rows.push_back(row);
          }
          slice->rows_scanned += unit_rows;
          slice->cycles += unit_rows * kOblScanRowCycles;
          if (record) {
            slice->access.Record(obs::AccessKind::kUnitRead, unit, unit_rows);
          }
        }
      }();
      if (tracer != nullptr) slice->wall_end_us = tracer->WallNowUs();
    });
  }

  table->BeginParallelScan(workers);
  common::ThreadPool::Shared().RunTasks(tasks);
  table->EndParallelScan();

  size_t total = rel->rows.size();
  for (const OblScanSlice& s : slices) total += s.rows.size();
  rel->rows.reserve(total);
  for (int w = 0; w < workers; ++w) {
    OblScanSlice& s = slices[w];
    RETURN_IF_ERROR(s.status);
    if (ctx->stats != nullptr) ctx->stats->rows_scanned += s.rows_scanned;
    ctx->Charge(s.cycles);
    if (ctx->cost != nullptr && s.cost.has_value()) {
      ctx->cost->MergeChild(*s.cost);
    }
    if (ctx->access != nullptr) ctx->access->Append(s.access);
    if (tracer != nullptr) {
      int64_t id = tracer->AddDetailSpan(
          "morsel", "sql", s.cost ? s.cost->elapsed_ns() : 0, w,
          s.wall_start_us, s.wall_end_us);
      tracer->AddTag(id, "worker", static_cast<int64_t>(w));
      tracer->AddTag(id, "unit_begin", static_cast<int64_t>(s.unit_begin));
      tracer->AddTag(id, "unit_end", static_cast<int64_t>(s.unit_end));
      tracer->AddTag(id, "rows_scanned", static_cast<int64_t>(s.rows_scanned));
    }
    for (Row& r : s.rows) rel->rows.push_back(std::move(r));
  }
  rel->valid.assign(rel->rows.size(), 1);
  return Status::OK();
}

/// Evaluates `exprs` on every row (valid and dummy alike, with no
/// short-circuiting, so the evaluation count per row is fixed) and ANDs
/// the outcome into the validity flags. Rows are never dropped.
Status MaskedFilterExprs(Ctx* ctx, ORel* rel,
                         const std::vector<const Expr*>& exprs) {
  if (exprs.empty()) return Status::OK();
  const size_t n = rel->rows.size();
  ctx->Charge(static_cast<uint64_t>(n) * exprs.size() * kOblFilterRowCycles);
  std::vector<uint8_t> pass(n, 1);
  for (size_t i = 0; i < n; ++i) {
    EvalScope scope{&rel->schema, &rel->rows[i], ctx->outer};
    for (const Expr* e : exprs) {
      ASSIGN_OR_RETURN(bool ok, ctx->eval->EvalBool(*e, scope));
      pass[i] = static_cast<uint8_t>(pass[i] & static_cast<uint8_t>(ok));
    }
  }
  MaskedFilterUpdate(&rel->valid, pass);
  ctx->RecordAccess(obs::AccessKind::kFilter, n, n);
  return Status::OK();
}

Result<ORel> ExecutePaddedPipeline(Database* db, const SelectStmt& stmt,
                                   const EvalScope* outer,
                                   sim::CostModel* cost,
                                   const ExecOptions& opts, ExecStats* stats);

Result<ORel> ScanRelationOblivious(Ctx* ctx, const TableRef& ref,
                                   std::vector<ConjunctInfo>* conjuncts) {
  StageSpan span(ctx, "scan");
  span.Tag("table", ref.subquery ? "derived:" + ref.alias : ref.table_name);
  ctx->RecordAccess(obs::AccessKind::kScanBegin);
  ORel rel;
  if (ref.subquery) {
    // Derived table: the subquery's *padded* relation flows through —
    // its width is shape-derived, so the outer pipeline never sees the
    // (value-dependent) compacted row count. As in the plain engine,
    // the inner pipeline charges the shared cost model but not the
    // outer ExecStats; the derived relation's valid rows count as
    // scanned.
    ASSIGN_OR_RETURN(ORel sub,
                     ExecutePaddedPipeline(ctx->db, *ref.subquery, ctx->outer,
                                           ctx->cost, ctx->opts,
                                           /*stats=*/nullptr));
    rel.schema = sub.schema.Qualified(ref.alias);
    rel.rows = std::move(sub.rows);
    rel.valid = std::move(sub.valid);
    if (ctx->stats != nullptr) {
      ctx->stats->rows_scanned += MaskedCount(rel.valid);
    }
    ctx->Charge(rel.rows.size() * kOblScanRowCycles);
  } else {
    ASSIGN_OR_RETURN(Table * t, ctx->db->GetTable(ref.table_name));
    rel.schema = t->schema().Qualified(ref.alias);
    RETURN_IF_ERROR(ScanTableOblivious(ctx, t, &rel));
  }

  // The conjuncts the plain engine pushes into the scan are applied here
  // as a validity mask instead — same consumption bookkeeping, but the
  // fetch above never depended on them.
  std::vector<const Expr*> filters;
  if (conjuncts != nullptr) {
    for (ConjunctInfo& info : *conjuncts) {
      if (info.consumed || info.has_subquery) continue;
      if (!info.columns.empty() && ResolvableBy(info.columns, rel.schema)) {
        filters.push_back(info.expr);
        info.consumed = true;
      }
    }
  }
  RETURN_IF_ERROR(MaskedFilterExprs(ctx, &rel, filters));
  span.Tag("rows_out", static_cast<int64_t>(rel.rows.size()));
  ctx->RecordAccess(obs::AccessKind::kScanEnd, rel.rows.size());
  return rel;
}

// ---- Join ----

struct EquiKey {
  const Expr* left_expr;
  const Expr* right_expr;
};

/// Sortable join-side item. Default-constructed items are network
/// padding and order last.
struct JoinItem {
  std::string key;
  uint64_t seq = 0;
  uint8_t pad = 1;
  uint8_t valid = 0;
  Row row;
};

int CompareJoinItems(const JoinItem& a, const JoinItem& b) {
  if (a.pad != b.pad) return a.pad < b.pad ? -1 : 1;
  int c = a.key.compare(b.key);
  if (c != 0) return c;
  return CompareU64(a.seq, b.seq);
}

/// Evaluates the equi-key expressions for every row of `rel` — valid
/// and invalid alike — into sortable items. Key expressions are
/// subquery-free by construction, so a runner-less evaluator suffices.
/// A row with a NULL key component can never match (NULL = x is
/// unknown): it keeps its place in the sort and merge, but its validity
/// flag is cleared branch-free.
Result<std::vector<JoinItem>> ComputeJoinItems(
    Ctx* ctx, const ORel& rel, const std::vector<const Expr*>& exprs) {
  std::vector<JoinItem> items(rel.rows.size());
  ctx->Charge(rel.rows.size() * kOblMergeRowCycles);
  Evaluator eval(nullptr);
  std::vector<Value> kv;
  for (size_t i = 0; i < rel.rows.size(); ++i) {
    EvalScope scope{&rel.schema, &rel.rows[i], ctx->outer};
    kv.clear();
    kv.reserve(exprs.size());
    uint8_t null_key = 0;
    for (const Expr* e : exprs) {
      ASSIGN_OR_RETURN(Value v, eval.Eval(*e, scope));
      null_key = static_cast<uint8_t>(null_key | uint8_t{v.is_null()});
      kv.push_back(std::move(v));
    }
    Bytes key = KeyOf(kv);
    items[i].key.assign(key.begin(), key.end());
    items[i].seq = i;
    items[i].pad = 0;
    items[i].valid = static_cast<uint8_t>(rel.valid[i] & (null_key ^ 1u));
    items[i].row = rel.rows[i];
  }
  return items;
}

/// Sort-merge join over both full inputs. Every row participates in the
/// sort and merge whether or not upstream filters invalidated it; an
/// output pair is valid only when both parents are. The merge structure
/// therefore depends on the stored data's join-key multiplicity (public
/// shape), never on predicate selectivity. Non-equi joins fall back to
/// the full cross product — all nl*nr pairs, validity-masked.
Result<ORel> JoinRelationsOblivious(Ctx* ctx, ORel left, ORel right,
                                    std::vector<ConjunctInfo>* conjuncts,
                                    const Expr* on) {
  StageSpan span(ctx, "join");
  span.Tag("left_rows", static_cast<int64_t>(left.rows.size()));
  span.Tag("right_rows", static_cast<int64_t>(right.rows.size()));
  ctx->RecordAccess(obs::AccessKind::kJoinBegin, left.rows.size(),
                    right.rows.size());
  Schema combined = Schema::Concat(left.schema, right.schema);

  std::vector<ConjunctInfo> on_infos = AnalyzeConjuncts(on);
  std::vector<ConjunctInfo*> applicable;
  for (ConjunctInfo& info : on_infos) applicable.push_back(&info);
  if (conjuncts != nullptr) {
    for (ConjunctInfo& info : *conjuncts) {
      if (info.consumed || info.has_subquery || info.columns.empty()) continue;
      if (ResolvableBy(info.columns, combined)) {
        applicable.push_back(&info);
        info.consumed = true;
      }
    }
  }

  std::vector<EquiKey> keys;
  std::vector<const Expr*> residual;
  for (ConjunctInfo* info : applicable) {
    const Expr* e = info->expr;
    bool is_equi = false;
    if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kEq) {
      std::set<std::string> lcols, rcols;
      bool lsub = false, rsub = false;
      CollectColumns(*e->left, &lcols, &lsub);
      CollectColumns(*e->right, &rcols, &rsub);
      if (!lsub && !rsub && !lcols.empty() && !rcols.empty()) {
        if (ResolvableBy(lcols, left.schema) &&
            ResolvableBy(rcols, right.schema)) {
          keys.push_back(EquiKey{e->left.get(), e->right.get()});
          is_equi = true;
        } else if (ResolvableBy(lcols, right.schema) &&
                   ResolvableBy(rcols, left.schema)) {
          keys.push_back(EquiKey{e->right.get(), e->left.get()});
          is_equi = true;
        }
      }
    }
    if (!is_equi) residual.push_back(e);
  }

  ctx->TrackMemory(ORelBytes(left) + ORelBytes(right));

  ORel out;
  out.schema = combined;
  span.Tag("kind", keys.empty() ? "nested-loop" : "sort-merge");
  if (!keys.empty()) {
    std::vector<const Expr*> left_exprs, right_exprs;
    left_exprs.reserve(keys.size());
    right_exprs.reserve(keys.size());
    for (const EquiKey& k : keys) {
      left_exprs.push_back(k.left_expr);
      right_exprs.push_back(k.right_expr);
    }
    ASSIGN_OR_RETURN(std::vector<JoinItem> litems,
                     ComputeJoinItems(ctx, left, left_exprs));
    ASSIGN_OR_RETURN(std::vector<JoinItem> ritems,
                     ComputeJoinItems(ctx, right, right_exprs));
    SortNetwork(ctx, &litems, CompareJoinItems);
    SortNetwork(ctx, &ritems, CompareJoinItems);

    // Group-wise merge in key order; within a key group pairs emit in
    // (left seq, right seq) order, so the output is deterministic.
    const size_t nl = litems.size();
    const size_t nr = ritems.size();
    size_t i = 0, j = 0;
    while (i < nl && j < nr) {
      int c = litems[i].key.compare(ritems[j].key);
      if (c < 0) {
        ++i;
        continue;
      }
      if (c > 0) {
        ++j;
        continue;
      }
      size_t i2 = i;
      while (i2 < nl && litems[i2].key == litems[i].key) ++i2;
      size_t j2 = j;
      while (j2 < nr && ritems[j2].key == ritems[j].key) ++j2;
      for (size_t li = i; li < i2; ++li) {
        for (size_t rj = j; rj < j2; ++rj) {
          Row joined = litems[li].row;
          joined.insert(joined.end(), ritems[rj].row.begin(),
                        ritems[rj].row.end());
          out.rows.push_back(std::move(joined));
          out.valid.push_back(
              static_cast<uint8_t>(litems[li].valid & ritems[rj].valid));
        }
      }
      i = i2;
      j = j2;
    }
    ctx->Charge((nl + nr + out.rows.size()) * kOblMergeRowCycles);
    ctx->RecordAccess(obs::AccessKind::kJoinMerge, out.rows.size(), 1);
  } else {
    // Cross product of both full inputs.
    out.rows.reserve(left.rows.size() * right.rows.size());
    for (size_t li = 0; li < left.rows.size(); ++li) {
      for (size_t rj = 0; rj < right.rows.size(); ++rj) {
        Row joined = left.rows[li];
        joined.insert(joined.end(), right.rows[rj].begin(),
                      right.rows[rj].end());
        out.rows.push_back(std::move(joined));
        out.valid.push_back(
            static_cast<uint8_t>(left.valid[li] & right.valid[rj]));
      }
    }
    ctx->Charge(out.rows.size() * kOblMergeRowCycles);
    ctx->RecordAccess(obs::AccessKind::kJoinMerge, out.rows.size(), 0);
  }

  RETURN_IF_ERROR(MaskedFilterExprs(ctx, &out, residual));
  span.Tag("rows_out", static_cast<int64_t>(out.rows.size()));
  ctx->RecordAccess(obs::AccessKind::kJoinEnd, out.rows.size(),
                    keys.empty() ? 0 : 1);
  return out;
}

// ---- Aggregation ----

struct AggState {
  double sum = 0;
  int64_t isum = 0;
  bool all_int = true;
  uint64_t count = 0;
  Value min, max;
  std::set<std::string> distinct;
};

Status AccumulateAgg(Ctx* ctx, const Schema& schema, const Row& row,
                     const std::vector<const Expr*>& aggs,
                     std::vector<AggState>* states) {
  EvalScope scope{&schema, &row, ctx->outer};
  for (size_t i = 0; i < aggs.size(); ++i) {
    const Expr* a = aggs[i];
    AggState& st = (*states)[i];
    if (a->agg_func == AggFunc::kCountStar) {
      ++st.count;
      continue;
    }
    ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*a->args[0], scope));
    if (v.is_null()) continue;
    if (a->distinct) {
      Bytes ser;
      v.Serialize(&ser);
      st.distinct.insert(std::string(ser.begin(), ser.end()));
      continue;
    }
    switch (a->agg_func) {
      case AggFunc::kCount:
        ++st.count;
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        ++st.count;
        st.sum += v.AsDouble();
        if (v.type() == Type::kInt64) {
          st.isum += v.AsInt();
        } else {
          st.all_int = false;
        }
        break;
      case AggFunc::kMin:
        if (st.count == 0 || v.Compare(st.min) < 0) st.min = v;
        ++st.count;
        break;
      case AggFunc::kMax:
        if (st.count == 0 || v.Compare(st.max) > 0) st.max = v;
        ++st.count;
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

Row FinalizeAgg(const std::vector<Value>& gvals,
                const std::vector<const Expr*>& aggs,
                std::vector<AggState>* states) {
  Row row = gvals;
  for (size_t i = 0; i < aggs.size(); ++i) {
    const Expr* a = aggs[i];
    AggState& st = (*states)[i];
    switch (a->agg_func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        row.push_back(Value::Int(
            a->distinct ? static_cast<int64_t>(st.distinct.size())
                        : static_cast<int64_t>(st.count)));
        break;
      case AggFunc::kSum:
        if (st.count == 0) {
          row.push_back(Value::Null());
        } else if (st.all_int) {
          row.push_back(Value::Int(st.isum));
        } else {
          row.push_back(Value::Double(st.sum));
        }
        break;
      case AggFunc::kAvg:
        row.push_back(st.count == 0
                          ? Value::Null()
                          : Value::Double(st.sum /
                                          static_cast<double>(st.count)));
        break;
      case AggFunc::kMin:
        row.push_back(st.count == 0 ? Value::Null() : st.min);
        break;
      case AggFunc::kMax:
        row.push_back(st.count == 0 ? Value::Null() : st.max);
        break;
    }
  }
  return row;
}

/// Sortable aggregation item; defaults are network padding.
struct AggItem {
  std::string key;
  uint64_t seq = 0;
  uint8_t pad = 1;
  uint8_t valid = 0;
  Row row;
  std::vector<Value> gvals;
};

int CompareAggItems(const AggItem& a, const AggItem& b) {
  if (a.pad != b.pad) return a.pad < b.pad ? -1 : 1;
  // Valid rows first so true groups are contiguous prefixes.
  if (a.valid != b.valid) return a.valid > b.valid ? -1 : 1;
  int c = a.key.compare(b.key);
  if (c != 0) return c;
  return CompareU64(a.seq, b.seq);
}

/// Oblivious grouped aggregation: sort all rows by (validity, group
/// key) on the network, then one fixed-length pass accumulates groups
/// and emits each group's result at its last position. The output is
/// padded to the worst-case bound — one group per input row — with
/// null-filled dummy rows for the slack; compacting the valid rows
/// yields exactly the plain engine's map-ordered output. A global
/// aggregate (no GROUP BY) has the public output width 1 and needs no
/// sort.
Result<ORel> AggregateOblivious(Ctx* ctx, ORel input, const SelectStmt& stmt,
                                std::map<std::string, const Expr*> agg_exprs) {
  ORel out;
  std::vector<const Expr*> group_exprs;
  for (const auto& g : stmt.group_by) group_exprs.push_back(g.get());
  for (const Expr* g : group_exprs) {
    out.schema.AddColumn(Column{g->ToString(), InferType(*g, input.schema)});
  }
  std::vector<const Expr*> aggs;
  for (const auto& [name, e] : agg_exprs) {
    aggs.push_back(e);
    out.schema.AddColumn(Column{name, InferType(*e, input.schema)});
  }

  const size_t n = input.rows.size();
  ctx->Charge(static_cast<uint64_t>(n) * kOblAggRowCycles);

  if (group_exprs.empty()) {
    // Global aggregate: one output row always exists, even over zero
    // valid inputs (matching the plain engine's empty-group special
    // case).
    std::vector<AggState> states(aggs.size());
    for (size_t i = 0; i < n; ++i) {
      if (!input.valid[i]) continue;
      RETURN_IF_ERROR(
          AccumulateAgg(ctx, input.schema, input.rows[i], aggs, &states));
    }
    out.rows.push_back(FinalizeAgg({}, aggs, &states));
    out.valid.push_back(1);
    ctx->RecordAccess(obs::AccessKind::kAggregate, n, 1);
    return out;
  }

  std::vector<AggItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    EvalScope scope{&input.schema, &input.rows[i], ctx->outer};
    std::vector<Value> gvals;
    gvals.reserve(group_exprs.size());
    for (const Expr* g : group_exprs) {
      ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*g, scope));
      gvals.push_back(std::move(v));
    }
    Bytes key = KeyOf(gvals);
    items[i].key.assign(key.begin(), key.end());
    items[i].seq = i;
    items[i].pad = 0;
    items[i].valid = input.valid[i];
    items[i].row = std::move(input.rows[i]);
    items[i].gvals = std::move(gvals);
  }
  SortNetwork(ctx, &items, CompareAggItems);

  const Row dummy(out.schema.size(), Value::Null());
  out.rows.assign(n, dummy);
  out.valid.assign(n, 0);
  std::vector<AggState> states;
  std::vector<Value> cur_gvals;
  for (size_t i = 0; i < n; ++i) {
    const AggItem& item = items[i];
    bool starts_group =
        item.valid != 0 && (i == 0 || items[i - 1].valid == 0 ||
                            items[i - 1].key != item.key);
    if (starts_group) {
      states.assign(aggs.size(), AggState{});
      cur_gvals = item.gvals;
    }
    if (item.valid != 0) {
      RETURN_IF_ERROR(
          AccumulateAgg(ctx, input.schema, item.row, aggs, &states));
    }
    bool ends_group =
        item.valid != 0 && (i + 1 == n || items[i + 1].valid == 0 ||
                            items[i + 1].key != item.key);
    if (ends_group) {
      out.rows[i] = FinalizeAgg(cur_gvals, aggs, &states);
      out.valid[i] = 1;
    }
  }
  ctx->RecordAccess(obs::AccessKind::kAggregate, n, n);
  return out;
}

// ---- Projection / DISTINCT / ORDER BY bundles ----

/// A projected output row bundled with its hidden ORDER BY keys and
/// provenance, sortable on the network; defaults are padding.
struct OutItem {
  Row row;
  std::vector<Value> hidden;
  std::vector<Value> order_keys;
  std::string dedupe_key;
  uint64_t seq = 0;
  uint8_t pad = 1;
  uint8_t valid = 0;
};

// ---- Pipeline ----

Result<ORel> ExecutePaddedPipeline(Database* db, const SelectStmt& stmt,
                                   const EvalScope* outer,
                                   sim::CostModel* cost,
                                   const ExecOptions& opts,
                                   ExecStats* stats) {
  if (stmt.from.empty()) {
    // A FROM-less derived table: one valid row, no storage touched, so
    // the scalar evaluation is trivially oblivious.
    ASSIGN_OR_RETURN(QueryResult scalar,
                     ExecuteSelectWithoutFrom(db, stmt, outer, cost, opts));
    return ORel{std::move(scalar.schema), std::move(scalar.rows), {1}};
  }
  Ctx ctx;
  ctx.db = db;
  ctx.cost = cost;
  ctx.opts = opts;
  ctx.stats = stats;
  ctx.outer = outer;
  ctx.runner = std::make_unique<ExecSubqueryRunner>(db, cost, opts);
  ctx.eval = std::make_unique<Evaluator>(ctx.runner.get());
  ctx.traced =
      opts.trace && cost != nullptr && obs::CurrentTracer() != nullptr;
  ctx.access = opts.trace ? obs::CurrentAccessLog() : nullptr;

  StageSpan select_span(&ctx, "select");
  ctx.RecordAccess(obs::AccessKind::kQueryBegin, 1);

  std::vector<ConjunctInfo> conjuncts = AnalyzeConjuncts(stmt.where.get());

  // 1. Scan the first relation, then fold in the rest.
  ASSIGN_OR_RETURN(ORel current,
                   ScanRelationOblivious(&ctx, stmt.from[0], &conjuncts));
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    ASSIGN_OR_RETURN(ORel next,
                     ScanRelationOblivious(&ctx, stmt.from[i], &conjuncts));
    ASSIGN_OR_RETURN(current,
                     JoinRelationsOblivious(&ctx, std::move(current),
                                            std::move(next), &conjuncts,
                                            nullptr));
  }
  for (const JoinClause& join : stmt.joins) {
    ASSIGN_OR_RETURN(ORel next,
                     ScanRelationOblivious(&ctx, join.table, &conjuncts));
    ASSIGN_OR_RETURN(current,
                     JoinRelationsOblivious(&ctx, std::move(current),
                                            std::move(next), &conjuncts,
                                            join.on.get()));
  }

  // 2. Residual predicates (incl. subquery predicates) as a mask.
  {
    std::vector<const Expr*> residual;
    for (ConjunctInfo& info : conjuncts) {
      if (!info.consumed) residual.push_back(info.expr);
    }
    if (!residual.empty()) {
      StageSpan filter_span(&ctx, "filter");
      filter_span.Tag("rows_in", static_cast<int64_t>(current.rows.size()));
      filter_span.Tag("predicates", static_cast<int64_t>(residual.size()));
      RETURN_IF_ERROR(MaskedFilterExprs(&ctx, &current, residual));
      filter_span.Tag("rows_out", static_cast<int64_t>(current.rows.size()));
    }
  }

  // 3. Aggregation.
  std::map<std::string, const Expr*> agg_exprs;
  for (const SelectItem& item : stmt.items) {
    CollectAggregates(*item.expr, &agg_exprs);
  }
  if (stmt.having) CollectAggregates(*stmt.having, &agg_exprs);
  for (const OrderItem& o : stmt.order_by) CollectAggregates(*o.expr, &agg_exprs);

  bool aggregated = !agg_exprs.empty() || !stmt.group_by.empty();
  std::set<std::string> rewrite_names;
  std::vector<SelectItem> items;
  ExprPtr having;
  std::vector<OrderItem> order_by;

  if (aggregated) {
    for (const auto& g : stmt.group_by) rewrite_names.insert(g->ToString());
    for (const auto& [name, e] : agg_exprs) rewrite_names.insert(name);
    {
      StageSpan agg_span(&ctx, "aggregate");
      agg_span.Tag("rows_in", static_cast<int64_t>(current.rows.size()));
      ASSIGN_OR_RETURN(current, AggregateOblivious(&ctx, std::move(current),
                                                   stmt, agg_exprs));
      agg_span.Tag("groups", static_cast<int64_t>(current.rows.size()));
    }
    for (const SelectItem& item : stmt.items) {
      items.push_back(SelectItem{RewriteToColumns(*item.expr, rewrite_names),
                                 item.alias});
    }
    if (stmt.having) having = RewriteToColumns(*stmt.having, rewrite_names);
    for (const OrderItem& o : stmt.order_by) {
      order_by.push_back(
          OrderItem{RewriteToColumns(*o.expr, rewrite_names), o.desc});
    }
  } else {
    for (const SelectItem& item : stmt.items) {
      items.push_back(SelectItem{item.expr->Clone(), item.alias});
    }
    if (stmt.having) {
      return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    for (const OrderItem& o : stmt.order_by) {
      order_by.push_back(OrderItem{o.expr->Clone(), o.desc});
    }
  }

  // 4. HAVING as a mask.
  if (having) {
    std::vector<const Expr*> having_exprs{having.get()};
    RETURN_IF_ERROR(MaskedFilterExprs(&ctx, &current, having_exprs));
  }

  // 5. Projection over every row, dummies included (dummy rows carry
  //    well-typed data — real tuples or nulls — so item expressions
  //    evaluate uniformly). Hidden ORDER BY keys ride along as in the
  //    plain engine.
  ORel projected;
  std::vector<std::vector<Value>> hidden_keys;
  std::vector<bool> order_from_input(order_by.size(), false);
  bool any_hidden = false;
  {
    StageSpan project_span(&ctx, "project");
    project_span.Tag("rows", static_cast<int64_t>(current.rows.size()));
    ctx.Charge(current.rows.size() * kOblProjectRowCycles);
    ctx.RecordAccess(obs::AccessKind::kProject, current.rows.size());
    bool star_only = items.size() == 1 && items[0].expr->kind == ExprKind::kStar;
    if (star_only) {
      projected.schema = current.schema;
      projected.rows = std::move(current.rows);
      projected.valid = std::move(current.valid);
    } else {
      for (const SelectItem& item : items) {
        if (item.expr->kind == ExprKind::kStar) {
          return Status::InvalidArgument(
              "* must be the only item in a SELECT list");
        }
        std::string name = item.alias;
        if (name.empty()) {
          if (item.expr->kind == ExprKind::kColumn) {
            const std::string& cn = item.expr->column_name;
            size_t dot = cn.rfind('.');
            name = dot == std::string::npos ? cn : cn.substr(dot + 1);
          } else {
            name = item.expr->ToString();
          }
        }
        projected.schema.AddColumn(
            Column{name, InferType(*item.expr, current.schema)});
      }
      for (size_t k = 0; k < order_by.size(); ++k) {
        std::set<std::string> cols;
        bool sub = false;
        CollectColumns(*order_by[k].expr, &cols, &sub);
        if (!ResolvableBy(cols, projected.schema)) order_from_input[k] = true;
      }
      any_hidden = std::any_of(order_from_input.begin(),
                               order_from_input.end(),
                               [](bool b) { return b; });
      for (size_t i = 0; i < current.rows.size(); ++i) {
        EvalScope scope{&current.schema, &current.rows[i], ctx.outer};
        Row out_row;
        out_row.reserve(items.size());
        for (const SelectItem& item : items) {
          ASSIGN_OR_RETURN(Value v, ctx.eval->Eval(*item.expr, scope));
          out_row.push_back(std::move(v));
        }
        if (any_hidden) {
          std::vector<Value> hk;
          for (size_t k = 0; k < order_by.size(); ++k) {
            if (!order_from_input[k]) continue;
            ASSIGN_OR_RETURN(Value v, ctx.eval->Eval(*order_by[k].expr, scope));
            hk.push_back(std::move(v));
          }
          hidden_keys.push_back(std::move(hk));
        }
        projected.rows.push_back(std::move(out_row));
        projected.valid.push_back(current.valid[i]);
      }
    }
  }

  // 6/7. DISTINCT and ORDER BY share one sortable bundle.
  const size_t n_out = projected.rows.size();
  if (stmt.distinct || !order_by.empty()) {
    std::vector<OutItem> bundle(n_out);
    for (size_t i = 0; i < n_out; ++i) {
      OutItem& it = bundle[i];
      it.seq = i;
      it.pad = 0;
      it.valid = projected.valid[i];
      it.row = std::move(projected.rows[i]);
      if (any_hidden && i < hidden_keys.size()) {
        it.hidden = std::move(hidden_keys[i]);
      }
      if (stmt.distinct) {
        Bytes key = KeyOf(it.row);
        it.dedupe_key.assign(key.begin(), key.end());
      }
    }

    if (stmt.distinct) {
      // Sort by the visible row so duplicates are adjacent, then mask
      // every valid repeat; the first of each run (lowest seq) wins. A
      // repeat compares against its predecessor's validity from before
      // this pass, so every later member of a run is masked too.
      auto cmp = [](const OutItem& a, const OutItem& b) {
        if (a.pad != b.pad) return a.pad < b.pad ? -1 : 1;
        if (a.valid != b.valid) return a.valid > b.valid ? -1 : 1;
        int c = a.dedupe_key.compare(b.dedupe_key);
        if (c != 0) return c;
        return CompareU64(a.seq, b.seq);
      };
      SortNetwork(&ctx, &bundle, cmp);
      uint8_t prev_valid = 0;
      for (size_t i = 0; i < bundle.size(); ++i) {
        const uint8_t valid = bundle[i].valid;
        bool dup = valid != 0 && prev_valid != 0 &&
                   bundle[i - 1].dedupe_key == bundle[i].dedupe_key;
        prev_valid = valid;
        if (dup) bundle[i].valid = 0;
      }
      ctx.RecordAccess(obs::AccessKind::kDistinct, bundle.size(),
                       bundle.size());
    }

    if (!order_by.empty()) {
      StageSpan sort_span(&ctx, "sort");
      sort_span.Tag("rows", static_cast<int64_t>(bundle.size()));
      for (size_t i = 0; i < bundle.size(); ++i) {
        OutItem& it = bundle[i];
        it.order_keys.clear();
        EvalScope scope{&projected.schema, &it.row, ctx.outer};
        size_t hidden_pos = 0;
        for (size_t k = 0; k < order_by.size(); ++k) {
          if (order_from_input[k]) {
            it.order_keys.push_back(it.hidden[hidden_pos++]);
            continue;
          }
          ASSIGN_OR_RETURN(Value v, ctx.eval->Eval(*order_by[k].expr, scope));
          it.order_keys.push_back(std::move(v));
        }
      }
      auto cmp = [&order_by](const OutItem& a, const OutItem& b) {
        if (a.pad != b.pad) return a.pad < b.pad ? -1 : 1;
        if (a.pad != 0) return 0;  // two padding items carry no keys
        if (a.valid != b.valid) return a.valid > b.valid ? -1 : 1;
        for (size_t k = 0; k < order_by.size(); ++k) {
          int c = a.order_keys[k].Compare(b.order_keys[k]);
          if (c != 0) return order_by[k].desc ? -c : c;
        }
        return CompareU64(a.seq, b.seq);
      };
      SortNetwork(&ctx, &bundle, cmp);
    }

    for (size_t i = 0; i < bundle.size(); ++i) {
      projected.rows[i] = std::move(bundle[i].row);
      projected.valid[i] = bundle[i].valid;
    }
    ctx.TrackMemory(ORelBytes(projected));
  }

  // 8. LIMIT: keep the first `limit` valid rows by mask.
  if (stmt.limit >= 0) {
    MaskedLimit(&projected.valid, static_cast<uint64_t>(stmt.limit));
  }

  select_span.Tag("rows_out", static_cast<int64_t>(projected.rows.size()));
  ctx.RecordAccess(obs::AccessKind::kResult, projected.rows.size());
  ctx.FlushCharges();
  return projected;
}

}  // namespace

Result<QueryResult> ExecuteSelectOblivious(Database* db,
                                           const SelectStmt& stmt,
                                           const EvalScope* outer,
                                           sim::CostModel* cost,
                                           const ExecOptions& opts,
                                           ExecStats* stats) {
  ASSIGN_OR_RETURN(ORel padded, ExecutePaddedPipeline(db, stmt, outer, cost,
                                                      opts, stats));
  // Declassification: compact the valid rows, in padded order. The
  // result width is the query's (public) answer size; everything before
  // this point had shape-only width.
  QueryResult result;
  result.schema = std::move(padded.schema);
  uint64_t valid = MaskedCount(padded.valid);
  result.rows.reserve(valid);
  for (size_t i = 0; i < padded.rows.size(); ++i) {
    if (padded.valid[i] != 0) result.rows.push_back(std::move(padded.rows[i]));
  }
  if (stats != nullptr) stats->rows_output += result.rows.size();
  return result;
}

}  // namespace ironsafe::sql::exec
