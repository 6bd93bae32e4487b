#include <algorithm>
#include <string>
#include <utility>
#include <vector>

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

struct OblScanSlice : Slice {
  std::vector<Row> rows;
  uint64_t rows_scanned = 0;
  obs::AccessLog access;
};

/// Full-table morsel scan with no pushed filters: every unit is read in
/// table order regardless of values. Workers scan contiguous unit
/// ranges against private cost/access slices which merge in worker
/// order, so rows, charges and the unit-read event sequence are
/// identical for every real worker count. Every row is charged the same
/// flat constant — the `cached` decode discount is deliberately not
/// taken, so cost stays history-independent.
Status ScanTableOblivious(Ctx* ctx, Table* table, ORel* rel) {
  const uint64_t units = table->morsel_units();
  if (units == 0) return Status::OK();  // empty table: nothing to read

  const bool record = ctx->access != nullptr;
  auto slices = ScanMorsels<OblScanSlice>(
      *ctx, table,
      [record](OblScanSlice* slice, uint64_t unit,
               const DecodedMorsel& decoded) {
        const auto& batch = decoded.batch;
        const uint64_t unit_rows = batch == nullptr ? 0 : batch->rows();
        Row row;
        for (size_t i = 0; i < unit_rows; ++i) {
          batch->MaterializeRow(i, &row);
          slice->rows.push_back(row);
        }
        slice->rows_scanned += unit_rows;
        slice->cycles += unit_rows * kOblScanRowCycles;
        if (record) {
          slice->access.Record(obs::AccessKind::kUnitRead, unit, unit_rows);
        }
        return Status::OK();
      });

  size_t total = rel->rows.size();
  for (const OblScanSlice& s : slices) total += s.rows.size();
  rel->rows.reserve(total);
  RETURN_IF_ERROR(MergeSlices(
      ctx, &slices, "morsel", "unit_begin", "unit_end",
      [&](OblScanSlice& s, const DetailSpan& span) {
        if (ctx->stats != nullptr) ctx->stats->rows_scanned += s.rows_scanned;
        if (ctx->access != nullptr) ctx->access->Append(s.access);
        span.Tag("rows_scanned", s.rows_scanned);
        for (Row& r : s.rows) rel->rows.push_back(std::move(r));
      }));
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

  // The conjuncts this scan claims — the ones the plain engine pushes
  // into its scan — apply here as a validity mask instead; the fetch
  // above never depended on them.
  RETURN_IF_ERROR(
      MaskedFilterExprs(ctx, &rel, ClaimScanFilters(rel.schema, conjuncts)));
  span.Tag("rows_out", static_cast<int64_t>(rel.rows.size()));
  ctx->RecordAccess(obs::AccessKind::kScanEnd, rel.rows.size());
  return rel;
}

// ---- Join ----

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

  JoinPredicates preds =
      ClassifyJoinPredicates(left.schema, right.schema, on, conjuncts);
  const std::vector<EquiKey>& keys = preds.keys;

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

  RETURN_IF_ERROR(MaskedFilterExprs(ctx, &out, preds.residual));
  span.Tag("rows_out", static_cast<int64_t>(out.rows.size()));
  ctx->RecordAccess(obs::AccessKind::kJoinEnd, out.rows.size(),
                    keys.empty() ? 0 : 1);
  return out;
}

// ---- Aggregation ----

Status AccumulateAgg(Ctx* ctx, const Schema& schema, const Row& row,
                     const std::vector<const Expr*>& aggs,
                     std::vector<AggState>* states) {
  EvalScope scope{&schema, &row, ctx->outer};
  for (size_t i = 0; i < aggs.size(); ++i) {
    const Expr* a = aggs[i];
    Value v;
    if (a->agg_func != AggFunc::kCountStar) {
      ASSIGN_OR_RETURN(v, ctx->eval->Eval(*a->args[0], scope));
    }
    (*states)[i].Add(*a, v);
  }
  return Status::OK();
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
Result<ORel> AggregateOblivious(Ctx* ctx, ORel input, const AggPlan& plan) {
  const std::vector<const Expr*>& group_exprs = plan.group_exprs;
  const std::vector<const Expr*>& aggs = plan.aggs;
  ORel out;
  out.schema = plan.OutputSchema(input.schema);

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
    out.rows.push_back(FinalizeGroup({}, aggs, states));
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
      out.rows[i] = FinalizeGroup(cur_gvals, aggs, states);
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
  Ctx ctx(db, cost, opts, stats, outer);
  StageSpan select_span(&ctx, "select");
  ctx.RecordAccess(obs::AccessKind::kQueryBegin, 1);

  std::vector<ConjunctInfo> conjuncts = AnalyzeConjuncts(stmt.where.get());

  // 1. Scan the first relation, then fold in the rest.
  ASSIGN_OR_RETURN(
      ORel current,
      FoldFromClause<ORel>(
          stmt,
          [&](const TableRef& ref) {
            return ScanRelationOblivious(&ctx, ref, &conjuncts);
          },
          [&](ORel left, ORel right, const Expr* on) {
            return JoinRelationsOblivious(&ctx, std::move(left),
                                          std::move(right), &conjuncts, on);
          }));

  // 2. Residual predicates (incl. subquery predicates) as a mask.
  {
    std::vector<const Expr*> residual = UnclaimedConjuncts(conjuncts);
    if (!residual.empty()) {
      StageSpan filter_span(&ctx, "filter");
      filter_span.Tag("rows_in", static_cast<int64_t>(current.rows.size()));
      filter_span.Tag("predicates", static_cast<int64_t>(residual.size()));
      RETURN_IF_ERROR(MaskedFilterExprs(&ctx, &current, residual));
      filter_span.Tag("rows_out", static_cast<int64_t>(current.rows.size()));
    }
  }

  // 3. Aggregation.
  ASSIGN_OR_RETURN(AggPlan plan, PlanAggregation(stmt));
  if (plan.aggregated) {
    StageSpan agg_span(&ctx, "aggregate");
    agg_span.Tag("rows_in", static_cast<int64_t>(current.rows.size()));
    ASSIGN_OR_RETURN(current,
                     AggregateOblivious(&ctx, std::move(current), plan));
    agg_span.Tag("groups", static_cast<int64_t>(current.rows.size()));
  }
  const std::vector<OrderItem>& order_by = plan.order_by;

  // 4. HAVING as a mask.
  if (plan.having) {
    std::vector<const Expr*> having_exprs{plan.having.get()};
    RETURN_IF_ERROR(MaskedFilterExprs(&ctx, &current, having_exprs));
  }

  // 5. Projection over every row, dummies included (dummy rows carry
  //    well-typed data — real tuples or nulls — so item expressions
  //    evaluate uniformly). Hidden ORDER BY keys ride along as in the
  //    plain engine.
  ORel projected;
  ProjectionPlan proj;
  std::vector<std::vector<Value>> hidden_keys;
  {
    StageSpan project_span(&ctx, "project");
    project_span.Tag("rows", static_cast<int64_t>(current.rows.size()));
    ctx.Charge(current.rows.size() * kOblProjectRowCycles);
    ctx.RecordAccess(obs::AccessKind::kProject, current.rows.size());
    ASSIGN_OR_RETURN(proj,
                     PlanProjection(plan.items, order_by, current.schema));
    projected.schema = proj.schema;
    if (proj.star_only) {
      projected.rows = std::move(current.rows);
      projected.valid = std::move(current.valid);
    } else {
      for (size_t i = 0; i < current.rows.size(); ++i) {
        EvalScope scope{&current.schema, &current.rows[i], ctx.outer};
        Row out_row;
        out_row.reserve(plan.items.size());
        for (const SelectItem& item : plan.items) {
          ASSIGN_OR_RETURN(Value v, ctx.eval->Eval(*item.expr, scope));
          out_row.push_back(std::move(v));
        }
        if (proj.any_hidden) {
          std::vector<Value> hk;
          for (size_t k = 0; k < order_by.size(); ++k) {
            if (!proj.order_from_input[k]) continue;
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
      if (proj.any_hidden && i < hidden_keys.size()) {
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
      for (OutItem& it : bundle) {
        ASSIGN_OR_RETURN(it.order_keys,
                         OrderKeys(&ctx, order_by, proj, it.row, it.hidden));
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
