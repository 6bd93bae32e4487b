#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <unordered_map>

#include "sql/database.h"
#include "sql/exec_internal.h"
#include "sql/vector_eval.h"

namespace ironsafe::sql {

namespace exec {

namespace {

// Per-active-row work constants (cycles) of the plain engine; relative
// magnitudes matter, not the absolute values. A batch kernel touches a
// dense payload array instead of boxing every cell, so the per-row
// prices are low. Per-batch overhead covers the kernel dispatch and
// selection-vector bookkeeping. The charges are flat per active row
// regardless of whether a kernel or the scalar fallback ran, keeping
// cost totals independent of fast-path coverage.
constexpr uint64_t kVecDecodeRowCycles = 60;        ///< fresh page decode
constexpr uint64_t kVecDecodeCachedRowCycles = 10;  ///< page-cache hit
constexpr uint64_t kVecFilterRowCycles = 24;
constexpr uint64_t kVecJoinBuildRowCycles = 60;
constexpr uint64_t kVecJoinProbeRowCycles = 80;
constexpr uint64_t kVecAggRowCycles = 70;
constexpr uint64_t kVecProjectRowCycles = 40;
constexpr uint64_t kVecGatherRowCycles = 12;  ///< per materialized row
constexpr uint64_t kVecBatchCycles = 256;     ///< per batch per operator pass
constexpr uint64_t kSortCmpCycles = 90;       ///< per ORDER BY comparison

SelVec FullSel(size_t n) {
  SelVec sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

/// Appends `rows` to `rel` as fresh kBatchRows-sized batches (full
/// selection).
void AppendRowBatches(const std::vector<Row>& rows, VecRel* rel) {
  for (size_t begin = 0; begin < rows.size();
       begin += ColumnBatch::kBatchRows) {
    size_t end = std::min(rows.size(), begin + ColumnBatch::kBatchRows);
    auto batch = std::make_shared<ColumnBatch>(rel->schema.size());
    for (size_t r = begin; r < end; ++r) batch->AppendRow(rows[r]);
    rel->batches.push_back(VecBatch{std::move(batch), FullSel(end - begin)});
  }
}

/// Appends the rows `refs`, in order, to `rel` as fresh kBatchRows-sized
/// batches (full selection), each gathered column by column.
void GatherUnits(const std::vector<RowRef>& refs, VecRel* rel) {
  const std::span<const RowRef> all(refs);
  for (size_t begin = 0; begin < refs.size();
       begin += ColumnBatch::kBatchRows) {
    const size_t n = std::min(refs.size() - begin, ColumnBatch::kBatchRows);
    rel->batches.push_back(
        VecBatch{ColumnBatch::Gather(all.subspan(begin, n), rel->schema.size()),
                 FullSel(n)});
  }
}

/// The active rows of `rel`, in order.
std::vector<RowRef> ActiveRefs(const VecRel& rel) {
  std::vector<RowRef> refs;
  refs.reserve(rel.ActiveRows());
  for (const VecBatch& b : rel.batches) {
    for (uint32_t r : b.sel) refs.push_back(RowRef{b.batch.get(), r});
  }
  return refs;
}

// ---- Scan ----

struct VecScanSlice : Slice {
  std::vector<VecBatch> batches;
  uint64_t rows_scanned = 0;
};

/// Morsel-parallel batch scan: each worker decodes the batches of its
/// contiguous unit range (page-cache hits charge the cheap constant)
/// and narrows their selections with the pushed filters, all
/// against a private cost slice; slices merge in range order. Batch
/// boundaries are unit boundaries, so batch contents, charges and the
/// merged batch order depend only on the table — never the worker count.
Status ScanTableBatches(Ctx* ctx, Table* table,
                        const std::vector<const Expr*>& filters,
                        VecRel* rel) {
  auto slices = ScanMorsels<VecScanSlice>(
      *ctx, table,
      [&](VecScanSlice* slice, uint64_t, const DecodedMorsel& decoded) {
        const auto& batch = decoded.batch;
        if (batch == nullptr || batch->rows() == 0) return Status::OK();
        // Pushed-down filters are subquery-free, so a runner-less
        // evaluator backs the kernel fallback.
        Evaluator fallback(nullptr);
        VectorEvaluator veval(&fallback, &rel->schema, ctx->outer);
        size_t n = batch->rows();
        slice->rows_scanned += n;
        slice->cycles += kVecBatchCycles +
                         n * (decoded.cached ? kVecDecodeCachedRowCycles
                                             : kVecDecodeRowCycles);
        SelVec sel = FullSel(n);
        for (const Expr* f : filters) {
          slice->cycles += kVecBatchCycles + sel.size() * kVecFilterRowCycles;
          RETURN_IF_ERROR(veval.Filter(*f, *batch, &sel));
          if (sel.empty()) break;
        }
        if (!sel.empty()) {
          slice->batches.push_back(VecBatch{batch, std::move(sel)});
        }
        return Status::OK();
      });

  return MergeSlices(
      ctx, &slices, "morsel", "unit_begin", "unit_end",
      [&](VecScanSlice& s, const DetailSpan& span) {
        if (ctx->stats != nullptr) ctx->stats->rows_scanned += s.rows_scanned;
        if (span.tracer != nullptr) {
          uint64_t kept = 0;
          for (const VecBatch& b : s.batches) kept += b.active();
          span.Tag("rows_scanned", s.rows_scanned);
          span.Tag("rows_kept", kept);
          span.Tag("cycles", s.cycles);
          if (s.cost.has_value()) {
            span.Tag("pages_decrypted", s.cost->pages_decrypted());
          }
        }
        for (VecBatch& b : s.batches) rel->batches.push_back(std::move(b));
      });
}

Result<VecRel> ScanRelationVec(Ctx* ctx, const TableRef& ref,
                               std::vector<ConjunctInfo>* conjuncts) {
  StageSpan span(ctx, "scan");
  span.Tag("table", ref.subquery ? "derived:" + ref.alias : ref.table_name);
  ctx->RecordAccess(obs::AccessKind::kScanBegin);
  VecRel rel;
  VecRel source;
  Table* table = nullptr;
  if (ref.subquery) {
    ASSIGN_OR_RETURN(source,
                     ExecuteSelectBatches(ctx->db, *ref.subquery, ctx->outer,
                                          ctx->cost, ctx->opts));
    rel.schema = source.schema.Qualified(ref.alias);
  } else {
    ASSIGN_OR_RETURN(Table * t, ctx->db->GetTable(ref.table_name));
    table = t;
    rel.schema = table->schema().Qualified(ref.alias);
  }

  std::vector<const Expr*> filters = ClaimScanFilters(rel.schema, conjuncts);

  if (table != nullptr && table->morsel_units() > 0) {
    RETURN_IF_ERROR(ScanTableBatches(ctx, table, filters, &rel));
  } else if (table != nullptr) {
    // Empty table: nothing to decode.
  } else {
    // Derived table: re-batch the subquery output, then filter.
    GatherUnits(ActiveRefs(source), &rel);
    if (ctx->stats != nullptr) ctx->stats->rows_scanned += rel.ActiveRows();
    Evaluator fallback(nullptr);
    VectorEvaluator veval(&fallback, &rel.schema, ctx->outer);
    std::vector<VecBatch> kept;
    for (VecBatch& b : rel.batches) {
      ctx->Charge(kVecBatchCycles + b.active() * kVecDecodeRowCycles);
      for (const Expr* f : filters) {
        ctx->Charge(kVecBatchCycles + b.active() * kVecFilterRowCycles);
        RETURN_IF_ERROR(veval.Filter(*f, *b.batch, &b.sel));
        if (b.sel.empty()) break;
      }
      if (!b.sel.empty()) kept.push_back(std::move(b));
    }
    rel.batches = std::move(kept);
  }
  span.Tag("rows_out", static_cast<int64_t>(rel.ActiveRows()));
  // Active rows after pushdown: the plain engine's first selectivity leak.
  ctx->RecordAccess(obs::AccessKind::kScanEnd, rel.ActiveRows());
  return rel;
}

// ---- Join ----

/// Normalized join keys of every active row of `rel`, one string per
/// active row in batch order; a row with any NULL key component gets the
/// empty string, which no join matches (NULL = x is unknown). Batches
/// are partitioned contiguously across workers; key expressions are
/// subquery-free, so workers use private runner-less evaluators and
/// write disjoint output slots.
Result<std::vector<std::vector<std::string>>> ComputeBatchKeys(
    Ctx* ctx, const VecRel& rel, const std::vector<const Expr*>& exprs,
    uint64_t per_row_cycles) {
  size_t nbatches = rel.batches.size();
  std::vector<std::vector<std::string>> out(nbatches);
  auto slices = PlanSlices<Slice>(*ctx, nbatches, rel.ActiveRows(),
                                  kMinJoinRowsPerWorker);
  RunSlices(*ctx, &slices, [&](Slice* slice) {
    Evaluator fallback(nullptr);
    VectorEvaluator veval(&fallback, &rel.schema, ctx->outer);
    std::vector<VecCol> cols(exprs.size());
    Bytes key;
    for (size_t bi = slice->begin; bi < slice->end; ++bi) {
      const VecBatch& b = rel.batches[bi];
      size_t n = b.active();
      slice->cycles += kVecBatchCycles + n * per_row_cycles;
      for (size_t e = 0; e < exprs.size(); ++e) {
        Status s = veval.Eval(*exprs[e], *b.batch, b.sel, &cols[e]);
        if (!s.ok()) {
          slice->status = s;
          return;
        }
      }
      std::vector<std::string>& keys = out[bi];
      keys.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        key.clear();
        bool null_key = false;
        for (const VecCol& c : cols) {
          null_key = null_key ||
                     (c.kind == VecCol::Kind::kGeneric && c.vals[i].is_null());
          AppendNormalizedKey(c, i, &key);
        }
        if (null_key) key.clear();
        keys.emplace_back(key.begin(), key.end());
      }
    }
  });
  RETURN_IF_ERROR(MergeSlices(
      ctx, &slices, "join-keys", "batch_begin", "batch_end",
      [](Slice& s, const DetailSpan& span) { span.Tag("cycles", s.cycles); }));
  return out;
}

/// Gathers a join's matches into output batches of exactly kBatchRows
/// emitted rows, in match order. Matches queue as candidates; with
/// residual predicates, each kBatchRows of them gather into a candidate
/// batch whose selection every residual narrows as a filter does
/// (unknown drops the pair), and only the survivors are emitted.
struct JoinEmitter {
  Ctx* ctx;
  const std::vector<const Expr*>& residual;
  size_t left_cols;
  VecRel* out;
  VectorEvaluator veval;
  std::vector<RowPair> candidates = {};
  std::vector<RowPair> emitted = {};

  Status Add(RowRef left, RowRef right) {
    candidates.push_back(RowPair{left, right});
    return candidates.size() == ColumnBatch::kBatchRows ? Drain()
                                                         : Status::OK();
  }

  /// Emits the surviving candidates; `last` also cuts the final unit.
  Status Drain(bool last = false) {
    SelVec sel = FullSel(candidates.size());
    if (!residual.empty() && !sel.empty()) {
      auto batch = Gather(candidates);
      for (const Expr* e : residual) {
        ctx->Charge(sel.size() * kVecFilterRowCycles);
        RETURN_IF_ERROR(veval.Filter(*e, *batch, &sel));
      }
    }
    ctx->Charge(sel.size() * kVecGatherRowCycles);
    for (uint32_t i : sel) {
      emitted.push_back(candidates[i]);
      if (emitted.size() == ColumnBatch::kBatchRows) Cut();
    }
    candidates.clear();
    if (last && !emitted.empty()) Cut();
    return Status::OK();
  }

  std::shared_ptr<const ColumnBatch> Gather(const std::vector<RowPair>& p) {
    return ColumnBatch::GatherPairs(p, left_cols,
                                    out->schema.size() - left_cols);
  }

  void Cut() {
    out->batches.push_back(VecBatch{Gather(emitted), FullSel(emitted.size())});
    emitted.clear();
  }
};

}  // namespace

Result<VecRel> JoinRelationsVec(Ctx* ctx, VecRel left, VecRel right,
                                std::vector<ConjunctInfo>* conjuncts,
                                const Expr* on) {
  StageSpan span(ctx, "join");
  span.Tag("left_rows", static_cast<int64_t>(left.ActiveRows()));
  span.Tag("right_rows", static_cast<int64_t>(right.ActiveRows()));
  ctx->RecordAccess(obs::AccessKind::kJoinBegin, left.ActiveRows(),
                    right.ActiveRows());

  JoinPredicates preds =
      ClassifyJoinPredicates(left.schema, right.schema, on, conjuncts);
  const std::vector<EquiKey>& keys = preds.keys;

  VecRel out;
  out.schema = Schema::Concat(left.schema, right.schema);
  JoinEmitter emitter{ctx, preds.residual, left.schema.size(), &out,
                      VectorEvaluator(ctx->eval.get(), &out.schema,
                                      ctx->outer)};

  span.Tag("kind", keys.empty() ? "nested-loop" : "hash");
  if (!keys.empty()) {
    bool build_right = right.ActiveBytes() <= left.ActiveBytes();
    const VecRel& build = build_right ? right : left;
    const VecRel& probe = build_right ? left : right;

    std::vector<const Expr*> build_exprs, probe_exprs;
    build_exprs.reserve(keys.size());
    probe_exprs.reserve(keys.size());
    for (const EquiKey& k : keys) {
      build_exprs.push_back(build_right ? k.right_expr : k.left_expr);
      probe_exprs.push_back(build_right ? k.left_expr : k.right_expr);
    }

    ASSIGN_OR_RETURN(
        auto build_keys,
        ComputeBatchKeys(ctx, build, build_exprs, kVecJoinBuildRowCycles));
    // The hash table maps each key to its build rows, in build order.
    std::unordered_map<std::string, std::vector<RowRef>> table;
    table.reserve(build.ActiveRows());
    for (size_t bi = 0; bi < build.batches.size(); ++bi) {
      const VecBatch& b = build.batches[bi];
      for (size_t i = 0; i < b.active(); ++i) {
        // NULL-keyed rows stay out of the table, so they match nothing.
        if (build_keys[bi][i].empty()) continue;
        table[std::move(build_keys[bi][i])].push_back(
            RowRef{b.batch.get(), b.sel[i]});
      }
    }
    ctx->TrackMemory(build.ActiveBytes());

    ASSIGN_OR_RETURN(
        auto probe_keys,
        ComputeBatchKeys(ctx, probe, probe_exprs, kVecJoinProbeRowCycles));
    for (size_t pi = 0; pi < probe.batches.size(); ++pi) {
      const VecBatch& b = probe.batches[pi];
      for (size_t i = 0; i < b.active(); ++i) {
        auto it = table.find(probe_keys[pi][i]);
        if (it == table.end()) continue;
        ctx->Charge(kVecGatherRowCycles);
        const RowRef p{b.batch.get(), b.sel[i]};
        for (const RowRef& r : it->second) {
          RETURN_IF_ERROR(build_right ? emitter.Add(p, r) : emitter.Add(r, p));
        }
      }
    }
  } else {
    // Nested loop, left-major.
    ctx->TrackMemory(right.ActiveBytes());
    const uint64_t right_rows = right.ActiveRows();
    for (const VecBatch& lb : left.batches) {
      for (uint32_t li : lb.sel) {
        ctx->Charge(right_rows * kVecJoinProbeRowCycles);
        for (const VecBatch& rb : right.batches) {
          for (uint32_t ri : rb.sel) {
            RETURN_IF_ERROR(emitter.Add(RowRef{lb.batch.get(), li},
                                        RowRef{rb.batch.get(), ri}));
          }
        }
      }
    }
  }
  RETURN_IF_ERROR(emitter.Drain(/*last=*/true));
  span.Tag("rows_out", static_cast<int64_t>(out.ActiveRows()));
  ctx->RecordAccess(obs::AccessKind::kJoinEnd, out.ActiveRows(),
                    keys.empty() ? 0 : 1);
  return out;
}

namespace {

// ---- Aggregation ----

Result<VecRel> AggregateVec(Ctx* ctx, VecRel input, const AggPlan& plan) {
  const std::vector<const Expr*>& group_exprs = plan.group_exprs;
  const std::vector<const Expr*>& aggs = plan.aggs;
  VecRel out;
  out.schema = plan.OutputSchema(input.schema);

  std::map<std::string, std::pair<std::vector<Value>, std::vector<AggState>>>
      groups;

  VectorEvaluator veval(ctx->eval.get(), &input.schema, ctx->outer);
  std::vector<VecCol> gcols(group_exprs.size());
  std::vector<VecCol> acols(aggs.size());
  Bytes key;
  for (const VecBatch& b : input.batches) {
    size_t n = b.active();
    ctx->Charge(kVecBatchCycles + n * kVecAggRowCycles);
    // Group keys and aggregate arguments evaluate batch-at-a-time; the
    // per-group accumulate below is the only remaining scalar loop.
    for (size_t g = 0; g < group_exprs.size(); ++g) {
      RETURN_IF_ERROR(veval.Eval(*group_exprs[g], *b.batch, b.sel, &gcols[g]));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a]->agg_func == AggFunc::kCountStar) continue;
      RETURN_IF_ERROR(
          veval.Eval(*aggs[a]->args[0], *b.batch, b.sel, &acols[a]));
    }
    for (size_t i = 0; i < n; ++i) {
      key.clear();
      for (const VecCol& c : gcols) AppendNormalizedKey(c, i, &key);
      auto it = groups.find(std::string(key.begin(), key.end()));
      if (it == groups.end()) {
        std::vector<Value> gvals;
        gvals.reserve(gcols.size());
        for (const VecCol& c : gcols) gvals.push_back(c.Get(i));
        it = groups
                 .try_emplace(std::string(key.begin(), key.end()),
                              std::make_pair(std::move(gvals),
                                             std::vector<AggState>(aggs.size())))
                 .first;
      }
      auto& states = it->second.second;
      for (size_t a = 0; a < aggs.size(); ++a) {
        const Expr* agg = aggs[a];
        AggState& st = states[a];
        // Typed accumulate for COUNT(*), and for plain SUM/AVG/COUNT over
        // dense columns.
        if (agg->agg_func == AggFunc::kCountStar) {
          ++st.count;
          continue;
        }
        const VecCol& c = acols[a];
        if (!agg->distinct && c.kind != VecCol::Kind::kGeneric) {
          switch (agg->agg_func) {
            case AggFunc::kCount:
              ++st.count;
              continue;
            case AggFunc::kSum:
            case AggFunc::kAvg:
              ++st.count;
              if (c.kind == VecCol::Kind::kI64) {
                st.isum += c.nums[i];
                st.sum += static_cast<double>(c.nums[i]);
              } else if (c.kind == VecCol::Kind::kF64) {
                st.sum += vec::F64FromBits(c.nums[i]);
                st.all_int = false;
              } else {  // kDate: dates sum as their int payload
                st.sum += static_cast<double>(c.nums[i]);
                st.all_int = false;
              }
              continue;
            default:
              break;  // min/max fall through to the boxed path
          }
        }
        st.Add(*agg, c.Get(i));
      }
    }
  }

  if (groups.empty() && group_exprs.empty()) {
    groups.emplace("", std::make_pair(std::vector<Value>{},
                                      std::vector<AggState>(aggs.size())));
  }

  uint64_t mem = 0;
  std::vector<Row> rows;
  rows.reserve(groups.size());
  for (auto& [gkey, group] : groups) {
    mem += gkey.size() + group.second.size() * sizeof(AggState);
    rows.push_back(FinalizeGroup(group.first, aggs, group.second));
  }
  AppendRowBatches(rows, &out);
  ctx->TrackMemory(mem);
  return out;
}

}  // namespace

Result<VecRel> ExecuteSelectVectorized(Database* db,
                                       const SelectStmt& stmt,
                                       const EvalScope* outer,
                                       sim::CostModel* cost,
                                       const ExecOptions& opts,
                                       ExecStats* stats) {
  Ctx ctx(db, cost, opts, stats, outer);
  StageSpan select_span(&ctx, "select");
  ctx.RecordAccess(obs::AccessKind::kQueryBegin, 0);

  std::vector<ConjunctInfo> conjuncts = AnalyzeConjuncts(stmt.where.get());

  // 1. Scan + joins, batch-at-a-time.
  ASSIGN_OR_RETURN(
      VecRel current,
      FoldFromClause<VecRel>(
          stmt,
          [&](const TableRef& ref) {
            return ScanRelationVec(&ctx, ref, &conjuncts);
          },
          [&](VecRel left, VecRel right, const Expr* on) {
            return JoinRelationsVec(&ctx, std::move(left), std::move(right),
                                    &conjuncts, on);
          }));

  // 2. Residual predicates narrow the selections batch by batch; the
  //    scalar fallback handles (possibly correlated) subqueries.
  {
    std::vector<const Expr*> residual = UnclaimedConjuncts(conjuncts);
    if (!residual.empty()) {
      StageSpan filter_span(&ctx, "filter");
      filter_span.Tag("rows_in", static_cast<int64_t>(current.ActiveRows()));
      filter_span.Tag("predicates", static_cast<int64_t>(residual.size()));
      uint64_t filter_rows_in = current.ActiveRows();
      VectorEvaluator veval(ctx.eval.get(), &current.schema, ctx.outer);
      std::vector<VecBatch> kept;
      for (VecBatch& b : current.batches) {
        for (const Expr* e : residual) {
          ctx.Charge(kVecBatchCycles + b.active() * kVecFilterRowCycles);
          RETURN_IF_ERROR(veval.Filter(*e, *b.batch, &b.sel));
          if (b.sel.empty()) break;
        }
        if (!b.sel.empty()) kept.push_back(std::move(b));
      }
      current.batches = std::move(kept);
      filter_span.Tag("rows_out", static_cast<int64_t>(current.ActiveRows()));
      ctx.RecordAccess(obs::AccessKind::kFilter, filter_rows_in,
                       current.ActiveRows());
    }
  }

  // 3. Aggregation.
  ASSIGN_OR_RETURN(AggPlan plan, PlanAggregation(stmt));
  if (plan.aggregated) {
    StageSpan agg_span(&ctx, "aggregate");
    agg_span.Tag("rows_in", static_cast<int64_t>(current.ActiveRows()));
    uint64_t agg_rows_in = current.ActiveRows();
    ASSIGN_OR_RETURN(current, AggregateVec(&ctx, std::move(current), plan));
    agg_span.Tag("groups", static_cast<int64_t>(current.ActiveRows()));
    ctx.RecordAccess(obs::AccessKind::kAggregate, agg_rows_in,
                     current.ActiveRows());
  }
  const std::vector<OrderItem>& order_by = plan.order_by;

  // 4. HAVING.
  if (plan.having) {
    VectorEvaluator veval(ctx.eval.get(), &current.schema, ctx.outer);
    std::vector<VecBatch> kept;
    for (VecBatch& b : current.batches) {
      ctx.Charge(kVecBatchCycles + b.active() * kVecFilterRowCycles);
      RETURN_IF_ERROR(veval.Filter(*plan.having, *b.batch, &b.sel));
      if (!b.sel.empty()) kept.push_back(std::move(b));
    }
    current.batches = std::move(kept);
  }

  // 5. Projection. SELECT * keeps the batches and their selections;
  //    items evaluate batch-at-a-time into the columns of new units, with
  //    the hidden ORDER BY keys that read input-schema columns alongside.
  VecRel result;
  ProjectionPlan proj;
  // Per output unit, its hidden ORDER BY key columns, indexed by row (a
  // projected unit starts with a full selection).
  std::vector<std::vector<VecCol>> hidden_keys;
  {
    StageSpan project_span(&ctx, "project");
    project_span.Tag("rows", static_cast<int64_t>(current.ActiveRows()));
    ASSIGN_OR_RETURN(proj,
                     PlanProjection(plan.items, order_by, current.schema));
    result.schema = proj.schema;
    if (proj.star_only) {
      for (const VecBatch& b : current.batches) {
        ctx.Charge(kVecBatchCycles + b.active() * kVecGatherRowCycles);
      }
      result.batches = std::move(current.batches);
    } else {
      VectorEvaluator veval(ctx.eval.get(), &current.schema, ctx.outer);
      std::vector<VecCol> cols(plan.items.size());
      for (const VecBatch& b : current.batches) {
        size_t n = b.active();
        ctx.Charge(kVecBatchCycles + n * kVecProjectRowCycles);
        for (size_t c = 0; c < plan.items.size(); ++c) {
          RETURN_IF_ERROR(
              veval.Eval(*plan.items[c].expr, *b.batch, b.sel, &cols[c]));
        }
        std::vector<VecCol> hcols;
        if (proj.any_hidden) {
          for (size_t k = 0; k < order_by.size(); ++k) {
            if (!proj.order_from_input[k]) continue;
            hcols.emplace_back();
            RETURN_IF_ERROR(
                veval.Eval(*order_by[k].expr, *b.batch, b.sel, &hcols.back()));
          }
        }
        if (n == 0) continue;
        result.batches.push_back(
            VecBatch{ColumnBatch::FromColumns(&cols, n), FullSel(n)});
        hidden_keys.push_back(std::move(hcols));
      }
    }
  }

  // 6. DISTINCT narrows the selections to each row's first occurrence.
  if (stmt.distinct) {
    std::set<std::string> seen;
    Bytes key;
    for (VecBatch& b : result.batches) {
      SelVec kept;
      for (uint32_t r : b.sel) {
        key.clear();
        for (size_t c = 0; c < result.schema.size(); ++c) {
          AppendCellKey(*b.batch, c, r, &key);
        }
        if (seen.insert(std::string(key.begin(), key.end())).second) {
          kept.push_back(r);
        }
      }
      b.sel = std::move(kept);
    }
  }

  // 7. ORDER BY: a scalar stable sort of the active rows by their boxed
  //    keys, then one column-by-column gather in the sorted order.
  if (!order_by.empty()) {
    StageSpan sort_span(&ctx, "sort");
    const size_t n = result.ActiveRows();
    sort_span.Tag("rows", static_cast<int64_t>(n));
    ctx.RecordAccess(obs::AccessKind::kSort, n);
    struct SortKey {
      std::vector<Value> keys;
      RowRef ref;
    };
    std::vector<SortKey> sort_keys;
    sort_keys.reserve(n);
    VectorEvaluator veval(ctx.eval.get(), &result.schema, ctx.outer);
    std::vector<VecCol> kcols(order_by.size());
    for (size_t u = 0; u < result.batches.size(); ++u) {
      const VecBatch& b = result.batches[u];
      for (size_t k = 0; k < order_by.size(); ++k) {
        if (proj.order_from_input[k]) continue;
        RETURN_IF_ERROR(
            veval.Eval(*order_by[k].expr, *b.batch, b.sel, &kcols[k]));
      }
      for (size_t i = 0; i < b.sel.size(); ++i) {
        SortKey& sk = sort_keys.emplace_back();
        sk.ref = RowRef{b.batch.get(), b.sel[i]};
        sk.keys.reserve(order_by.size());
        size_t hidden = 0;
        for (size_t k = 0; k < order_by.size(); ++k) {
          sk.keys.push_back(proj.order_from_input[k]
                                ? hidden_keys[u][hidden++].Get(b.sel[i])
                                : kcols[k].Get(i));
        }
      }
    }
    if (n > 1) {
      ctx.Charge(kSortCmpCycles * n *
                 static_cast<uint64_t>(std::max(1.0, std::log2(double(n)))));
    }
    std::stable_sort(sort_keys.begin(), sort_keys.end(),
                     [&](const SortKey& a, const SortKey& b) {
                       for (size_t k = 0; k < order_by.size(); ++k) {
                         int c = a.keys[k].Compare(b.keys[k]);
                         if (c != 0) return order_by[k].desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
    std::vector<RowRef> order;
    order.reserve(n);
    for (const SortKey& sk : sort_keys) order.push_back(sk.ref);
    VecRel sorted{result.schema, {}};
    GatherUnits(order, &sorted);
    result.batches = std::move(sorted.batches);
    ctx.TrackMemory(result.ActiveBytes());
  }

  // 8. LIMIT narrows the selections to the first `limit` active rows.
  if (stmt.limit >= 0) {
    size_t left = static_cast<size_t>(stmt.limit);
    for (VecBatch& b : result.batches) {
      if (b.sel.size() > left) b.sel.resize(left);
      left -= b.sel.size();
    }
  }

  const size_t rows_out = result.ActiveRows();
  if (stats != nullptr) stats->rows_output += rows_out;
  select_span.Tag("rows_out", static_cast<int64_t>(rows_out));
  ctx.RecordAccess(obs::AccessKind::kResult, rows_out);
  ctx.FlushCharges();
  return result;
}

}  // namespace exec

Result<VecRel> ExecuteSelectBatches(Database* db, const SelectStmt& stmt,
                                    const EvalScope* outer,
                                    sim::CostModel* cost,
                                    const ExecOptions& opts,
                                    ExecStats* stats) {
  if (stmt.from.empty() || opts.oblivious) {
    // These pipelines produce rows; they wrap into units once, here.
    ASSIGN_OR_RETURN(QueryResult rows,
                     ExecuteSelect(db, stmt, outer, cost, opts, stats));
    VecRel rel{std::move(rows.schema), {}};
    exec::AppendRowBatches(rows.rows, &rel);
    return rel;
  }
  return exec::ExecuteSelectVectorized(db, stmt, outer, cost, opts, stats);
}

Result<QueryResult> ExecuteSelect(Database* db, const SelectStmt& stmt,
                                  const EvalScope* outer, sim::CostModel* cost,
                                  const ExecOptions& opts, ExecStats* stats) {
  if (stmt.from.empty()) {
    return exec::ExecuteSelectWithoutFrom(db, stmt, outer, cost, opts);
  }
  if (opts.oblivious) {
    return exec::ExecuteSelectOblivious(db, stmt, outer, cost, opts, stats);
  }
  ASSIGN_OR_RETURN(VecRel rel, exec::ExecuteSelectVectorized(
                                   db, stmt, outer, cost, opts, stats));
  // The one place the plain engine's result rows materialize.
  QueryResult result{std::move(rel.schema), {}};
  result.rows.reserve(rel.ActiveRows());
  for (const VecBatch& b : rel.batches) {
    for (uint32_t r : b.sel) b.batch->MaterializeRow(r, &result.rows.emplace_back());
  }
  return result;
}

}  // namespace ironsafe::sql
