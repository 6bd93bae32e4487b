#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/thread_pool.h"
#include "obs/trace.h"
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
constexpr uint64_t kVecDecodeCachedRowCycles = 10;  ///< decoded-batch hit
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

/// A relation as a sequence of column batches with selection vectors —
/// the vectorized engine's intermediate representation.
struct VecRel {
  Schema schema;
  std::vector<VecBatch> batches;

  size_t ActiveRows() const {
    size_t n = 0;
    for (const VecBatch& b : batches) n += b.active();
    return n;
  }
  /// Working-set bytes of the active rows under the boxed-row
  /// accounting (RowBytes), the same figure the oblivious mode tracks.
  uint64_t ActiveBytes() const {
    uint64_t total = 0;
    for (const VecBatch& b : batches) {
      for (uint32_t i : b.sel) total += b.batch->row_bytes(i);
    }
    return total;
  }
};

/// Accumulates rows into fresh kBatchRows-sized batches (full selection).
class VecRelBuilder {
 public:
  explicit VecRelBuilder(VecRel* rel) : rel_(rel) {}
  ~VecRelBuilder() { Flush(); }

  void Append(const Row& row) {
    if (cur_ == nullptr) {
      cur_ = std::make_shared<ColumnBatch>(rel_->schema.size());
    }
    cur_->AppendRow(row);
    if (cur_->rows() >= ColumnBatch::kBatchRows) Flush();
  }

  void Flush() {
    if (cur_ == nullptr || cur_->rows() == 0) return;
    size_t n = cur_->rows();
    rel_->batches.push_back(VecBatch{std::move(cur_), FullSel(n)});
    cur_ = nullptr;
  }

 private:
  VecRel* rel_;
  std::shared_ptr<ColumnBatch> cur_;
};

// ---- Scan ----

struct VecScanSlice {
  std::vector<VecBatch> batches;
  uint64_t rows_scanned = 0;
  uint64_t cycles = 0;
  std::optional<sim::CostModel> cost;
  Status status = Status::OK();
  uint64_t unit_begin = 0;
  uint64_t unit_end = 0;
  int64_t wall_start_us = 0;
  int64_t wall_end_us = 0;
};

/// Morsel-parallel batch scan: each worker decodes the batches of its
/// contiguous unit range (decoded-batch cache hits charge the cheap
/// constant) and narrows their selections with the pushed filters, all
/// against a private cost slice; slices merge in range order. Batch
/// boundaries are unit boundaries, so batch contents, charges and the
/// merged batch order depend only on the table — never the worker count.
Status ScanTableBatches(Ctx* ctx, Table* table,
                        const std::vector<const Expr*>& filters,
                        VecRel* rel) {
  uint64_t units = table->morsel_units();
  int workers = PlanWorkers(*ctx, units, kMinScanUnitsPerWorker);
  std::vector<VecScanSlice> slices(workers);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  const Schema* schema = &rel->schema;
  const EvalScope* outer = ctx->outer;
  obs::Tracer* tracer = ctx->traced ? obs::CurrentTracer() : nullptr;
  for (int w = 0; w < workers; ++w) {
    uint64_t begin = units * w / workers;
    uint64_t end = units * (w + 1) / workers;
    VecScanSlice* slice = &slices[w];
    slice->unit_begin = begin;
    slice->unit_end = end;
    if (ctx->cost != nullptr) slice->cost.emplace(ctx->cost->profile());
    tasks.push_back([table, schema, outer, &filters, begin, end, slice,
                     tracer] {
      if (tracer != nullptr) slice->wall_start_us = tracer->WallNowUs();
      sim::CostModel* wcost = slice->cost ? &*slice->cost : nullptr;
      // Pushed-down filters are subquery-free, so a runner-less
      // evaluator backs the kernel fallback.
      [&] {
        Evaluator fallback(nullptr);
        VectorEvaluator veval(&fallback, schema, outer);
        for (uint64_t unit = begin; unit < end; ++unit) {
          Result<DecodedMorsel> decoded = table->DecodeMorselBatch(unit, wcost);
          if (!decoded.ok()) {
            slice->status = decoded.status();
            return;
          }
          const auto& batch = decoded->batch;
          if (batch == nullptr || batch->rows() == 0) continue;
          size_t n = batch->rows();
          slice->rows_scanned += n;
          slice->cycles +=
              kVecBatchCycles +
              n * (decoded->cached ? kVecDecodeCachedRowCycles
                                   : kVecDecodeRowCycles);
          SelVec sel = FullSel(n);
          for (const Expr* f : filters) {
            slice->cycles += kVecBatchCycles + sel.size() * kVecFilterRowCycles;
            Status s = veval.Filter(*f, *batch, &sel);
            if (!s.ok()) {
              slice->status = s;
              return;
            }
            if (sel.empty()) break;
          }
          if (!sel.empty()) {
            slice->batches.push_back(VecBatch{batch, std::move(sel)});
          }
        }
      }();
      if (tracer != nullptr) slice->wall_end_us = tracer->WallNowUs();
    });
  }

  table->BeginParallelScan(workers);
  common::ThreadPool::Shared().RunTasks(tasks);
  table->EndParallelScan();

  for (int w = 0; w < workers; ++w) {
    VecScanSlice& s = slices[w];
    RETURN_IF_ERROR(s.status);
    if (ctx->stats != nullptr) ctx->stats->rows_scanned += s.rows_scanned;
    ctx->Charge(s.cycles);
    if (ctx->cost != nullptr && s.cost.has_value()) {
      ctx->cost->MergeChild(*s.cost);
    }
    if (tracer != nullptr) {
      uint64_t kept = 0;
      for (const VecBatch& b : s.batches) kept += b.active();
      int64_t id = tracer->AddDetailSpan(
          "morsel", "sql", s.cost ? s.cost->elapsed_ns() : 0, w,
          s.wall_start_us, s.wall_end_us);
      tracer->AddTag(id, "worker", static_cast<int64_t>(w));
      tracer->AddTag(id, "unit_begin", static_cast<int64_t>(s.unit_begin));
      tracer->AddTag(id, "unit_end", static_cast<int64_t>(s.unit_end));
      tracer->AddTag(id, "rows_scanned", static_cast<int64_t>(s.rows_scanned));
      tracer->AddTag(id, "rows_kept", static_cast<int64_t>(kept));
      tracer->AddTag(id, "cycles", static_cast<int64_t>(s.cycles));
      if (s.cost.has_value()) {
        tracer->AddTag(id, "pages_decrypted",
                       static_cast<int64_t>(s.cost->pages_decrypted()));
      }
    }
    for (VecBatch& b : s.batches) rel->batches.push_back(std::move(b));
  }
  return Status::OK();
}

Result<VecRel> ScanRelationVec(Ctx* ctx, const TableRef& ref,
                               std::vector<ConjunctInfo>* conjuncts) {
  StageSpan span(ctx, "scan");
  span.Tag("table", ref.subquery ? "derived:" + ref.alias : ref.table_name);
  ctx->RecordAccess(obs::AccessKind::kScanBegin);
  VecRel rel;
  std::vector<Row> source_rows;
  Table* table = nullptr;
  if (ref.subquery) {
    ASSIGN_OR_RETURN(QueryResult sub,
                     ExecuteSelect(ctx->db, *ref.subquery, ctx->outer,
                                   ctx->cost, ctx->opts));
    rel.schema = sub.schema.Qualified(ref.alias);
    source_rows = std::move(sub.rows);
  } else {
    ASSIGN_OR_RETURN(Table * t, ctx->db->GetTable(ref.table_name));
    table = t;
    rel.schema = table->schema().Qualified(ref.alias);
  }

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

  if (table != nullptr && table->morsel_units() > 0) {
    RETURN_IF_ERROR(ScanTableBatches(ctx, table, filters, &rel));
  } else if (table != nullptr) {
    // Empty table: nothing to decode.
  } else {
    // Derived table: re-batch the subquery output, then filter.
    {
      VecRelBuilder builder(&rel);
      for (const Row& row : source_rows) builder.Append(row);
    }
    if (ctx->stats != nullptr) ctx->stats->rows_scanned += source_rows.size();
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

struct EquiKey {
  const Expr* left_expr;
  const Expr* right_expr;
};

/// Normalized join keys of every active row of `rel`, one string per
/// active row in batch order; a row with any NULL key component gets the
/// empty string, which no join matches (NULL = x is unknown). Batches
/// are partitioned contiguously across workers; key expressions are
/// subquery-free, so workers use private runner-less evaluators and
/// write disjoint output slots.
Result<std::vector<std::vector<std::string>>> ComputeBatchKeys(
    Ctx* ctx, const VecRel& rel, const std::vector<const Expr*>& exprs,
    uint64_t per_row_cycles) {
  struct KeySlice {
    uint64_t cycles = 0;
    Status status = Status::OK();
    size_t lo = 0;
    size_t hi = 0;
    int64_t wall_start_us = 0;
    int64_t wall_end_us = 0;
  };
  size_t nbatches = rel.batches.size();
  std::vector<std::vector<std::string>> out(nbatches);
  int workers = PlanWorkers(*ctx, rel.ActiveRows(), kMinJoinRowsPerWorker);
  std::vector<KeySlice> slices(workers);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  const Schema* schema = &rel.schema;
  const EvalScope* outer = ctx->outer;
  const std::vector<VecBatch>* batches = &rel.batches;
  obs::Tracer* tracer = ctx->traced ? obs::CurrentTracer() : nullptr;
  for (int w = 0; w < workers; ++w) {
    size_t lo = nbatches * w / workers;
    size_t hi = nbatches * (w + 1) / workers;
    KeySlice* slice = &slices[w];
    slice->lo = lo;
    slice->hi = hi;
    tasks.push_back([&out, &exprs, batches, schema, outer, lo, hi, slice,
                     per_row_cycles, tracer] {
      if (tracer != nullptr) slice->wall_start_us = tracer->WallNowUs();
      [&] {
        Evaluator fallback(nullptr);
        VectorEvaluator veval(&fallback, schema, outer);
        std::vector<VecCol> cols(exprs.size());
        Bytes key;
        for (size_t bi = lo; bi < hi; ++bi) {
          const VecBatch& b = (*batches)[bi];
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
              null_key = null_key || (c.kind == VecCol::Kind::kGeneric &&
                                      c.vals[i].is_null());
              AppendNormalizedKey(c, i, &key);
            }
            if (null_key) key.clear();
            keys.emplace_back(key.begin(), key.end());
          }
        }
      }();
      if (tracer != nullptr) slice->wall_end_us = tracer->WallNowUs();
    });
  }
  common::ThreadPool::Shared().RunTasks(tasks);
  for (int w = 0; w < workers; ++w) {
    const KeySlice& s = slices[w];
    RETURN_IF_ERROR(s.status);
    ctx->Charge(s.cycles);
    if (tracer != nullptr) {
      sim::SimNanos dur = 0;
      if (ctx->cost != nullptr) {
        sim::CostModel scratch(ctx->cost->profile());
        scratch.ChargeParallelCycles(ctx->opts.site, s.cycles,
                                     ctx->opts.parallelism);
        dur = scratch.elapsed_ns();
      }
      int64_t id = tracer->AddDetailSpan("join-keys", "sql", dur, w,
                                         s.wall_start_us, s.wall_end_us);
      tracer->AddTag(id, "worker", static_cast<int64_t>(w));
      tracer->AddTag(id, "batch_begin", static_cast<int64_t>(s.lo));
      tracer->AddTag(id, "batch_end", static_cast<int64_t>(s.hi));
      tracer->AddTag(id, "cycles", static_cast<int64_t>(s.cycles));
    }
  }
  return out;
}

Result<VecRel> JoinRelationsVec(Ctx* ctx, VecRel left, VecRel right,
                                std::vector<ConjunctInfo>* conjuncts,
                                const Expr* on) {
  StageSpan span(ctx, "join");
  span.Tag("left_rows", static_cast<int64_t>(left.ActiveRows()));
  span.Tag("right_rows", static_cast<int64_t>(right.ActiveRows()));
  ctx->RecordAccess(obs::AccessKind::kJoinBegin, left.ActiveRows(),
                    right.ActiveRows());
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

  VecRel out;
  out.schema = combined;
  VecRelBuilder builder(&out);

  Row joined;
  auto emit = [&](const Row& l, const Row& r) -> Result<bool> {
    joined = l;
    joined.insert(joined.end(), r.begin(), r.end());
    EvalScope scope{&combined, &joined, ctx->outer};
    for (const Expr* e : residual) {
      ctx->Charge(kVecFilterRowCycles);
      ASSIGN_OR_RETURN(bool ok, ctx->eval->EvalBool(*e, scope));
      if (!ok) return false;
    }
    ctx->Charge(kVecGatherRowCycles);
    builder.Append(joined);
    return true;
  };

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
    // Build rows materialize once; the hash table maps key -> indices.
    std::vector<Row> build_rows;
    build_rows.reserve(build.ActiveRows());
    std::unordered_map<std::string, std::vector<size_t>> table;
    table.reserve(build.ActiveRows());
    for (size_t bi = 0; bi < build.batches.size(); ++bi) {
      const VecBatch& b = build.batches[bi];
      for (size_t i = 0; i < b.active(); ++i) {
        // NULL-keyed rows stay out of the table, so they match nothing.
        if (build_keys[bi][i].empty()) continue;
        Row r;
        b.batch->MaterializeRow(b.sel[i], &r);
        table[build_keys[bi][i]].push_back(build_rows.size());
        build_rows.push_back(std::move(r));
      }
    }
    ctx->TrackMemory(build.ActiveBytes());

    ASSIGN_OR_RETURN(
        auto probe_keys,
        ComputeBatchKeys(ctx, probe, probe_exprs, kVecJoinProbeRowCycles));
    Row prow;
    for (size_t pi = 0; pi < probe.batches.size(); ++pi) {
      const VecBatch& b = probe.batches[pi];
      for (size_t i = 0; i < b.active(); ++i) {
        auto it = table.find(probe_keys[pi][i]);
        if (it == table.end()) continue;
        b.batch->MaterializeRow(b.sel[i], &prow);
        ctx->Charge(kVecGatherRowCycles);
        for (size_t ri : it->second) {
          const Row& l = build_right ? prow : build_rows[ri];
          const Row& r = build_right ? build_rows[ri] : prow;
          RETURN_IF_ERROR(emit(l, r).status());
        }
      }
    }
  } else {
    // Nested loop: materialize the inner side once, stream the outer.
    ctx->TrackMemory(right.ActiveBytes());
    std::vector<Row> right_rows;
    right_rows.reserve(right.ActiveRows());
    Row tmp;
    for (const VecBatch& b : right.batches) {
      for (uint32_t i : b.sel) {
        b.batch->MaterializeRow(i, &tmp);
        right_rows.push_back(tmp);
      }
    }
    Row lrow;
    for (const VecBatch& b : left.batches) {
      for (uint32_t i : b.sel) {
        b.batch->MaterializeRow(i, &lrow);
        for (const Row& r : right_rows) {
          ctx->Charge(kVecJoinProbeRowCycles);
          RETURN_IF_ERROR(emit(lrow, r).status());
        }
      }
    }
  }
  builder.Flush();
  span.Tag("rows_out", static_cast<int64_t>(out.ActiveRows()));
  ctx->RecordAccess(obs::AccessKind::kJoinEnd, out.ActiveRows(),
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

Result<VecRel> AggregateVec(Ctx* ctx, VecRel input, const SelectStmt& stmt,
                            std::map<std::string, const Expr*> agg_exprs) {
  VecRel out;
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
        if (agg->agg_func == AggFunc::kCountStar) {
          ++st.count;
          continue;
        }
        const VecCol& c = acols[a];
        // Typed accumulate for plain SUM/AVG/COUNT over dense columns.
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
        Value v = c.Get(i);
        if (v.is_null()) continue;
        if (agg->distinct) {
          Bytes ser;
          v.Serialize(&ser);
          st.distinct.insert(std::string(ser.begin(), ser.end()));
          continue;
        }
        switch (agg->agg_func) {
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
    }
  }

  if (groups.empty() && group_exprs.empty()) {
    groups.emplace("", std::make_pair(std::vector<Value>{},
                                      std::vector<AggState>(aggs.size())));
  }

  uint64_t mem = 0;
  VecRelBuilder builder(&out);
  for (auto& [gkey, group] : groups) {
    mem += gkey.size() + group.second.size() * sizeof(AggState);
    Row row = group.first;
    for (size_t i = 0; i < aggs.size(); ++i) {
      const Expr* a = aggs[i];
      AggState& st = group.second[i];
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
    builder.Append(row);
  }
  builder.Flush();
  ctx->TrackMemory(mem);
  return out;
}

}  // namespace

Result<QueryResult> ExecuteSelectVectorized(Database* db,
                                            const SelectStmt& stmt,
                                            const EvalScope* outer,
                                            sim::CostModel* cost,
                                            const ExecOptions& opts,
                                            ExecStats* stats) {
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
  ctx.RecordAccess(obs::AccessKind::kQueryBegin, 0);

  std::vector<ConjunctInfo> conjuncts = AnalyzeConjuncts(stmt.where.get());

  // 1. Scan + joins, batch-at-a-time.
  ASSIGN_OR_RETURN(VecRel current,
                   ScanRelationVec(&ctx, stmt.from[0], &conjuncts));
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    ASSIGN_OR_RETURN(VecRel next,
                     ScanRelationVec(&ctx, stmt.from[i], &conjuncts));
    ASSIGN_OR_RETURN(current, JoinRelationsVec(&ctx, std::move(current),
                                               std::move(next), &conjuncts,
                                               nullptr));
  }
  for (const JoinClause& join : stmt.joins) {
    ASSIGN_OR_RETURN(VecRel next,
                     ScanRelationVec(&ctx, join.table, &conjuncts));
    ASSIGN_OR_RETURN(current, JoinRelationsVec(&ctx, std::move(current),
                                               std::move(next), &conjuncts,
                                               join.on.get()));
  }

  // 2. Residual predicates narrow the selections batch by batch; the
  //    scalar fallback handles (possibly correlated) subqueries.
  {
    std::vector<const Expr*> residual;
    for (ConjunctInfo& info : conjuncts) {
      if (!info.consumed) residual.push_back(info.expr);
    }
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
      agg_span.Tag("rows_in", static_cast<int64_t>(current.ActiveRows()));
      uint64_t agg_rows_in = current.ActiveRows();
      ASSIGN_OR_RETURN(current, AggregateVec(&ctx, std::move(current), stmt,
                                             agg_exprs));
      agg_span.Tag("groups", static_cast<int64_t>(current.ActiveRows()));
      ctx.RecordAccess(obs::AccessKind::kAggregate, agg_rows_in,
                       current.ActiveRows());
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

  // 4. HAVING.
  if (having) {
    VectorEvaluator veval(ctx.eval.get(), &current.schema, ctx.outer);
    std::vector<VecBatch> kept;
    for (VecBatch& b : current.batches) {
      ctx.Charge(kVecBatchCycles + b.active() * kVecFilterRowCycles);
      RETURN_IF_ERROR(veval.Filter(*having, *b.batch, &b.sel));
      if (!b.sel.empty()) kept.push_back(std::move(b));
    }
    current.batches = std::move(kept);
  }

  // 5. Projection: items evaluate batch-at-a-time into typed columns,
  //    then materialize into the result rows (hidden ORDER BY keys
  //    that read input-schema columns alongside).
  QueryResult result;
  std::vector<bool> order_from_input(order_by.size(), false);
  std::vector<std::vector<Value>> hidden_keys;
  {
    StageSpan project_span(&ctx, "project");
    project_span.Tag("rows", static_cast<int64_t>(current.ActiveRows()));
    bool star_only = items.size() == 1 && items[0].expr->kind == ExprKind::kStar;
    if (star_only) {
      result.schema = current.schema;
      result.rows.reserve(current.ActiveRows());
      Row tmp;
      for (const VecBatch& b : current.batches) {
        ctx.Charge(kVecBatchCycles + b.active() * kVecGatherRowCycles);
        for (uint32_t i : b.sel) {
          b.batch->MaterializeRow(i, &tmp);
          result.rows.push_back(tmp);
        }
      }
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
        result.schema.AddColumn(
            Column{name, InferType(*item.expr, current.schema)});
      }
      for (size_t k = 0; k < order_by.size(); ++k) {
        std::set<std::string> cols;
        bool sub = false;
        CollectColumns(*order_by[k].expr, &cols, &sub);
        if (!ResolvableBy(cols, result.schema)) order_from_input[k] = true;
      }
      bool any_hidden = std::any_of(order_from_input.begin(),
                                    order_from_input.end(),
                                    [](bool b) { return b; });
      VectorEvaluator veval(ctx.eval.get(), &current.schema, ctx.outer);
      std::vector<VecCol> cols(items.size());
      std::vector<VecCol> hcols;
      for (const VecBatch& b : current.batches) {
        size_t n = b.active();
        ctx.Charge(kVecBatchCycles + n * kVecProjectRowCycles);
        for (size_t c = 0; c < items.size(); ++c) {
          RETURN_IF_ERROR(veval.Eval(*items[c].expr, *b.batch, b.sel, &cols[c]));
        }
        hcols.clear();
        if (any_hidden) {
          for (size_t k = 0; k < order_by.size(); ++k) {
            if (!order_from_input[k]) continue;
            hcols.emplace_back();
            RETURN_IF_ERROR(
                veval.Eval(*order_by[k].expr, *b.batch, b.sel, &hcols.back()));
          }
        }
        for (size_t i = 0; i < n; ++i) {
          Row out_row;
          out_row.reserve(items.size());
          for (const VecCol& c : cols) out_row.push_back(c.Get(i));
          if (any_hidden) {
            std::vector<Value> hk;
            hk.reserve(hcols.size());
            for (const VecCol& c : hcols) hk.push_back(c.Get(i));
            hidden_keys.push_back(std::move(hk));
          }
          result.rows.push_back(std::move(out_row));
        }
      }
    }
  }

  // 6. DISTINCT.
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<Row> kept;
    std::vector<std::vector<Value>> kept_hidden;
    for (size_t i = 0; i < result.rows.size(); ++i) {
      Bytes key = KeyOf(result.rows[i]);
      if (seen.insert(std::string(key.begin(), key.end())).second) {
        kept.push_back(std::move(result.rows[i]));
        if (!hidden_keys.empty()) {
          kept_hidden.push_back(std::move(hidden_keys[i]));
        }
      }
    }
    result.rows = std::move(kept);
    hidden_keys = std::move(kept_hidden);
  }

  // 7. ORDER BY (a scalar sort — sorting is not a batch operation).
  if (!order_by.empty()) {
    StageSpan sort_span(&ctx, "sort");
    sort_span.Tag("rows", static_cast<int64_t>(result.rows.size()));
    ctx.RecordAccess(obs::AccessKind::kSort, result.rows.size());
    struct SortKey {
      std::vector<Value> keys;
      size_t index;
    };
    std::vector<SortKey> sort_keys(result.rows.size());
    for (size_t i = 0; i < result.rows.size(); ++i) {
      EvalScope scope{&result.schema, &result.rows[i], ctx.outer};
      sort_keys[i].index = i;
      size_t hidden_pos = 0;
      for (size_t k = 0; k < order_by.size(); ++k) {
        if (order_from_input[k]) {
          sort_keys[i].keys.push_back(hidden_keys[i][hidden_pos++]);
          continue;
        }
        ASSIGN_OR_RETURN(Value v, ctx.eval->Eval(*order_by[k].expr, scope));
        sort_keys[i].keys.push_back(std::move(v));
      }
    }
    size_t n = result.rows.size();
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
    std::vector<Row> sorted;
    sorted.reserve(n);
    for (const SortKey& sk : sort_keys) {
      sorted.push_back(std::move(result.rows[sk.index]));
    }
    result.rows = std::move(sorted);
    uint64_t bytes = 0;
    for (const Row& r : result.rows) bytes += RowBytes(r);
    ctx.TrackMemory(bytes);
  }

  // 8. LIMIT.
  if (stmt.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(stmt.limit);
  }

  if (stats != nullptr) stats->rows_output += result.rows.size();
  select_span.Tag("rows_out", static_cast<int64_t>(result.rows.size()));
  ctx.RecordAccess(obs::AccessKind::kResult, result.rows.size());
  ctx.FlushCharges();
  return result;
}

}  // namespace exec

Result<QueryResult> ExecuteSelect(Database* db, const SelectStmt& stmt,
                                  const EvalScope* outer, sim::CostModel* cost,
                                  const ExecOptions& opts, ExecStats* stats) {
  if (stmt.from.empty()) {
    return exec::ExecuteSelectWithoutFrom(db, stmt, outer, cost, opts);
  }
  if (opts.oblivious) {
    return exec::ExecuteSelectOblivious(db, stmt, outer, cost, opts, stats);
  }
  return exec::ExecuteSelectVectorized(db, stmt, outer, cost, opts, stats);
}

}  // namespace ironsafe::sql
