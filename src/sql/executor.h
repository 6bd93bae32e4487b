#ifndef IRONSAFE_SQL_EXECUTOR_H_
#define IRONSAFE_SQL_EXECUTOR_H_

#include <cstdint>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/column_batch.h"
#include "sql/eval.h"
#include "sim/cost_model.h"

namespace ironsafe::sql {

class Database;

/// Execution knobs. `site` decides which simulated CPU is charged for
/// operator work; `memory_cap_bytes` models the storage server's memory
/// limit (paper Figure 11) — working sets beyond it pay spill I/O;
/// `parallelism` is the query fan-out: it sets the simulated ways of
/// ChargeParallelCycles (capped by the site's core count, paper
/// Figure 10) AND the requested real worker count for morsel-parallel
/// scans and join key evaluation. The real fan-out is additionally
/// capped by the machine / ThreadPool::set_max_workers, and by design
/// the real worker count never changes results, stats, or simulated
/// cost — only wall-clock time.
struct ExecOptions {
  sim::Site site = sim::Site::kHost;
  uint64_t memory_cap_bytes = UINT64_MAX;
  int parallelism = 1;
  /// Emit pipeline-stage spans to the current thread's obs::Tracer (no-op
  /// when none is installed). Scalar/correlated subqueries run with this
  /// off — they re-execute per outer row and would flood the trace.
  bool trace = true;
  /// Opt-in oblivious execution (docs/OBLIVIOUS.md): scans read every
  /// page/batch of each base table in order with no pushdown, filters
  /// flip validity flags instead of dropping rows, sorts run on a
  /// bitonic merge network and joins are sort-merge over both full
  /// inputs, so the page/batch access sequence and every cost charge
  /// depend only on input shapes (row counts, schema, join-key
  /// multiplicity structure) — never on filter predicates or non-key
  /// values.
  bool oblivious = false;
};

/// Statistics accumulated while executing one query.
struct ExecStats {
  uint64_t rows_scanned = 0;
  uint64_t rows_output = 0;
  uint64_t peak_memory_bytes = 0;
  uint64_t spill_bytes = 0;

  bool operator==(const ExecStats&) const = default;
};

/// Executes a SELECT against `db`. `outer` is the correlation scope for
/// subqueries (null at top level). Work is charged to `cost` per the
/// options. The engine is batch-at-a-time and columnar: pages decode
/// once into ~2K-row ColumnBatches, predicates narrow selection vectors
/// instead of materializing rows, and typed kernels handle
/// filter/join-key/aggregate/project work. The pipeline: scan+pushed
/// filters -> joins (hash when an equi-predicate exists, else nested
/// loop) -> residual predicates -> aggregation -> HAVING -> projection ->
/// DISTINCT -> ORDER BY -> LIMIT. Rows, stats and simulated cost are
/// bit-identical across real worker counts.
Result<QueryResult> ExecuteSelect(Database* db, const SelectStmt& stmt,
                                  const EvalScope* outer,
                                  sim::CostModel* cost,
                                  const ExecOptions& opts = {},
                                  ExecStats* stats = nullptr);

/// ExecuteSelect's result before any row materializes: column batches
/// with selections. SELECT * keeps the scanned (or joined) batches and
/// their selection vectors; projected items, ORDER BY output and derived
/// tables are new units gathered column by column. The oblivious
/// pipeline and SELECT without FROM produce rows, which wrap into units
/// once. Same rows, stats and simulated cost as ExecuteSelect.
Result<VecRel> ExecuteSelectBatches(Database* db, const SelectStmt& stmt,
                                    const EvalScope* outer,
                                    sim::CostModel* cost,
                                    const ExecOptions& opts = {},
                                    ExecStats* stats = nullptr);

}  // namespace ironsafe::sql

#endif  // IRONSAFE_SQL_EXECUTOR_H_
