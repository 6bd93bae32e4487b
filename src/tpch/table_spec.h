#ifndef IRONSAFE_TPCH_TABLE_SPEC_H_
#define IRONSAFE_TPCH_TABLE_SPEC_H_

#include <string>
#include <vector>

#include "sql/partition.h"
#include "sql/value.h"

namespace ironsafe::tpch {

/// Declarative description of one TPC-H table: the column list the
/// generator's CREATE TABLE statements are derived from, plus the
/// partition spec the sharded fleet routes rows by. This is the single
/// source of truth — the dbgen loaders and the distributed planner both
/// read it, so the column lists and partition keys can never drift
/// apart (docs/SHARDING.md).
struct TableSpec {
  struct ColumnSpec {
    std::string name;
    sql::Type type = sql::Type::kInt64;
  };

  std::string name;
  std::vector<ColumnSpec> columns;
  sql::TablePartition partition;

  /// "CREATE TABLE <name> (<col> <TYPE>, ...)" for this spec.
  std::string CreateTableSql() const;
};

/// The eight TPC-H tables in load order (region .. lineitem).
///
/// Partitioning scheme: orders and lineitem are range-partitioned on
/// orderkey (co-partitioned — an order's lines always share its shard);
/// part and partsupp are hash-partitioned on partkey (co-partitioned
/// likewise); customer is hash-partitioned on custkey; the small
/// dimension tables (region, nation, supplier) are replicated to every
/// node so shard-local join fragments never need them shipped.
const std::vector<TableSpec>& TpchTables();

/// The per-table partition specs in table load order — the value a
/// fleet's FleetOptions::partitions takes for TPC-H workloads.
std::vector<sql::TablePartition> TpchPartitionScheme();

}  // namespace ironsafe::tpch

#endif  // IRONSAFE_TPCH_TABLE_SPEC_H_
