#include "tpch/table_spec.h"

namespace ironsafe::tpch {

namespace {

using sql::PartitionKind;
using sql::Type;

const char* SqlTypeName(Type t) {
  switch (t) {
    case Type::kInt64:
      return "INTEGER";
    case Type::kDouble:
      return "DOUBLE";
    case Type::kString:
      return "VARCHAR";
    case Type::kDate:
      return "DATE";
    default:
      return "VARCHAR";
  }
}

TableSpec Replicated(std::string name,
                     std::vector<TableSpec::ColumnSpec> columns) {
  TableSpec spec;
  spec.name = name;
  spec.columns = std::move(columns);
  spec.partition = sql::TablePartition{std::move(name),
                                       PartitionKind::kReplicated, ""};
  return spec;
}

TableSpec Partitioned(std::string name, PartitionKind kind, std::string key,
                      std::vector<TableSpec::ColumnSpec> columns) {
  TableSpec spec;
  spec.name = name;
  spec.columns = std::move(columns);
  spec.partition =
      sql::TablePartition{std::move(name), kind, std::move(key)};
  return spec;
}

}  // namespace

std::string TableSpec::CreateTableSql() const {
  std::string sql = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += columns[i].name;
    sql += ' ';
    sql += SqlTypeName(columns[i].type);
  }
  sql += ')';
  return sql;
}

const std::vector<TableSpec>& TpchTables() {
  static const std::vector<TableSpec>* kTables = new std::vector<TableSpec>{
      Replicated("region", {{"r_regionkey", Type::kInt64},
                            {"r_name", Type::kString},
                            {"r_comment", Type::kString}}),
      Replicated("nation", {{"n_nationkey", Type::kInt64},
                            {"n_name", Type::kString},
                            {"n_regionkey", Type::kInt64},
                            {"n_comment", Type::kString}}),
      Replicated("supplier", {{"s_suppkey", Type::kInt64},
                              {"s_name", Type::kString},
                              {"s_address", Type::kString},
                              {"s_nationkey", Type::kInt64},
                              {"s_phone", Type::kString},
                              {"s_acctbal", Type::kDouble},
                              {"s_comment", Type::kString}}),
      Partitioned("customer", PartitionKind::kHash, "c_custkey",
                  {{"c_custkey", Type::kInt64},
                   {"c_name", Type::kString},
                   {"c_address", Type::kString},
                   {"c_nationkey", Type::kInt64},
                   {"c_phone", Type::kString},
                   {"c_acctbal", Type::kDouble},
                   {"c_mktsegment", Type::kString},
                   {"c_comment", Type::kString}}),
      Partitioned("part", PartitionKind::kHash, "p_partkey",
                  {{"p_partkey", Type::kInt64},
                   {"p_name", Type::kString},
                   {"p_mfgr", Type::kString},
                   {"p_brand", Type::kString},
                   {"p_type", Type::kString},
                   {"p_size", Type::kInt64},
                   {"p_container", Type::kString},
                   {"p_retailprice", Type::kDouble},
                   {"p_comment", Type::kString}}),
      Partitioned("partsupp", PartitionKind::kHash, "ps_partkey",
                  {{"ps_partkey", Type::kInt64},
                   {"ps_suppkey", Type::kInt64},
                   {"ps_availqty", Type::kInt64},
                   {"ps_supplycost", Type::kDouble},
                   {"ps_comment", Type::kString}}),
      Partitioned("orders", PartitionKind::kRange, "o_orderkey",
                  {{"o_orderkey", Type::kInt64},
                   {"o_custkey", Type::kInt64},
                   {"o_orderstatus", Type::kString},
                   {"o_totalprice", Type::kDouble},
                   {"o_orderdate", Type::kDate},
                   {"o_orderpriority", Type::kString},
                   {"o_clerk", Type::kString},
                   {"o_shippriority", Type::kInt64},
                   {"o_comment", Type::kString}}),
      Partitioned("lineitem", PartitionKind::kRange, "l_orderkey",
                  {{"l_orderkey", Type::kInt64},
                   {"l_partkey", Type::kInt64},
                   {"l_suppkey", Type::kInt64},
                   {"l_linenumber", Type::kInt64},
                   {"l_quantity", Type::kDouble},
                   {"l_extendedprice", Type::kDouble},
                   {"l_discount", Type::kDouble},
                   {"l_tax", Type::kDouble},
                   {"l_returnflag", Type::kString},
                   {"l_linestatus", Type::kString},
                   {"l_shipdate", Type::kDate},
                   {"l_commitdate", Type::kDate},
                   {"l_receiptdate", Type::kDate},
                   {"l_shipinstruct", Type::kString},
                   {"l_shipmode", Type::kString},
                   {"l_comment", Type::kString}})};
  return *kTables;
}

std::vector<sql::TablePartition> TpchPartitionScheme() {
  std::vector<sql::TablePartition> scheme;
  scheme.reserve(TpchTables().size());
  for (const TableSpec& spec : TpchTables()) {
    scheme.push_back(spec.partition);
  }
  return scheme;
}

}  // namespace ironsafe::tpch
