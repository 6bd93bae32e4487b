#ifndef IRONSAFE_TPCH_DBGEN_H_
#define IRONSAFE_TPCH_DBGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "sql/database.h"

namespace ironsafe::tpch {

/// Generator configuration. scale_factor follows TPC-H semantics
/// (SF 1 = 6M lineitems); the evaluation uses small fractions so a full
/// benchmark run fits in CI time, with the same schema and distributions.
struct TpchConfig {
  double scale_factor = 0.005;
  uint64_t seed = 19940101;
};

/// Deterministic TPC-H data generator for all eight tables, with the
/// value distributions the evaluated queries rely on (types, brands,
/// containers, segments, date ranges, comment keywords).
class TpchGenerator {
 public:
  explicit TpchGenerator(TpchConfig config);

  /// Creates the eight TPC-H tables in `db` and bulk-loads them.
  Status LoadInto(sql::Database* db, sim::CostModel* cost = nullptr);

  /// The CREATE TABLE statements, index 0..7 (region..lineitem).
  static const std::vector<std::string>& SchemaSql();

 private:
  Status LoadRegionNation(sql::Database* db, sim::CostModel* cost);
  Status LoadSupplier(sql::Database* db, sim::CostModel* cost);
  Status LoadCustomer(sql::Database* db, sim::CostModel* cost);
  Status LoadPart(sql::Database* db, sim::CostModel* cost);
  Status LoadPartSupp(sql::Database* db, sim::CostModel* cost);
  Status LoadOrdersLineitem(sql::Database* db, sim::CostModel* cost);

  TpchConfig config_;
  Random rng_;
  uint64_t suppliers_;
  uint64_t customers_;
  uint64_t parts_;
  uint64_t orders_;
  std::vector<double> part_price_;  ///< retail price per part (for lineitem)
};

}  // namespace ironsafe::tpch

#endif  // IRONSAFE_TPCH_DBGEN_H_
