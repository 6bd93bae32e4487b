#include "tpch/dbgen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "tpch/table_spec.h"

namespace ironsafe::tpch {

using sql::Row;
using sql::Value;

namespace {

const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};

struct NationSpec {
  const char* name;
  int region;
};
const NationSpec kNations[25] = {
    {"ALGERIA", 0},      {"ARGENTINA", 1},  {"BRAZIL", 1},
    {"CANADA", 1},       {"EGYPT", 4},      {"ETHIOPIA", 0},
    {"FRANCE", 3},       {"GERMANY", 3},    {"INDIA", 2},
    {"INDONESIA", 2},    {"IRAN", 4},       {"IRAQ", 4},
    {"JAPAN", 2},        {"JORDAN", 4},     {"KENYA", 0},
    {"MOROCCO", 0},      {"MOZAMBIQUE", 0}, {"PERU", 1},
    {"CHINA", 2},        {"ROMANIA", 3},    {"SAUDI ARABIA", 4},
    {"VIETNAM", 2},      {"RUSSIA", 3},     {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL",
                            "FOB"};
const char* kInstructs[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                            "TAKE BACK RETURN"};
const char* kTypes1[] = {"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY",
                         "PROMO"};
const char* kTypes2[] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                         "BRUSHED"};
const char* kTypes3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContainers1[] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainers2[] = {"CASE", "BOX", "BAG", "JAR", "PKG", "PACK",
                              "CAN", "DRUM"};
const char* kColors[] = {
    "almond", "antique", "aquamarine", "azure", "beige",  "bisque",
    "black",  "blanched", "blue",      "blush", "brown",  "burlywood",
    "burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower",
    "cream",  "cyan",    "dark",      "deep",  "dim",    "dodger",
    "drab",   "firebrick", "floral",  "forest", "frosted", "gainsboro",
    "ghost",  "goldenrod", "green",   "grey",  "honeydew", "hot",
    "indian", "ivory",   "khaki",     "lace",  "lavender", "lawn"};
const char* kWords[] = {"carefully", "final",  "deposits", "quickly",
                        "furiously", "pending", "requests", "accounts",
                        "ironic",    "packages", "regular",  "theodolites",
                        "express",   "bold",    "even",     "silent",
                        "slyly",     "idle",    "blithely", "daring"};

constexpr int64_t kMinDate = 8035;   // 1992-01-01
constexpr int64_t kMaxDate = 10440;  // 1998-08-02
constexpr int64_t kCurrentDate = 9298;  // 1995-06-17 (return-flag pivot)

std::string Pad9(uint64_t n) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%09llu", static_cast<unsigned long long>(n));
  return buf;
}

template <size_t N>
const char* Pick(Random* rng, const char* const (&list)[N]) {
  return list[rng->Uniform(N)];
}

std::string Comment(Random* rng, int words) {
  std::string out;
  for (int i = 0; i < words; ++i) {
    if (i) out.push_back(' ');
    out += Pick(rng, kWords);
  }
  return out;
}

std::string Phone(Random* rng, int nationkey) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%d-%03d-%03d-%04d", 10 + nationkey,
                static_cast<int>(rng->UniformRange(100, 999)),
                static_cast<int>(rng->UniformRange(100, 999)),
                static_cast<int>(rng->UniformRange(1000, 9999)));
  return buf;
}

double Money(Random* rng, double lo, double hi) {
  double v = lo + rng->NextDouble() * (hi - lo);
  return std::round(v * 100.0) / 100.0;
}

uint64_t Scaled(double sf, uint64_t base, uint64_t min_rows) {
  return std::max<uint64_t>(min_rows,
                            static_cast<uint64_t>(sf * static_cast<double>(base)));
}

}  // namespace

const std::vector<std::string>& TpchGenerator::SchemaSql() {
  // Derived from the shared table specs (table_spec.h), so the loaders
  // and the fleet's partitioner can never disagree on a column list.
  static const std::vector<std::string>* kSchemas = [] {
    auto* schemas = new std::vector<std::string>;
    for (const TableSpec& spec : TpchTables()) {
      schemas->push_back(spec.CreateTableSql());
    }
    return schemas;
  }();
  return *kSchemas;
}

TpchGenerator::TpchGenerator(TpchConfig config)
    : config_(config), rng_(config.seed) {
  double sf = config_.scale_factor;
  suppliers_ = Scaled(sf, 10'000, 10);
  customers_ = Scaled(sf, 150'000, 30);
  parts_ = Scaled(sf, 200'000, 40);
  orders_ = Scaled(sf, 1'500'000, 150);
}

Status TpchGenerator::LoadInto(sql::Database* db, sim::CostModel* cost) {
  for (const std::string& ddl : SchemaSql()) {
    RETURN_IF_ERROR(db->Execute(ddl).status());
  }
  RETURN_IF_ERROR(LoadRegionNation(db, cost));
  RETURN_IF_ERROR(LoadSupplier(db, cost));
  RETURN_IF_ERROR(LoadCustomer(db, cost));
  RETURN_IF_ERROR(LoadPart(db, cost));
  RETURN_IF_ERROR(LoadPartSupp(db, cost));
  RETURN_IF_ERROR(LoadOrdersLineitem(db, cost));
  return Status::OK();
}

Status TpchGenerator::LoadRegionNation(sql::Database* db,
                                       sim::CostModel* cost) {
  std::vector<Row> regions;
  for (int i = 0; i < 5; ++i) {
    regions.push_back(Row{Value::Int(i), Value::String(kRegions[i]),
                          Value::String(Comment(&rng_, 6))});
  }
  RETURN_IF_ERROR(db->BulkLoad("region", regions, cost));

  std::vector<Row> nations;
  for (int i = 0; i < 25; ++i) {
    nations.push_back(Row{Value::Int(i), Value::String(kNations[i].name),
                          Value::Int(kNations[i].region),
                          Value::String(Comment(&rng_, 8))});
  }
  return db->BulkLoad("nation", nations, cost);
}

Status TpchGenerator::LoadSupplier(sql::Database* db, sim::CostModel* cost) {
  std::vector<Row> rows;
  rows.reserve(suppliers_);
  for (uint64_t i = 1; i <= suppliers_; ++i) {
    int nation = static_cast<int>(rng_.Uniform(25));
    std::string comment = Comment(&rng_, 8);
    // TPC-H plants "Customer ... Complaints" in ~5 per 10k suppliers (Q16).
    if (i % 1999 == 7 || (suppliers_ < 2000 && i == 7)) {
      comment = "timid Customer braids sleep Complaints " + comment;
    }
    rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                       Value::String("Supplier#" + Pad9(i)),
                       Value::String(Comment(&rng_, 3)), Value::Int(nation),
                       Value::String(Phone(&rng_, nation)),
                       Value::Double(Money(&rng_, -999.99, 9999.99)),
                       Value::String(comment)});
  }
  return db->BulkLoad("supplier", rows, cost);
}

Status TpchGenerator::LoadCustomer(sql::Database* db, sim::CostModel* cost) {
  std::vector<Row> rows;
  rows.reserve(customers_);
  for (uint64_t i = 1; i <= customers_; ++i) {
    int nation = static_cast<int>(rng_.Uniform(25));
    rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                       Value::String("Customer#" + Pad9(i)),
                       Value::String(Comment(&rng_, 3)), Value::Int(nation),
                       Value::String(Phone(&rng_, nation)),
                       Value::Double(Money(&rng_, -999.99, 9999.99)),
                       Value::String(Pick(&rng_, kSegments)),
                       Value::String(Comment(&rng_, 10))});
  }
  return db->BulkLoad("customer", rows, cost);
}

Status TpchGenerator::LoadPart(sql::Database* db, sim::CostModel* cost) {
  std::vector<Row> rows;
  rows.reserve(parts_);
  part_price_.assign(parts_ + 1, 0.0);
  for (uint64_t i = 1; i <= parts_; ++i) {
    std::string name = std::string(Pick(&rng_, kColors)) + " " +
                       Pick(&rng_, kColors) + " " + Pick(&rng_, kColors);
    int mfgr = static_cast<int>(rng_.UniformRange(1, 5));
    int brand = mfgr * 10 + static_cast<int>(rng_.UniformRange(1, 5));
    std::string type = std::string(Pick(&rng_, kTypes1)) + " " +
                       Pick(&rng_, kTypes2) + " " + Pick(&rng_, kTypes3);
    std::string container =
        std::string(Pick(&rng_, kContainers1)) + " " + Pick(&rng_, kContainers2);
    // TPC-H retail price formula keeps prices in [900, 2100).
    double price = 900.0 + (static_cast<double>(i % 1000) / 10.0) +
                   100.0 * static_cast<double>(i % 10);
    part_price_[i] = price;
    rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                       Value::String(std::move(name)),
                       Value::String("Manufacturer#" + std::to_string(mfgr)),
                       Value::String("Brand#" + std::to_string(brand)),
                       Value::String(std::move(type)),
                       Value::Int(rng_.UniformRange(1, 50)),
                       Value::String(std::move(container)),
                       Value::Double(price), Value::String(Comment(&rng_, 5))});
  }
  return db->BulkLoad("part", rows, cost);
}

Status TpchGenerator::LoadPartSupp(sql::Database* db, sim::CostModel* cost) {
  std::vector<Row> rows;
  rows.reserve(parts_ * 4);
  for (uint64_t p = 1; p <= parts_; ++p) {
    for (int j = 0; j < 4; ++j) {
      uint64_t supp =
          (p + static_cast<uint64_t>(j) * (suppliers_ / 4 + 1)) % suppliers_ + 1;
      rows.push_back(Row{Value::Int(static_cast<int64_t>(p)),
                         Value::Int(static_cast<int64_t>(supp)),
                         Value::Int(rng_.UniformRange(1, 9999)),
                         Value::Double(Money(&rng_, 1.0, 1000.0)),
                         Value::String(Comment(&rng_, 12))});
    }
  }
  return db->BulkLoad("partsupp", rows, cost);
}

Status TpchGenerator::LoadOrdersLineitem(sql::Database* db,
                                         sim::CostModel* cost) {
  std::vector<Row> orders;
  std::vector<Row> lines;
  orders.reserve(orders_);
  lines.reserve(orders_ * 4);

  for (uint64_t o = 1; o <= orders_; ++o) {
    uint64_t cust = rng_.Uniform(customers_) + 1;
    int64_t odate = rng_.UniformRange(kMinDate, kMaxDate - 151);
    int nlines = static_cast<int>(rng_.UniformRange(1, 7));
    double total = 0;
    int f_count = 0;

    for (int ln = 1; ln <= nlines; ++ln) {
      uint64_t part = rng_.Uniform(parts_) + 1;
      uint64_t supp =
          (part + rng_.Uniform(4) * (suppliers_ / 4 + 1)) % suppliers_ + 1;
      double qty = static_cast<double>(rng_.UniformRange(1, 50));
      double price = part_price_[part] * qty / 10.0;
      double discount = static_cast<double>(rng_.UniformRange(0, 10)) / 100.0;
      double tax = static_cast<double>(rng_.UniformRange(0, 8)) / 100.0;
      int64_t shipdate = odate + rng_.UniformRange(1, 121);
      int64_t commitdate = odate + rng_.UniformRange(30, 90);
      int64_t receiptdate = shipdate + rng_.UniformRange(1, 30);
      std::string returnflag =
          receiptdate <= kCurrentDate ? (rng_.Bernoulli(0.5) ? "R" : "A") : "N";
      std::string linestatus = shipdate > kCurrentDate ? "O" : "F";
      if (linestatus == "F") ++f_count;
      total += price * (1.0 + tax) * (1.0 - discount);

      lines.push_back(Row{
          Value::Int(static_cast<int64_t>(o)),
          Value::Int(static_cast<int64_t>(part)),
          Value::Int(static_cast<int64_t>(supp)), Value::Int(ln),
          Value::Double(qty), Value::Double(std::round(price * 100) / 100),
          Value::Double(discount), Value::Double(tax),
          Value::String(std::move(returnflag)),
          Value::String(std::move(linestatus)), Value::Date(shipdate),
          Value::Date(commitdate), Value::Date(receiptdate),
          Value::String(Pick(&rng_, kInstructs)),
          Value::String(Pick(&rng_, kShipModes)),
          Value::String(Comment(&rng_, 4))});
    }

    std::string status = f_count == nlines ? "F" : (f_count == 0 ? "O" : "P");
    std::string comment = Comment(&rng_, 6);
    // ~1% of orders mention "special ... requests" (Q13's anti-pattern).
    if (o % 97 == 13) comment = "special packages requests " + comment;
    orders.push_back(Row{
        Value::Int(static_cast<int64_t>(o)),
        Value::Int(static_cast<int64_t>(cust)), Value::String(std::move(status)),
        Value::Double(std::round(total * 100) / 100), Value::Date(odate),
        Value::String(Pick(&rng_, kPriorities)),
        Value::String("Clerk#" + Pad9(rng_.Uniform(1000) + 1)), Value::Int(0),
        Value::String(std::move(comment))});
  }
  RETURN_IF_ERROR(db->BulkLoad("orders", orders, cost));
  return db->BulkLoad("lineitem", lines, cost);
}

}  // namespace ironsafe::tpch
