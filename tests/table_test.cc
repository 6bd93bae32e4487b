// The one row codec shared by every table and the SQLite oracle:
// ColumnBatch round trips (rows in, rows out, and serialized pages in),
// MemoryTable's stored batch units, and fail-closed page decoding.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sql/column_batch.h"
#include "sql/page_store.h"
#include "sql/table.h"
#include "storage/block_device.h"

namespace ironsafe::sql {
namespace {

Value DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return Value::Double(d);
}

uint64_t DoubleBits(const Value& v) {
  double d = v.AsDouble();
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Same type tag and the same payload bits (doubles compared as their
/// IEEE-754 pattern, so -0.0 and NaN payloads count).
void ExpectBitIdentical(const Value& want, const Value& got,
                        const std::string& where) {
  ASSERT_EQ(want.type(), got.type()) << where;
  switch (want.type()) {
    case Type::kNull:
      break;
    case Type::kDouble:
      EXPECT_EQ(DoubleBits(want), DoubleBits(got)) << where;
      break;
    case Type::kString:
      EXPECT_EQ(want.AsString(), got.AsString()) << where;
      break;
    default:  // bool, int64, date: integer payloads
      EXPECT_EQ(want.AsInt(), got.AsInt()) << where;
      break;
  }
}

void ExpectRowsBitIdentical(const std::vector<Row>& want,
                            const ColumnBatch& batch) {
  ASSERT_EQ(batch.rows(), want.size());
  Row got;
  for (size_t r = 0; r < want.size(); ++r) {
    batch.MaterializeRow(r, &got);
    ASSERT_EQ(got.size(), want[r].size());
    for (size_t c = 0; c < got.size(); ++c) {
      ExpectBitIdentical(want[r][c], got[c],
                         "row " + std::to_string(r) + " col " +
                             std::to_string(c));
    }
  }
}

/// Column 0 mixes every Type; column 1 holds the awkward doubles;
/// column 2 the awkward strings. `long_len` sizes the longest string.
std::vector<Row> CodecRows(size_t long_len) {
  const Value kMixed[] = {
      Value::Null(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Double(1.5),
      Value::String("mixed"),
      Value::Date(-719162),
      Value::Date(20000),
  };
  const Value kDoubles[] = {
      Value::Double(-0.0),
      Value::Double(0.0),
      DoubleFromBits(0x7ff8000000000123ULL),  // quiet NaN with payload
      DoubleFromBits(0xfff0000000000001ULL),  // negative signaling NaN
      Value::Double(std::numeric_limits<double>::infinity()),
      Value::Double(std::numeric_limits<double>::denorm_min()),
      Value::Null(),
      Value::Double(-1e308),
      Value::Double(3.25),
  };
  const Value kStrings[] = {
      Value::String(""),
      Value::String(std::string(long_len, 'k')),
      Value::Null(),
      Value::String(std::string("nul\0byte", 8)),
      Value::String(""),
      Value::String("x"),
      Value::String(std::string(long_len / 2, '\xff')),
      Value::String(""),
      Value::String("end"),
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < std::size(kMixed); ++i) {
    rows.push_back(Row{kMixed[i], kDoubles[i], kStrings[i]});
  }
  return rows;
}

TEST(ColumnBatchCodec, AppendRowThenMaterializeIsBitIdentical) {
  std::vector<Row> rows = CodecRows(/*long_len=*/64 * 1024);
  ColumnBatch batch(3);
  for (const Row& row : rows) batch.AppendRow(row);
  ExpectRowsBitIdentical(rows, batch);
  // Row accounting matches the boxed-row figure the model charges.
  uint64_t total = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(batch.row_bytes(r), RowBytes(rows[r]));
    total += RowBytes(rows[r]);
  }
  EXPECT_EQ(batch.total_row_bytes(), total);
}

TEST(ColumnBatchCodec, SerializedPageThenFromPageIsBitIdentical) {
  // Rows must fit one 4 KiB page: the longest string is 3 KiB, and each
  // page takes as many whole rows as fit (the heap-file layout).
  std::vector<Row> rows = CodecRows(/*long_len=*/3 * 1024);
  std::vector<Bytes> pages;
  std::vector<Bytes> serialized;
  auto flush = [&] {
    Bytes page;
    PutU16(&page, static_cast<uint16_t>(serialized.size()));
    for (const Bytes& s : serialized) page.insert(page.end(), s.begin(), s.end());
    page.resize(PageStore::kPageSize, 0);
    pages.push_back(std::move(page));
    serialized.clear();
  };
  size_t used = 2;
  for (const Row& row : rows) {
    Bytes s;
    SerializeRow(row, &s);
    ASSERT_LE(2 + s.size(), PageStore::kPageSize);
    if (used + s.size() > PageStore::kPageSize) {
      flush();
      used = 2;
    }
    used += s.size();
    serialized.push_back(std::move(s));
  }
  flush();
  ASSERT_GT(pages.size(), 1u);

  size_t next = 0;
  for (const Bytes& page : pages) {
    auto batch = ColumnBatch::FromPage(page, 3);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    std::vector<Row> want(rows.begin() + next,
                          rows.begin() + next + (*batch)->rows());
    ExpectRowsBitIdentical(want, **batch);
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ((*batch)->row_bytes(r), RowBytes(want[r]));
    }
    next += (*batch)->rows();
  }
  EXPECT_EQ(next, rows.size());
}

TEST(PagedTableDecode, RowArityMismatchInPageIsCorruption) {
  storage::BlockDevice disk;
  PlainPageStore store(&disk);
  Schema schema({Column{"a", Type::kInt64}, Column{"b", Type::kString}});
  PagedTable table("t", schema, &store);
  table.BeginBulkLoad();
  ASSERT_TRUE(table.Append(Row{Value::Int(1), Value::String("x")}, nullptr)
                  .ok());
  ASSERT_TRUE(table.FinishBulkLoad(nullptr).ok());
  ASSERT_EQ(table.page_ids().size(), 1u);

  // Replace the stored page with one whose single row carries one value
  // more than the schema has columns.
  Row wide{Value::Int(1), Value::String("x"), Value::Int(2)};
  ASSERT_EQ(wide.size(), schema.size() + 1);
  Bytes page;
  PutU16(&page, 1);
  SerializeRow(wide, &page);
  page.resize(PageStore::kPageSize, 0);
  ASSERT_TRUE(store.WritePage(table.page_ids()[0], page, nullptr).ok());

  auto decoded = table.DecodeMorselBatch(0, nullptr);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
      << decoded.status().ToString();

  // One value short fails the same way instead of padding with NULL.
  Bytes narrow_page;
  PutU16(&narrow_page, 1);
  SerializeRow(Row{Value::Int(1)}, &narrow_page);
  narrow_page.resize(PageStore::kPageSize, 0);
  ASSERT_TRUE(
      store.WritePage(table.page_ids()[0], narrow_page, nullptr).ok());
  decoded = table.DecodeMorselBatch(0, nullptr);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

Schema TwoColumns() {
  return Schema({Column{"a", Type::kInt64}, Column{"b", Type::kString}});
}

Row NumberedRow(int64_t i) {
  return Row{Value::Int(i), Value::String("row-" + std::to_string(i))};
}

TEST(MemoryTableUnits, StoresRowsAsFullUnitsThenATail) {
  MemoryTable table("t", {TwoColumns(), {}});
  constexpr int64_t kRows = 2 * MemoryTable::kRowsPerMorsel + 452;
  size_t bytes = 0;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(table.Append(NumberedRow(i), nullptr).ok());
    bytes += RowBytes(NumberedRow(i));
  }
  EXPECT_EQ(table.row_count(), static_cast<uint64_t>(kRows));
  ASSERT_EQ(table.morsel_units(), 3u);
  // page_count is the boxed-row byte total in 4 KiB pages, as before.
  EXPECT_EQ(table.page_count(),
            (bytes + PageStore::kPageSize - 1) / PageStore::kPageSize);

  auto rows = ReadRows(table, nullptr);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), static_cast<size_t>(kRows));
  for (int64_t i = 0; i < kRows; ++i) {
    EXPECT_EQ((*rows)[i][0].AsInt(), i);
  }
  auto tail = table.DecodeMorselBatch(2, nullptr);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->batch->rows(), 452u);
  EXPECT_FALSE(tail->cached);
  EXPECT_FALSE(table.DecodeMorselBatch(3, nullptr).ok());

  // Arity is checked on Append (AppendRow itself would pad).
  EXPECT_FALSE(table.Append(Row{Value::Int(1)}, nullptr).ok());
  EXPECT_EQ(table.row_count(), static_cast<uint64_t>(kRows));
}

TEST(MemoryTableUnits, ScansShareTheStoredBatch) {
  MemoryTable table("t", {TwoColumns(), {}});
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Append(NumberedRow(i), nullptr).ok());
  }
  auto first = table.DecodeMorselBatch(0, nullptr);
  auto second = table.DecodeMorselBatch(0, nullptr);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->batch.get(), second->batch.get());
  EXPECT_FALSE(first->cached);
}

TEST(MemoryTableUnits, AppendAfterScanLeavesTheHeldBatchUnchanged) {
  MemoryTable table("t", {TwoColumns(), {}});
  std::vector<Row> before;
  for (int64_t i = 0; i < 10; ++i) {
    before.push_back(NumberedRow(i));
    ASSERT_TRUE(table.Append(before.back(), nullptr).ok());
  }
  auto held = table.DecodeMorselBatch(0, nullptr);
  ASSERT_TRUE(held.ok());

  ASSERT_TRUE(table.Append(NumberedRow(10), nullptr).ok());
  ExpectRowsBitIdentical(before, *held->batch);

  const ColumnBatch* tail = nullptr;
  {
    auto now = table.DecodeMorselBatch(0, nullptr);
    ASSERT_TRUE(now.ok());
    EXPECT_NE(now->batch.get(), held->batch.get());
    std::vector<Row> after = before;
    after.push_back(NumberedRow(10));
    ExpectRowsBitIdentical(after, *now->batch);
    tail = now->batch.get();
  }

  // With no scan holding the tail, Append fills it in place.
  ASSERT_TRUE(table.Append(NumberedRow(11), nullptr).ok());
  auto last = table.DecodeMorselBatch(0, nullptr);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->batch.get(), tail);
  EXPECT_EQ(last->batch->rows(), 12u);
}

TEST(MemoryTableUnits, RewriteRebuildsUnitsAndKeepsHeldBatches) {
  MemoryTable table("t", {TwoColumns(), {}});
  constexpr int64_t kRows = 3 * MemoryTable::kRowsPerMorsel + 7;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(table.Append(NumberedRow(i), nullptr).ok());
  }
  auto held = table.DecodeMorselBatch(1, nullptr);
  ASSERT_TRUE(held.ok());

  // Delete the even keys, negate the keys divisible by 3.
  uint64_t affected = 0;
  ASSERT_TRUE(table
                  .Rewrite(
                      [](Row* row, bool* modified) -> Result<bool> {
                        int64_t k = (*row)[0].AsInt();
                        if (k % 2 == 0) return false;
                        if (k % 3 == 0) {
                          (*row)[0] = Value::Int(-k);
                          *modified = true;
                        }
                        return true;
                      },
                      nullptr, &affected)
                  .ok());
  int64_t evens = (kRows + 1) / 2;
  int64_t odd_triples = 0;
  for (int64_t k = 3; k < kRows; k += 6) ++odd_triples;
  EXPECT_EQ(affected, static_cast<uint64_t>(evens + odd_triples));
  EXPECT_EQ(table.row_count(), static_cast<uint64_t>(kRows - evens));
  EXPECT_EQ(table.morsel_units(),
            (table.row_count() + MemoryTable::kRowsPerMorsel - 1) /
                MemoryTable::kRowsPerMorsel);

  auto rows = ReadRows(table, nullptr);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), table.row_count());
  for (size_t i = 0; i < rows->size(); ++i) {
    int64_t k = 2 * static_cast<int64_t>(i) + 1;
    EXPECT_EQ((*rows)[i][0].AsInt(), k % 3 == 0 ? -k : k);
    EXPECT_EQ((*rows)[i][1].AsString(), "row-" + std::to_string(k));
  }
  // The batch a scan held before the rewrite still shows the old rows.
  ASSERT_EQ(held->batch->rows(), MemoryTable::kRowsPerMorsel);
  EXPECT_EQ(held->batch->GetValue(0, 0).AsInt(),
            static_cast<int64_t>(MemoryTable::kRowsPerMorsel));
}

}  // namespace
}  // namespace ironsafe::sql
