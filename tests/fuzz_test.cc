// Adversarial inputs for the one row-format decoder
// (ColumnBatch::AppendSerialized) in both of its framings: a heap-file
// page (ColumnBatch::FromPage) and the wire's record batch
// (net::DeserializeBatches, and DeserializeResult on top of it). Every
// mutation must fail with a typed Status of the expected code, never
// crash, and never size an allocation by a count the bytes claim (a
// reservation for 2^40 rows or a 4 GiB string would abort the test).
// Deterministic: the random sweeps use fixed seeds, plus one more that
// IRONSAFE_FUZZ_SEED picks (scripts/check.sh sweeps it under ASan and
// UBSan).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/wire.h"
#include "sql/column_batch.h"
#include "sql/page_store.h"

namespace ironsafe {
namespace {

using sql::Value;

constexpr size_t kCols = 4;

/// Column 0 is a string, so row 0 reads: u16 arity, string tag, u32
/// length, the bytes, then column 1's tag.
sql::QueryResult FuzzRows() {
  sql::QueryResult result;
  result.schema.AddColumn(sql::Column{"s", sql::Type::kString});
  result.schema.AddColumn(sql::Column{"a", sql::Type::kInt64});
  result.schema.AddColumn(sql::Column{"x", sql::Type::kDouble});
  result.schema.AddColumn(sql::Column{"b", sql::Type::kBool});
  for (int i = 0; i < 12; ++i) {
    result.rows.push_back(sql::Row{
        Value::String("row-" + std::to_string(i)), Value::Int(i),
        i % 4 == 0 ? Value::Null() : Value::Double(i * 0.5),
        Value::Bool(i % 2 == 0)});
  }
  return result;
}

/// The same rows in one framing: where row 0 starts, and the decode.
struct Framing {
  Bytes bytes;
  size_t first_row;
  std::function<Status(const Bytes&)> decode;
};

Framing Wire() {
  sql::QueryResult result = FuzzRows();
  const size_t header = net::SerializeResult({result.schema, {}}).size();
  return {net::SerializeResult(result), header, [](const Bytes& b) {
            auto rows = net::DeserializeResult(b);
            Status batches = net::DeserializeBatches(b).status();
            EXPECT_EQ(rows.status().code(), batches.code());
            return batches;
          }};
}

Framing Page() {
  sql::QueryResult result = FuzzRows();
  Bytes page;
  PutU16(&page, static_cast<uint16_t>(result.rows.size()));
  for (const sql::Row& row : result.rows) sql::SerializeRow(row, &page);
  return {page, 2, [](const Bytes& b) {
            return sql::ColumnBatch::FromPage(b, kCols).status();
          }};
}

void ExpectCode(const Status& st, StatusCode want, const std::string& at) {
  EXPECT_FALSE(st.ok()) << at;
  EXPECT_EQ(st.code(), want) << at << ": " << st.ToString();
}

void ExpectTagsRejected(const Framing& f) {
  ASSERT_TRUE(f.decode(f.bytes).ok());
  const size_t str_len = GetU32(f.bytes.data() + f.first_row + 3);
  // Column 0's tag, and column 1's after the string payload.
  for (size_t at : {f.first_row + 2, f.first_row + 7 + str_len}) {
    for (int tag = 6; tag <= 255; ++tag) {
      Bytes mutated = f.bytes;
      mutated[at] = static_cast<uint8_t>(tag);
      ExpectCode(f.decode(mutated), StatusCode::kCorruption,
                 "tag " + std::to_string(tag) + " at " + std::to_string(at));
    }
  }
}

void ExpectArityRejected(const Framing& f) {
  ASSERT_EQ(GetU16(f.bytes.data() + f.first_row), kCols);
  for (size_t arity : {kCols - 1, kCols + 1}) {
    Bytes mutated = f.bytes;
    mutated[f.first_row] = static_cast<uint8_t>(arity);
    ExpectCode(f.decode(mutated), StatusCode::kCorruption,
               "arity " + std::to_string(arity));
  }
}

void ExpectHugeStringLengthIsTruncation(const Framing& f) {
  Bytes mutated = f.bytes;
  for (size_t i = 0; i < 4; ++i) mutated[f.first_row + 3 + i] = 0xFF;
  ExpectCode(f.decode(mutated), StatusCode::kInvalidArgument,
             "string length 0xFFFFFFFF");
}

/// Byte flips, byte runs and splices of the intact encoding at fixed
/// seeds: each either decodes or fails with one of the decoder's codes.
void ExpectSeededMutationsFailClosed(const Framing& f, uint64_t seed) {
  Random rng(seed);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = f.bytes;
    const size_t at = rng.Uniform(mutated.size());
    switch (rng.Uniform(3)) {
      case 0:
        mutated[at] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
        break;
      case 1:
        for (size_t i = at; i < mutated.size() && i < at + 4; ++i) {
          mutated[i] = static_cast<uint8_t>(rng.Uniform(256));
        }
        break;
      default: {  // splice: a later stretch copied over this one
        const size_t from = rng.Uniform(mutated.size());
        const size_t len = rng.Uniform(16) + 1;
        for (size_t i = 0; i < len && at + i < mutated.size() &&
                           from + i < f.bytes.size();
             ++i) {
          mutated[at + i] = f.bytes[from + i];
        }
        break;
      }
    }
    Status st = f.decode(mutated);
    if (!st.ok()) {
      EXPECT_TRUE(st.code() == StatusCode::kCorruption ||
                  st.code() == StatusCode::kInvalidArgument)
          << "seed " << seed << " trial " << trial << ": " << st.ToString();
    }
  }
}

TEST(WireProperty, EveryTruncationFailsClosed) {
  Framing f = Wire();
  ASSERT_TRUE(f.decode(f.bytes).ok());
  const uint64_t nrows = FuzzRows().rows.size();
  for (size_t len = 0; len < f.bytes.size(); ++len) {
    Bytes prefix(f.bytes.begin(), f.bytes.begin() + len);
    // Once the row count is in, a prefix too short to hold 2 bytes per
    // row trips the count bound; every other prefix is a truncation.
    const bool count_bound =
        len >= f.first_row && nrows > (len - f.first_row) / 2;
    ExpectCode(f.decode(prefix),
               count_bound ? StatusCode::kCorruption
                           : StatusCode::kInvalidArgument,
               "prefix " + std::to_string(len));
  }
}

TEST(WireProperty, HugeRowCountInShortWireIsCorruption) {
  Bytes wire;
  PutU32(&wire, 1);
  PutLengthPrefixed(&wire, std::string_view("a"));
  wire.push_back(static_cast<uint8_t>(sql::Type::kInt64));
  PutU64(&wire, 1ull << 40);
  for (int i = 0; i < 10; ++i) {  // row 0 and a few more arity headers
    PutU16(&wire, 1);
    wire.push_back(static_cast<uint8_t>(sql::Type::kNull));
  }
  ASSERT_LT(wire.size(), 64u);
  ExpectCode(net::DeserializeBatches(wire).status(), StatusCode::kCorruption,
             "2^40 rows");
  ExpectCode(net::DeserializeResult(wire).status(), StatusCode::kCorruption,
             "2^40 rows");
}

TEST(WireProperty, HugeStringLengthIsTruncation) {
  ExpectHugeStringLengthIsTruncation(Wire());
}

TEST(WireProperty, UnknownValueTagsAreCorruption) {
  ExpectTagsRejected(Wire());
}

TEST(WireProperty, ArityOffByOneIsCorruption) { ExpectArityRejected(Wire()); }

TEST(WireProperty, SeededMutationsFailClosed) {
  for (uint64_t seed : {1, 2, 3}) ExpectSeededMutationsFailClosed(Wire(), seed);
}

TEST(ColumnBatchCodec, EveryTruncationOfAPageFailsClosed) {
  Framing f = Page();
  ASSERT_TRUE(f.decode(f.bytes).ok());
  for (size_t len = 0; len < f.bytes.size(); ++len) {
    Bytes prefix(f.bytes.begin(), f.bytes.begin() + len);
    ExpectCode(f.decode(prefix), StatusCode::kInvalidArgument,
               "prefix " + std::to_string(len));
  }
}

TEST(ColumnBatchCodec, HugeStringLengthIsTruncation) {
  ExpectHugeStringLengthIsTruncation(Page());
}

TEST(ColumnBatchCodec, UnknownValueTagsAreCorruption) {
  ExpectTagsRejected(Page());
}

TEST(ColumnBatchCodec, ArityOffByOneIsCorruption) {
  ExpectArityRejected(Page());
}

TEST(ColumnBatchCodec, SeededMutationsFailClosed) {
  for (uint64_t seed : {1, 2, 3}) ExpectSeededMutationsFailClosed(Page(), seed);
}

uint64_t EnvSeed() {
  const char* env = std::getenv("IRONSAFE_FUZZ_SEED");
  const uint64_t seed = env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
  std::printf("[fuzz] IRONSAFE_FUZZ_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

TEST(WireProperty, SeededMutationsAtEnvSeedFailClosed) {
  ExpectSeededMutationsFailClosed(Wire(), 1000 + EnvSeed());
}

TEST(ColumnBatchCodec, SeededMutationsAtEnvSeedFailClosed) {
  ExpectSeededMutationsFailClosed(Page(), 1000 + EnvSeed());
}

// ---- The decoder's bounds, one cell at a time ----

/// One serialized row of one column holding `cell`.
Bytes OneCellRow(const Bytes& cell) {
  Bytes row;
  PutU16(&row, 1);
  Append(&row, cell);
  return row;
}

/// Decodes `row` into a fresh one-column batch; on success the whole
/// input must be consumed.
Status DecodeOne(const Bytes& row) {
  sql::ColumnBatch batch(1);
  ByteReader reader(row);
  Status st = batch.AppendSerialized(&reader);
  if (st.ok()) {
    EXPECT_TRUE(reader.AtEnd());
  }
  return st;
}

Bytes StringCell(uint32_t claimed_len, std::string_view bytes) {
  Bytes cell = {static_cast<uint8_t>(sql::Type::kString)};
  PutU32(&cell, claimed_len);
  Append(&cell, bytes);
  return cell;
}

TEST(ColumnBatchCodec, StringLengthEqualToBytesLeftIsAccepted) {
  Bytes row = OneCellRow(StringCell(5, "hello"));
  sql::ColumnBatch batch(1);
  ByteReader reader(row);
  ASSERT_TRUE(batch.AppendSerialized(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(batch.col(0).strs[0], "hello");
  ExpectCode(DecodeOne(OneCellRow(StringCell(6, "hello"))),
             StatusCode::kInvalidArgument, "length one past the end");
  EXPECT_TRUE(DecodeOne(OneCellRow(StringCell(0, ""))).ok());
}

TEST(ColumnBatchCodec, PayloadCutAtItsLastByteIsTruncation) {
  for (const Value& v : {Value::Bool(true), Value::Int(-7),
                         Value::Double(2.5), Value::Date(9000)}) {
    Bytes cell;
    v.Serialize(&cell);
    EXPECT_TRUE(DecodeOne(OneCellRow(cell)).ok()) << v.ToString();
    cell.pop_back();
    ExpectCode(DecodeOne(OneCellRow(cell)), StatusCode::kInvalidArgument,
               "cut " + v.ToString());
  }
}

TEST(ColumnBatchCodec, StringLengthAllOnesIsTruncation) {
  ExpectCode(DecodeOne(OneCellRow(StringCell(0xFFFFFFFFu, "abc"))),
             StatusCode::kInvalidArgument, "length 0xFFFFFFFF");
  ExpectCode(DecodeOne(OneCellRow(StringCell(0xFFFFFFFFu, ""))),
             StatusCode::kInvalidArgument, "length 0xFFFFFFFF, no bytes");
}

}  // namespace
}  // namespace ironsafe
