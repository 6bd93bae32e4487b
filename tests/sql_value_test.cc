#include <gtest/gtest.h>

#include "sql/column_batch.h"
#include "sql/schema.h"
#include "sql/value.h"

namespace ironsafe::sql {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, BasicConstructorsAndAccessors) {
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Date(100).type(), Type::kDate);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(7.1).Compare(Value::Int(7)), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-1000)), 0);
  EXPECT_GT(Value::Int(0).Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("apple").Compare(Value::String("banana")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(5).Hash(), Value::Double(5.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
}

TEST(ValueTest, SerializationRoundTrip) {
  std::vector<Value> values = {
      Value::Null(),          Value::Bool(true),      Value::Int(-7),
      Value::Double(2.25),    Value::String("hello"), Value::Date(9000),
      Value::String(""),      Value::Int(INT64_MIN),
  };
  // One row of every value, decoded by the row-format decoder.
  Bytes buf;
  PutU16(&buf, static_cast<uint16_t>(values.size()));
  for (const Value& v : values) v.Serialize(&buf);
  ByteReader reader(buf);
  ColumnBatch batch(values.size());
  ASSERT_TRUE(batch.AppendSerialized(&reader).ok());
  for (size_t c = 0; c < values.size(); ++c) {
    Value back = batch.GetValue(c, 0);
    EXPECT_EQ(back.type(), values[c].type());
    EXPECT_EQ(back.Compare(values[c]), 0);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(DateTest, ParseFormatRoundTrip) {
  for (const char* iso : {"1970-01-01", "1992-02-29", "1998-12-01",
                          "2000-01-01", "2026-07-08"}) {
    auto days = ParseDate(iso);
    ASSERT_TRUE(days.ok()) << iso;
    EXPECT_EQ(FormatDate(*days), iso);
  }
}

TEST(DateTest, EpochIsZero) {
  EXPECT_EQ(*ParseDate("1970-01-01"), 0);
  EXPECT_EQ(*ParseDate("1970-01-02"), 1);
  EXPECT_EQ(*ParseDate("1969-12-31"), -1);
}

TEST(DateTest, KnownOffsets) {
  EXPECT_EQ(*ParseDate("1998-12-01") - *ParseDate("1998-11-01"), 30);
  EXPECT_EQ(*ParseDate("2000-03-01") - *ParseDate("2000-02-01"), 29);  // leap
  // 1900 is not a leap year (divisible by 100, not by 400).
  EXPECT_EQ(*ParseDate("1900-03-01") - *ParseDate("1900-02-28"), 1);
  EXPECT_EQ(*ParseDate("2000-03-01") - *ParseDate("2000-02-28"), 2);
}

TEST(DateTest, RejectsBadInput) {
  EXPECT_FALSE(ParseDate("1998/12/01").ok());
  EXPECT_FALSE(ParseDate("98-12-01").ok());
  EXPECT_FALSE(ParseDate("1998-13-01").ok());
  EXPECT_FALSE(ParseDate("1998-00-10").ok());
  EXPECT_FALSE(ParseDate("abcd-ef-gh").ok());
}

TEST(DateTest, ExtractFields) {
  int64_t d = *ParseDate("1995-03-15");
  EXPECT_EQ(DateYear(d), 1995);
  EXPECT_EQ(DateMonth(d), 3);
  EXPECT_EQ(DateDay(d), 15);
}

TEST(DateTest, AddMonths) {
  int64_t d = *ParseDate("1995-01-31");
  EXPECT_EQ(FormatDate(AddMonths(d, 1)), "1995-02-28");  // clamped
  EXPECT_EQ(FormatDate(AddMonths(d, 12)), "1996-01-31");
  EXPECT_EQ(FormatDate(AddMonths(*ParseDate("1995-06-15"), -3)),
            "1995-03-15");
}

TEST(SchemaTest, FindExactAndSuffix) {
  Schema s({{"l.l_orderkey", Type::kInt64}, {"l.l_price", Type::kDouble}});
  EXPECT_EQ(s.Find("l.l_orderkey"), 0);
  EXPECT_EQ(s.Find("l_price"), 1);
  EXPECT_EQ(s.Find("nope"), -1);
}

TEST(SchemaTest, AmbiguousBareName) {
  Schema s({{"a.id", Type::kInt64}, {"b.id", Type::kInt64}});
  EXPECT_EQ(s.Find("id"), -2);
  EXPECT_EQ(s.Find("a.id"), 0);
}

TEST(SchemaTest, ConcatAndQualify) {
  Schema a({{"x", Type::kInt64}});
  Schema b({{"y", Type::kString}});
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.size(), 2u);
  Schema q = c.Qualified("t");
  EXPECT_EQ(q.column(0).name, "t.x");
  EXPECT_EQ(q.column(1).name, "t.y");
  // Re-qualification strips the old prefix.
  Schema q2 = q.Qualified("u");
  EXPECT_EQ(q2.column(0).name, "u.x");
}

TEST(SchemaTest, RowSerializationRoundTrip) {
  Row row = {Value::Int(1), Value::String("ship"), Value::Date(500)};
  Bytes buf;
  SerializeRow(row, &buf);
  ByteReader reader(buf);
  ColumnBatch batch(row.size());
  ASSERT_TRUE(batch.AppendSerialized(&reader).ok());
  Row back;
  batch.MaterializeRow(0, &back);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[1].AsString(), "ship");
  EXPECT_EQ(back[2].type(), Type::kDate);
  EXPECT_EQ(batch.row_bytes(0), RowBytes(row));
  EXPECT_TRUE(reader.AtEnd());
}

}  // namespace
}  // namespace ironsafe::sql
