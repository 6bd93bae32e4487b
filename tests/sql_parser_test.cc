#include <gtest/gtest.h>

#include "sql/parser.h"
#include "sql/tokenizer.h"

namespace ironsafe::sql {
namespace {

TEST(TokenizerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, 42, 3.14, 'str' FROM t WHERE x <= 5");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("select"));
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kSymbol);
  EXPECT_EQ((*tokens)[3].int_value, 42);
  EXPECT_DOUBLE_EQ((*tokens)[5].double_value, 3.14);
  EXPECT_EQ((*tokens)[7].text, "str");
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(TokenizerTest, EscapedQuote) {
  auto tokens = Tokenize("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(TokenizerTest, LineComments) {
  auto tokens = Tokenize("SELECT -- comment\n 1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].int_value, 1);
}

TEST(TokenizerTest, UnterminatedString) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(TokenizerTest, TwoCharSymbols) {
  auto tokens = Tokenize("a <> b <= c >= d != e || f");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsSymbol("<>"));
  EXPECT_TRUE((*tokens)[3].IsSymbol("<="));
  EXPECT_TRUE((*tokens)[5].IsSymbol(">="));
  EXPECT_TRUE((*tokens)[7].IsSymbol("!="));
  EXPECT_TRUE((*tokens)[9].IsSymbol("||"));
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = ParseSelect("SELECT a, b FROM t WHERE a > 5 ORDER BY b DESC LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->items.size(), 2u);
  EXPECT_EQ((*stmt)->from.size(), 1u);
  ASSERT_TRUE((*stmt)->where != nullptr);
  EXPECT_EQ((*stmt)->order_by.size(), 1u);
  EXPECT_TRUE((*stmt)->order_by[0].desc);
  EXPECT_EQ((*stmt)->limit, 10);
}

TEST(ParserTest, SelectStar) {
  auto stmt = ParseSelect("SELECT * FROM lineitem");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->items[0].expr->kind, ExprKind::kStar);
}

TEST(ParserTest, Aliases) {
  auto stmt = ParseSelect("SELECT sum(x) AS total, y cnt FROM t g");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->items[0].alias, "total");
  EXPECT_EQ((*stmt)->items[1].alias, "cnt");
  EXPECT_EQ((*stmt)->from[0].alias, "g");
}

TEST(ParserTest, JoinsAndGroupBy) {
  auto stmt = ParseSelect(
      "SELECT c_name, count(*) FROM customer c JOIN orders o ON "
      "c.c_custkey = o.o_custkey GROUP BY c_name HAVING count(*) > 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->joins.size(), 1u);
  EXPECT_EQ((*stmt)->group_by.size(), 1u);
  ASSERT_TRUE((*stmt)->having != nullptr);
}

TEST(ParserTest, CommaJoin) {
  auto stmt = ParseSelect("SELECT * FROM a, b, c WHERE a.x = b.y");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->from.size(), 3u);
}

TEST(ParserTest, DateAndIntervalLiterals) {
  auto e = ParseExpression("o_orderdate < DATE '1995-03-15' + INTERVAL '3' MONTH");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  // INTERVAL arithmetic becomes date_add(...).
  EXPECT_NE((*e)->ToString().find("date_add"), std::string::npos);
}

TEST(ParserTest, IntervalSubtraction) {
  auto e = ParseExpression("d - INTERVAL '90' DAY");
  ASSERT_TRUE(e.ok());
  // Subtraction is negated inside date_add.
  EXPECT_NE((*e)->ToString().find("-90"), std::string::npos);
}

TEST(ParserTest, InListAndSubquery) {
  auto e1 = ParseExpression("x IN (1, 2, 3)");
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ((*e1)->kind, ExprKind::kInList);

  auto e2 = ParseExpression("x NOT IN (SELECT y FROM t)");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e2)->kind, ExprKind::kInSubquery);
  EXPECT_TRUE((*e2)->negated);
}

TEST(ParserTest, ExistsAndScalarSubquery) {
  auto e1 = ParseExpression("EXISTS (SELECT 1 FROM t WHERE t.a = o.b)");
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ((*e1)->kind, ExprKind::kExists);

  auto e2 = ParseExpression("price < (SELECT min(p) FROM parts)");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e2)->kind, ExprKind::kBinary);
  EXPECT_EQ((*e2)->right->kind, ExprKind::kScalarSubquery);
}

TEST(ParserTest, CaseWhen) {
  auto e = ParseExpression(
      "CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kCase);
  EXPECT_EQ((*e)->when_clauses.size(), 2u);
}

TEST(ParserTest, BetweenLikeIsNull) {
  EXPECT_EQ((*ParseExpression("x BETWEEN 1 AND 10"))->kind, ExprKind::kBetween);
  EXPECT_EQ((*ParseExpression("s LIKE '%green%'"))->kind, ExprKind::kLike);
  EXPECT_EQ((*ParseExpression("s NOT LIKE 'a_'"))->negated, true);
  EXPECT_EQ((*ParseExpression("x IS NULL"))->kind, ExprKind::kIsNull);
  EXPECT_TRUE((*ParseExpression("x IS NOT NULL"))->negated);
}

TEST(ParserTest, ExtractBecomesFunction) {
  auto e = ParseExpression("EXTRACT(YEAR FROM o_orderdate)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kFunction);
  EXPECT_EQ((*e)->func_name, "year");
}

TEST(ParserTest, OperatorPrecedence) {
  auto e = ParseExpression("1 + 2 * 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(1 + (2 * 3))");

  auto e2 = ParseExpression("a OR b AND c");
  EXPECT_EQ((*e2)->ToString(), "(a OR (b AND c))");
}

TEST(ParserTest, CountDistinct) {
  auto e = ParseExpression("count(DISTINCT l_suppkey)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kAggregate);
  EXPECT_TRUE((*e)->distinct);
}

TEST(ParserTest, CreateTable) {
  auto stmt = Parse(
      "CREATE TABLE orders (o_orderkey INTEGER, o_totalprice DECIMAL(15,2), "
      "o_orderdate DATE, o_comment VARCHAR(79))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kCreateTable);
  const auto& cols = stmt->create_table->columns;
  ASSERT_EQ(cols.size(), 4u);
  EXPECT_EQ(cols[0].type, Type::kInt64);
  EXPECT_EQ(cols[1].type, Type::kDouble);
  EXPECT_EQ(cols[2].type, Type::kDate);
  EXPECT_EQ(cols[3].type, Type::kString);
}

TEST(ParserTest, InsertMultipleRows) {
  auto stmt = Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kInsert);
  EXPECT_EQ(stmt->insert->values.size(), 2u);
  EXPECT_EQ(stmt->insert->columns.size(), 2u);
}

TEST(ParserTest, DeleteAndUpdate) {
  auto d = Parse("DELETE FROM t WHERE a = 1");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, Statement::Kind::kDelete);

  auto u = Parse("UPDATE t SET a = a + 1, b = 'z' WHERE c > 0");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->update->assignments.size(), 2u);
}

TEST(ParserTest, ErrorsAreInformative) {
  auto r1 = ParseSelect("SELECT FROM t");
  EXPECT_FALSE(r1.ok());
  auto r2 = ParseSelect("SELECT a FROM t WHERE");
  EXPECT_FALSE(r2.ok());
  auto r3 = Parse("GARBAGE");
  EXPECT_FALSE(r3.ok());
  auto r4 = ParseSelect("SELECT a FROM t extra junk ; more");
  EXPECT_FALSE(r4.ok());
}

void CollectLiterals(const Expr& e, std::vector<Value>* out) {
  if (e.kind == ExprKind::kLiteral) out->push_back(e.literal);
  ForEachChild(e, [&](const Expr& c) { CollectLiterals(c, out); });
}

/// Every literal of `stmt`'s select items, WHERE and GROUP BY, in order.
std::vector<Value> Literals(const SelectStmt& stmt) {
  std::vector<Value> out;
  for (const SelectItem& item : stmt.items) CollectLiterals(*item.expr, &out);
  if (stmt.where) CollectLiterals(*stmt.where, &out);
  for (const ExprPtr& g : stmt.group_by) CollectLiterals(*g, &out);
  return out;
}

TEST(ParserTest, ToStringRoundTripsThroughParser) {
  const char* queries[] = {
      "SELECT a, sum(b) AS total FROM t WHERE c > 5 GROUP BY a ORDER BY total DESC LIMIT 3",
      "SELECT * FROM x, y WHERE x.k = y.k AND x.v BETWEEN 1 AND 9",
      "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
      "SELECT a * 0.12345, 2.0, 1e-7, 'it''s' FROM t "
      "WHERE s = 'O''Brien' AND x < 123456789.125 GROUP BY a * 0.1",
  };
  for (const char* q : queries) {
    auto first = ParseSelect(q);
    ASSERT_TRUE(first.ok()) << q;
    std::string printed = (*first)->ToString();
    auto second = ParseSelect(printed);
    ASSERT_TRUE(second.ok()) << printed;
    EXPECT_EQ((*second)->ToString(), printed);
    // The printed literals parse back to the same type and value.
    std::vector<Value> want = Literals(**first);
    std::vector<Value> got = Literals(**second);
    ASSERT_EQ(got.size(), want.size()) << printed;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].type(), want[i].type()) << printed;
      EXPECT_EQ(got[i].Compare(want[i]), 0)
          << want[i].ToString() << " printed in " << printed;
      EXPECT_EQ(got[i].AsString(), want[i].AsString()) << printed;
    }
  }
}

TEST(ParserTest, CloneIsDeepAndEqual) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE x IN (SELECT y FROM u WHERE u.z = t.z)");
  ASSERT_TRUE(stmt.ok());
  auto clone = (*stmt)->Clone();
  EXPECT_EQ(clone->ToString(), (*stmt)->ToString());
}

}  // namespace
}  // namespace ironsafe::sql
