#ifndef IRONSAFE_SQL_AST_H_
#define IRONSAFE_SQL_AST_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sql/schema.h"
#include "sql/value.h"

namespace ironsafe::sql {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;
struct SelectStmt;

enum class ExprKind {
  kLiteral,
  kColumn,
  kStar,            ///< SELECT * or COUNT(*)
  kUnary,
  kBinary,
  kFunction,        ///< scalar functions: year(x), substr(x,a,b), ...
  kAggregate,
  kCase,
  kInList,          ///< expr [NOT] IN (v1, v2, ...)
  kInSubquery,      ///< expr [NOT] IN (SELECT ...)
  kExists,          ///< [NOT] EXISTS (SELECT ...)
  kScalarSubquery,  ///< (SELECT single value)
  kBetween,         ///< expr BETWEEN lo AND hi
  kLike,            ///< expr [NOT] LIKE 'pattern'
  kIsNull,          ///< expr IS [NOT] NULL
};

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr, kConcat,
};

enum class UnOp { kNeg, kNot };

enum class AggFunc { kCountStar, kCount, kSum, kAvg, kMin, kMax };

std::string_view BinOpName(BinOp op);
std::string_view AggFuncName(AggFunc f);

/// One SQL expression node. A single tagged struct (rather than a class
/// hierarchy) keeps cloning and printing — which the policy rewriter
/// relies on — simple and total.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  Value literal;                 // kLiteral
  std::string column_name;       // kColumn (possibly "alias.name")
  UnOp un_op = UnOp::kNeg;       // kUnary (operand in left)
  BinOp bin_op = BinOp::kAdd;    // kBinary
  ExprPtr left;
  ExprPtr right;
  std::string func_name;         // kFunction (lowercased)
  std::vector<ExprPtr> args;     // kFunction / kInList / kBetween(lo,hi)
  AggFunc agg_func = AggFunc::kCount;  // kAggregate (arg in args[0])
  bool distinct = false;         // kAggregate: COUNT(DISTINCT x)
  bool negated = false;          // kInList/kInSubquery/kExists/kLike/kIsNull
  std::vector<std::pair<ExprPtr, ExprPtr>> when_clauses;  // kCase
  ExprPtr else_expr;             // kCase
  std::unique_ptr<SelectStmt> subquery;  // k*Subquery / kExists

  ExprPtr Clone() const;
  std::string ToString() const;

  // ---- Builders ----
  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeColumn(std::string name);
  static ExprPtr MakeBinary(BinOp op, ExprPtr l, ExprPtr r);
  static ExprPtr MakeUnary(UnOp op, ExprPtr operand);
  static ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args);
};

/// A table in FROM: a base table, or a derived table (subquery) that must
/// carry an alias.
struct TableRef {
  std::string table_name;
  std::string alias;  ///< defaults to table_name; required for subqueries
  std::unique_ptr<SelectStmt> subquery;

  TableRef() = default;
  TableRef(std::string name, std::string a)
      : table_name(std::move(name)), alias(std::move(a)) {}
  TableRef(TableRef&&) = default;
  TableRef& operator=(TableRef&&) = default;

  TableRef Clone() const;
};

/// An explicit `JOIN <table> ON <cond>` following the first FROM entry.
struct JoinClause {
  TableRef table;
  ExprPtr on;
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;  ///< output column name; derived from expr if empty
};

struct OrderItem {
  ExprPtr expr;
  bool desc = false;
};

/// A SELECT statement (also used for subqueries).
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;     ///< comma-separated relations
  std::vector<JoinClause> joins;  ///< explicit joins appended to `from`
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;

  std::unique_ptr<SelectStmt> Clone() const;
  std::string ToString() const;
};

struct CreateTableStmt {
  std::string table_name;
  std::vector<Column> columns;
};

struct InsertStmt {
  std::string table_name;
  std::vector<std::string> columns;          ///< empty = all, in order
  std::vector<std::vector<ExprPtr>> values;  ///< rows of literal exprs
};

struct DeleteStmt {
  std::string table_name;
  ExprPtr where;  ///< null = delete all
};

struct UpdateStmt {
  std::string table_name;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

// ---- Expression analysis, shared by the executors and the planners ----

/// Flattens a conjunction into its AND-ed parts, left to right; a null
/// expression yields none.
void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out);

/// Adds every column name `e` references to `cols`. A subquery node sets
/// *has_subquery; its body is not entered (only an IN-subquery's left
/// operand is).
void CollectColumns(const Expr& e, std::set<std::string>* cols,
                    bool* has_subquery);

/// True when a subquery hangs anywhere below `e` (null-safe).
bool ExprHasSubquery(const Expr* e);

/// True when `stmt` reads a derived table or has a subquery in any ON,
/// WHERE, HAVING, select item, GROUP BY or ORDER BY expression.
bool SelectHasSubquery(const SelectStmt& stmt);

/// True when every name in `cols` resolves in `schema` (an ambiguous name
/// counts as present).
bool ResolvableBy(const std::set<std::string>& cols, const Schema& schema);

/// One WHERE conjunct, the columns it reads, and whether a scan or join
/// has claimed it yet.
struct ConjunctInfo {
  const Expr* expr = nullptr;
  std::set<std::string> columns;
  bool has_subquery = false;
  bool consumed = false;
};

std::vector<ConjunctInfo> AnalyzeConjuncts(const Expr* where);

/// Claims, for a scan of `schema`, every unclaimed subquery-free conjunct
/// that reads only that relation: the conjuncts a storage fragment
/// pushes down, the plain pipeline pushes into its scan, and the
/// oblivious pipeline masks with after a full read.
std::vector<const Expr*> ClaimScanFilters(const Schema& schema,
                                          std::vector<ConjunctInfo>* conjuncts);

/// The conjuncts no scan or join claimed: the residual WHERE.
std::vector<const Expr*> UnclaimedConjuncts(
    const std::vector<ConjunctInfo>& conjuncts);

/// Any parsed statement.
struct Statement {
  enum class Kind { kSelect, kCreateTable, kInsert, kDelete, kUpdate };
  Kind kind = Kind::kSelect;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<UpdateStmt> update;
};

}  // namespace ironsafe::sql

#endif  // IRONSAFE_SQL_AST_H_
