#ifndef IRONSAFE_SQL_EVAL_H_
#define IRONSAFE_SQL_EVAL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/schema.h"

namespace ironsafe::sql {

/// The result of executing a SELECT.
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;

  std::string ToString(size_t max_rows = 20) const;
};

/// A lexical scope for column resolution: the current operator's
/// (schema, row), chained to outer query scopes for correlated
/// subqueries.
struct EvalScope {
  const Schema* schema = nullptr;
  const Row* row = nullptr;
  const EvalScope* parent = nullptr;
};

/// Injected by the executor so the evaluator can run nested SELECTs
/// (scalar / IN / EXISTS subqueries) with the current scope visible as
/// the outer correlation context.
class SubqueryRunner {
 public:
  virtual ~SubqueryRunner() = default;
  /// The subquery's result, read in place by the evaluator. A memoized
  /// (uncorrelated) subquery returns the same shared result on every
  /// call, so evaluating it per outer row copies no rows.
  virtual Result<std::shared_ptr<const QueryResult>> RunSubquery(
      const SelectStmt& stmt, const EvalScope* outer) = 0;

  /// True if the runner memoized `stmt` (i.e. it is uncorrelated and its
  /// result is row-independent) — lets IN-subquery evaluation build its
  /// membership set once.
  virtual bool IsCached(const SelectStmt& stmt) const {
    (void)stmt;
    return false;
  }
};

/// Evaluates expressions against rows in SQL's three-valued logic:
/// comparisons, BETWEEN, LIKE and [NOT] IN yield NULL (unknown) when an
/// operand is NULL, AND/OR/NOT follow Kleene logic, and only a filter
/// (EvalBool) maps unknown to false. So `NOT (a > 2)` drops rows whose
/// `a` is NULL, as SQL requires.
class Evaluator {
 public:
  explicit Evaluator(SubqueryRunner* subqueries = nullptr)
      : subqueries_(subqueries) {}

  Result<Value> Eval(const Expr& e, const EvalScope& scope) const;

  /// Evaluates an expression as a filter predicate (unknown -> false).
  Result<bool> EvalBool(const Expr& e, const EvalScope& scope) const;

 private:
  Result<Value> EvalBinary(const Expr& e, const EvalScope& scope) const;
  Result<Value> EvalFunction(const Expr& e, const EvalScope& scope) const;
  Result<Value> EvalSubqueryExpr(const Expr& e, const EvalScope& scope) const;

  SubqueryRunner* subqueries_;
  /// Membership set of a cached (uncorrelated) IN-subquery: serialized
  /// first-column values, plus whether the column held a NULL.
  struct InSet {
    std::set<std::string> values;
    bool has_null = false;
  };
  mutable std::map<const Expr*, InSet> in_sets_;
};

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace ironsafe::sql

#endif  // IRONSAFE_SQL_EVAL_H_
