#ifndef IRONSAFE_COMMON_RESULT_H_
#define IRONSAFE_COMMON_RESULT_H_

#include <cassert>
#include <utility>
#include <variant>

#include "common/status.h"

namespace ironsafe {

/// Holds either a value of type T or a non-OK Status explaining why the
/// value is absent. The IronSafe analogue of arrow::Result / StatusOr.
/// `[[nodiscard]]` like Status: a dropped Result fails the build.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value and from Status so call sites can `return value;`
  /// or `return Status::NotFound(...)`.
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : rep_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(rep_).ok() && "Result built from OK status");
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(Result&&) noexcept = default;

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    return ok() ? kOk : std::get<Status>(rep_);
  }

  /// Requires ok().
  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

}  // namespace ironsafe

#define IRONSAFE_CONCAT_IMPL_(x, y) x##y
#define IRONSAFE_CONCAT_(x, y) IRONSAFE_CONCAT_IMPL_(x, y)

/// ASSIGN_OR_RETURN(auto v, Fallible()) — binds the value or propagates
/// the error Status to the caller.
#define ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  ASSIGN_OR_RETURN_IMPL_(IRONSAFE_CONCAT_(_res_, __LINE__), lhs, rexpr)

#define ASSIGN_OR_RETURN_IMPL_(res, lhs, rexpr) \
  auto res = (rexpr);                           \
  if (!res.ok()) return res.status();           \
  lhs = std::move(res).value()

#endif  // IRONSAFE_COMMON_RESULT_H_
