#ifndef IRONSAFE_COMMON_STATUS_H_
#define IRONSAFE_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace ironsafe {

/// Canonical error codes used across every IronSafe module.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kCorruption,         ///< stored data failed an integrity check
  kStaleData,          ///< freshness (rollback) verification failed
  kPermissionDenied,   ///< a policy check rejected the operation
  kUnauthenticated,    ///< attestation or key verification failed
  kFailedPrecondition,
  kResourceExhausted,  ///< e.g. simulated EPC or memory cap hit
  kUnimplemented,
  kInternal,
  kUnavailable,        ///< transiently unreachable (dropped frame, node down)
};

/// Returns a stable human-readable name, e.g. "Corruption".
std::string_view StatusCodeToString(StatusCode code);

/// Result of an operation that can fail: a code plus a contextual message.
///
/// IronSafe library code never throws; fallible functions return `Status`
/// (or `Result<T>`, see result.h). This mirrors the Arrow/RocksDB idiom.
/// `[[nodiscard]]`: with -Werror=unused-result (top-level CMakeLists.txt)
/// a call whose Status is dropped fails the build; `(void)` marks a
/// deliberate discard.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status StaleData(std::string msg) {
    return Status(StatusCode::kStaleData, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status Unauthenticated(std::string msg) {
    return Status(StatusCode::kUnauthenticated, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsStaleData() const { return code_ == StatusCode::kStaleData; }
  bool IsPermissionDenied() const {
    return code_ == StatusCode::kPermissionDenied;
  }
  bool IsUnauthenticated() const {
    return code_ == StatusCode::kUnauthenticated;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace ironsafe

/// Propagates a non-OK Status to the caller.
#define RETURN_IF_ERROR(expr)                       \
  do {                                              \
    ::ironsafe::Status _st = (expr);                \
    if (!_st.ok()) return _st;                      \
  } while (0)

#endif  // IRONSAFE_COMMON_STATUS_H_
