#ifndef TPS_UTIL_STATUS_H_
#define TPS_UTIL_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace tps {

/// Error category carried by a Status. Mirrors the Arrow/RocksDB convention
/// of status-based error handling: library code never throws on expected
/// failure paths; it returns a Status (or StatusOr<T>) instead.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kUnimplemented = 7,
  kIOError = 8,
  kDeadlineExceeded = 9,
  kUnavailable = 10,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A cheap value type describing the outcome of an operation.
///
/// An OK status carries no message and allocates nothing. Error statuses
/// carry a code and a message. Statuses are copyable and movable; moving
/// from a Status leaves it OK.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&& other) noexcept
      : code_(other.code_), message_(std::move(other.message_)) {
    other.code_ = StatusCode::kOk;
    other.message_.clear();
  }
  Status& operator=(Status&& other) noexcept {
    code_ = other.code_;
    message_ = std::move(other.message_);
    other.code_ = StatusCode::kOk;
    other.message_.clear();
    return *this;
  }

  // Factory helpers, one per error category.
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
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace tps

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define TPS_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::tps::Status _tps_status = (expr);         \
    if (!_tps_status.ok()) return _tps_status;  \
  } while (false)

#endif  // TPS_UTIL_STATUS_H_
