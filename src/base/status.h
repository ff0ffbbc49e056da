// Minimal error-handling vocabulary used across the library.
//
// Kernel calls return Status (or Result<T>) rather than throwing: the original
// DEMOS kernel reported errors through reply codes, and benches want to treat
// failures (e.g. a destination kernel refusing a migration) as data.

#ifndef DEMOS_BASE_STATUS_H_
#define DEMOS_BASE_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace demos {

enum class StatusCode {
  kOk = 0,
  kNotFound,          // no such process / link / file
  kInvalidArgument,   // malformed request
  kPermissionDenied,  // link lacks the required access right
  kUnavailable,       // target temporarily unavailable (e.g. in migration)
  kRefused,           // autonomous kernel declined (Sec. 3.2)
  kExhausted,         // out of a simulated resource (memory, table slots)
  kNotDeliverable,    // return-to-sender delivery mode bounced the message
  kInternal,          // invariant violation inside the library
  kPeerTimeout,       // migration peer silent past its per-phase deadline
};

const char* StatusCodeName(StatusCode code);

class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kPermissionDenied:
      return "PERMISSION_DENIED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kRefused:
      return "REFUSED";
    case StatusCode::kExhausted:
      return "EXHAUSTED";
    case StatusCode::kNotDeliverable:
      return "NOT_DELIVERABLE";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kPeerTimeout:
      return "PEER_TIMEOUT";
  }
  return "UNKNOWN";
}

inline Status OkStatus() { return Status::Ok(); }

inline Status NotFoundError(std::string m) { return {StatusCode::kNotFound, std::move(m)}; }
inline Status InvalidArgumentError(std::string m) {
  return {StatusCode::kInvalidArgument, std::move(m)};
}
inline Status PermissionDeniedError(std::string m) {
  return {StatusCode::kPermissionDenied, std::move(m)};
}
inline Status UnavailableError(std::string m) { return {StatusCode::kUnavailable, std::move(m)}; }
inline Status RefusedError(std::string m) { return {StatusCode::kRefused, std::move(m)}; }
inline Status ExhaustedError(std::string m) { return {StatusCode::kExhausted, std::move(m)}; }
inline Status InternalError(std::string m) { return {StatusCode::kInternal, std::move(m)}; }

// A value-or-error holder in the spirit of absl::StatusOr, small enough to
// keep this library dependency-free.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  // A default-constructed value built in place, for producers that fill it
  // through value() and return the Result itself (no move of the value).
  explicit Result(std::in_place_t) : value_(std::in_place) {}
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "Result constructed from OK status without a value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace demos

#endif  // DEMOS_BASE_STATUS_H_
