// Structured error model of the serving path (DESIGN.md §10).
//
// The library-internal components keep their cheap bool+string reporting
// (the XML parser's error(), the query parsers' ParseResult), but everything
// that crosses a serving boundary — parser → engine → pool → spexserve —
// carries a spex::Status so callers can react to the *class* of failure
// without string matching: reject the request (kMalformedInput), shed load
// (kResourceExhausted), time out (kDeadlineExceeded), or page someone
// (kInternal).  StatusOr<T> is the value-or-status carrier for factory-style
// entry points (query cache lookups, session opens).
//
// Deliberately tiny: no abseil dependency, no payloads, no stack capture.
// A Status is two words plus the message string; OK is the default and
// carries no allocation.

#ifndef SPEX_BASE_STATUS_H_
#define SPEX_BASE_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace spex {

enum class StatusCode : unsigned char {
  kOk = 0,
  // The input (XML bytes, a frame, a query string) is not well-formed.
  // Permanent: retrying the same input fails the same way.
  kMalformedInput,
  // A configured resource limit was breached (EngineLimits, parser limits,
  // arena/buffer bounds).  The partial result up to the breach is still
  // meaningful (see SpexEngine::FinalizeTruncated).
  kResourceExhausted,
  // The session's wall-clock deadline elapsed before the stream completed.
  kDeadlineExceeded,
  // The caller (or the serving layer, during shutdown) abandoned the
  // session before its stream completed.
  kCancelled,
  // An invariant failed or an exception escaped a worker: a bug, not an
  // input problem.
  kInternal,
  // The operation was rejected because the object is not in the state the
  // call requires (e.g. AddQuery on an already-finalized SpexEngine).
  // A caller bug, but a *detectable* one: the call is refused cleanly
  // instead of corrupting the object.
  kFailedPrecondition,
  // The request itself is unacceptable regardless of system state: a frame
  // length beyond the negotiated cap, an unknown handle, a duplicate
  // document id.  Permanent for this request — unlike kMalformedInput the
  // bytes may be perfectly parseable; they just ask for something invalid.
  kInvalidArgument,
  // Transient refusal: the server is overloaded or draining.  The request
  // was not admitted at all (no partial result exists) and the same request
  // may succeed after the ERROR frame's retry-after hint.
  kUnavailable,
};

// Number of StatusCode values (for per-code counter arrays).
inline constexpr int kStatusCodeCount = 9;

// Stable lowercase token for metric labels and machine-readable responses
// ("ok", "malformed_input", "resource_exhausted", ...).
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kMalformedInput: return "malformed_input";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kUnavailable: return "unavailable";
  }
  return "unknown";
}

class Status {
 public:
  // OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != StatusCode::kOk || message_.empty());
  }

  static Status Ok() { return Status(); }
  static Status MalformedInput(std::string message) {
    return Status(StatusCode::kMalformedInput, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status Cancelled(std::string message) {
    return Status(StatusCode::kCancelled, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "ok" or "resource_exhausted: output buffer limit (65536 bytes) breached".
  std::string ToString() const {
    if (ok()) return "ok";
    std::string out = StatusCodeName(code_);
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  // Keeps the first failure: assigning onto a non-OK status is a no-op, so
  // call sites can funnel several fallible steps into one slot without
  // masking the root cause.
  void Update(Status other) {
    if (ok()) *this = std::move(other);
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Value-or-status.  The value is only constructed on success; status() is
// kOk exactly when a value is present.
template <typename T>
class StatusOr {
 public:
  // Implicit from a value (success) or a non-OK status (failure), mirroring
  // the usual `return value;` / `return Status::...(...)` call sites.
  StatusOr(T value) : has_value_(true), value_(std::move(value)) {}  // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {             // NOLINT
    assert(!status_.ok() && "StatusOr needs a value or a non-OK status");
    if (status_.ok()) status_ = Status::Internal("StatusOr without value");
  }

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(has_value_);
    return value_;
  }
  T& value() & {
    assert(has_value_);
    return value_;
  }
  T&& value() && {
    assert(has_value_);
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  bool has_value_ = false;
  // Default-constructed on failure; T must be default-constructible, which
  // holds for the pointer/container payloads used on the serving path and
  // keeps this carrier free of manual union lifetime management.
  T value_{};
};

}  // namespace spex

#endif  // SPEX_BASE_STATUS_H_
