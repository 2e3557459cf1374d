// Typed failure taxonomy for the serving layer.
//
// Every way a submitted request can fail WITHOUT a successful forward pass is
// a ServeError with a machine-readable Kind; callers catch the one type and
// branch on kind() instead of parsing what() strings. A ServeError is-a
// std::runtime_error, so legacy catch sites keep working and the message
// still explains itself in logs.
//
// Kinds and when the future carries them:
//   kQueueFull        submit() under OverflowPolicy::kReject, queue at capacity
//   kStopped          server stopped (or stopping) before the request ran
//   kDeadlineExceeded the deadline passed while queued or retrying
//   kExhausted        attempt budget spent, or no non-excluded replica left
#pragma once

#include <stdexcept>
#include <string>

namespace ftpim::serve {

class ServeError : public std::runtime_error {
 public:
  // Plain (non-class) nested enum so call sites read ServeError::kStopped.
  enum Kind {
    kQueueFull,
    kStopped,
    kDeadlineExceeded,
    kExhausted,
  };

  ServeError(Kind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

[[nodiscard]] inline const char* to_string(ServeError::Kind kind) noexcept {
  switch (kind) {
    case ServeError::kQueueFull: return "queue_full";
    case ServeError::kStopped: return "stopped";
    case ServeError::kDeadlineExceeded: return "deadline_exceeded";
    case ServeError::kExhausted: return "exhausted";
  }
  return "unknown";
}

}  // namespace ftpim::serve
