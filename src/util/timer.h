#ifndef MINTRI_UTIL_TIMER_H_
#define MINTRI_UTIL_TIMER_H_

#include <chrono>
#include <limits>

namespace mintri {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Resets the stopwatch to zero.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A deadline that long-running enumerations poll to support anytime
/// semantics (the paper's experiments stop every algorithm after a fixed
/// wall-clock budget).
class Deadline {
 public:
  /// A deadline that never expires.
  Deadline() : seconds_(std::numeric_limits<double>::infinity()) {}

  /// Expires `seconds` from now.
  explicit Deadline(double seconds) : seconds_(seconds) {}

  static Deadline Never() { return Deadline(); }

  bool Expired() const {
    return seconds_ != std::numeric_limits<double>::infinity() &&
           timer_.Seconds() >= seconds_;
  }

  double RemainingSeconds() const { return seconds_ - timer_.Seconds(); }

 private:
  WallTimer timer_;
  double seconds_;
};

/// True when `deadline` is set and has expired.
inline bool IsExpired(const Deadline* deadline) {
  return deadline != nullptr && deadline->Expired();
}

/// The deadline of the query running on the calling thread, for work nested
/// too deep to take one as a parameter: the exact edge-cover search inside a
/// bag score polls it, and BagScoreCache stores no score computed after it
/// expired. MinTriangSolver installs its deadline for each Solve. Null when
/// none is installed.
inline const Deadline*& ThreadDeadlineSlot() {
  static thread_local const Deadline* slot = nullptr;
  return slot;
}
inline const Deadline* ThreadDeadline() { return ThreadDeadlineSlot(); }

/// Installs `deadline` as ThreadDeadline() for the scope's lifetime.
class ScopedThreadDeadline {
 public:
  explicit ScopedThreadDeadline(const Deadline* deadline)
      : previous_(ThreadDeadlineSlot()) {
    ThreadDeadlineSlot() = deadline;
  }
  ~ScopedThreadDeadline() { ThreadDeadlineSlot() = previous_; }
  ScopedThreadDeadline(const ScopedThreadDeadline&) = delete;
  ScopedThreadDeadline& operator=(const ScopedThreadDeadline&) = delete;

 private:
  const Deadline* previous_;
};

}  // namespace mintri

#endif  // MINTRI_UTIL_TIMER_H_
