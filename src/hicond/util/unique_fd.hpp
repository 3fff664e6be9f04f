// Move-only RAII ownership of a POSIX file descriptor.
//
// Every fd produced by socket/accept/open/pipe in this codebase must land
// in a unique_fd immediately (the fd-ownership hicond-tidy check enforces
// this), so an exception thrown between acquisition and the matching
// close() can never leak the descriptor. The single ::close call site
// lives here; everywhere else a raw close() is a lint error.
#pragma once

#include <unistd.h>

#include <utility>

namespace hicond {

/// Owns one file descriptor; closes it exactly once on destruction.
///
/// Modeled on std::unique_ptr: move-only, `get()` to borrow the raw fd
/// for syscalls, `release()` to hand ownership to an API that takes it
/// (e.g. fdopen), `reset()` to close early. A default-constructed or
/// moved-from unique_fd holds -1 and closes nothing.
class unique_fd {
 public:
  unique_fd() noexcept = default;
  explicit unique_fd(int fd) noexcept : fd_(fd) {}

  unique_fd(const unique_fd&) = delete;
  unique_fd& operator=(const unique_fd&) = delete;

  unique_fd(unique_fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  unique_fd& operator=(unique_fd&& other) noexcept {
    if (this != &other) {
      reset(other.fd_);
      other.fd_ = -1;
    }
    return *this;
  }

  ~unique_fd() { reset(); }

  /// The owned descriptor, or -1. Ownership is retained.
  [[nodiscard]] int get() const noexcept { return fd_; }

  /// Relinquish ownership without closing; returns the descriptor.
  [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }

  /// Close the current descriptor (if any) and adopt `fd`.
  ///
  /// close() is deliberately not retried on EINTR: on Linux the
  /// descriptor is released even when close() is interrupted, so a retry
  /// could close an unrelated fd raced in by another thread.
  void reset(int fd = -1) noexcept {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = fd;
  }

  explicit operator bool() const noexcept { return fd_ >= 0; }

  friend void swap(unique_fd& a, unique_fd& b) noexcept {
    std::swap(a.fd_, b.fd_);
  }

 private:
  int fd_ = -1;
};

}  // namespace hicond
