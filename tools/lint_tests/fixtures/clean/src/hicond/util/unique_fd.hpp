#pragma once

// Stand-in for the real util/unique_fd.hpp: the single ::close() site.
// fd-ownership must stay quiet here by path exemption.

class unique_fd {
 public:
  unique_fd() = default;
  explicit unique_fd(int fd) : fd_(fd) {}
  ~unique_fd() { reset(); }

  void reset(int fd = -1) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};
