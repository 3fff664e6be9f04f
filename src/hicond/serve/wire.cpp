#include "hicond/serve/wire.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "hicond/util/common.hpp"
#include "hicond/util/unique_fd.hpp"

namespace hicond::serve::wire {

namespace {

/// Block until `fd` is writable again (EINTR-tolerant); false on poll error.
bool wait_writable(int fd) {
  pollfd p{fd, POLLOUT, 0};
  for (;;) {
    const int rc = ::poll(&p, 1, -1);
    if (rc >= 0) {
      return true;
    }
    if (errno != EINTR) {
      return false;
    }
  }
}

}  // namespace

bool write_all(int fd, const void* data, std::size_t len) {
  HICOND_CHECK(fd >= 0, "write_all needs a valid file descriptor");
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t sent = ::write(fd, p, len);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!wait_writable(fd)) {
          return false;
        }
        continue;
      }
      return false;
    }
    p += sent;
    len -= static_cast<std::size_t>(sent);
  }
  return true;
}

bool write_all(int fd, std::span<const std::string_view> parts) {
  HICOND_CHECK(fd >= 0, "write_all needs a valid file descriptor");
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (const std::string_view part : parts) {
    if (!part.empty()) {
      // iovec's base is non-const by historic accident; writev never writes
      // through it.
      iov.push_back(iovec{const_cast<char*>(part.data()), part.size()});
    }
  }
  std::size_t first = 0;  // first iovec with unsent bytes
  while (first < iov.size()) {
    const ssize_t sent = ::writev(fd, iov.data() + first,
                                  static_cast<int>(iov.size() - first));
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!wait_writable(fd)) {
          return false;
        }
        continue;
      }
      return false;
    }
    // Consume `sent` bytes across the remaining iovecs (a short writev may
    // stop mid-part).
    std::size_t remaining = static_cast<std::size_t>(sent);
    while (remaining > 0 && first < iov.size()) {
      if (remaining >= iov[first].iov_len) {
        remaining -= iov[first].iov_len;
        ++first;
      } else {
        iov[first].iov_base =
            static_cast<char*>(iov[first].iov_base) + remaining;
        iov[first].iov_len -= remaining;
        remaining = 0;
      }
    }
  }
  return true;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return false;
  }
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void listen_unix(const std::string& path,
                 const std::function<bool(int fd)>& serve) {
  sockaddr_un addr{};
  HICOND_CHECK(path.size() < sizeof addr.sun_path,
               "unix socket path is too long");
  const unique_fd listener(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  HICOND_CHECK(static_cast<bool>(listener), "failed to create unix socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  HICOND_CHECK(::bind(listener.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0 &&
                   ::listen(listener.get(), 8) == 0,
               "failed to bind/listen on unix socket path");
  for (;;) {
    const unique_fd fd(
        ::accept4(listener.get(), nullptr, nullptr, SOCK_CLOEXEC));
    if (!fd) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (!serve(fd.get())) {
      break;
    }
  }
  ::unlink(path.c_str());
}

bool drain_nonblocking(int fd, std::string& buffer) {
  HICOND_CHECK(fd >= 0, "drain_nonblocking needs a valid file descriptor");
  std::size_t sent_total = 0;
  bool ok = true;
  while (sent_total < buffer.size()) {
    const ssize_t sent = ::write(fd, buffer.data() + sent_total,
                                 buffer.size() - sent_total);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;  // kernel buffer full; keep the suffix for the next round
      }
      ok = false;
      break;
    }
    sent_total += static_cast<std::size_t>(sent);
  }
  buffer.erase(0, sent_total);
  return ok;
}

ReadStatus read_into(int fd, LineBuffer& buffer) {
  HICOND_CHECK(fd >= 0, "read_into needs a valid file descriptor");
  char chunk[65536];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got > 0) {
      buffer.append(chunk, static_cast<std::size_t>(got));
      return ReadStatus::data;
    }
    if (got == 0) {
      return ReadStatus::eof;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return ReadStatus::would_block;
    }
    return ReadStatus::error;
  }
}

void LineBuffer::append(const char* data, std::size_t len) {
  // Compact consumed bytes before growing; amortized O(1) per byte.
  if (start_ > 0 && (start_ >= data_.size() || start_ > 4096)) {
    data_.erase(0, start_);
    start_ = 0;
  }
  data_.append(data, len);
}

bool LineBuffer::next_line(std::string& line) {
  const std::size_t nl = data_.find('\n', start_);
  if (nl == std::string::npos) {
    return false;
  }
  line.assign(data_, start_, nl - start_);
  start_ = nl + 1;
  return true;
}

}  // namespace hicond::serve::wire
