// Byte-level transport helpers shared by the worker server and the router.
//
// Every NDJSON transport in serve/ ultimately moves framed lines over file
// descriptors, and POSIX write/send may return short counts or EINTR at any
// size -- large batch_solve responses (return_x on a 10^5-vertex graph) are
// exactly where a naive single write() truncates. The helpers here are the
// one place that handles partial writes, EINTR, and (for the router's
// multiplexed connections) non-blocking buffered draining, so the worker
// transport (serve/server.cpp) and the router proxy (serve/shard/) share a
// single audited implementation instead of two subtly different loops. The
// unix-socket bind/accept loop both of them serve from lives here too.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>

namespace hicond::serve::wire {

/// Write all `len` bytes to a blocking `fd`, absorbing EINTR and short
/// writes; EAGAIN (a non-blocking fd handed in by mistake, or a socket with
/// a full buffer under SO_SNDTIMEO) waits for writability and retries.
/// Returns false on a hard error (EPIPE, ECONNRESET, ...).
[[nodiscard]] bool write_all(int fd, const void* data, std::size_t len);

/// writev-style gather variant: write every part in order as if
/// concatenated, with the same EINTR/short-write handling. The usual caller
/// is write_line(), which sends a response body and its '\n' frame in one
/// syscall instead of allocating a concatenated copy.
[[nodiscard]] bool write_all(int fd, std::span<const std::string_view> parts);

/// Send `body` followed by the NDJSON '\n' frame delimiter.
[[nodiscard]] inline bool write_line(int fd, std::string_view body) {
  const std::string_view parts[] = {body, std::string_view("\n", 1)};
  return write_all(fd, std::span<const std::string_view>(parts));
}

/// Set O_NONBLOCK on `fd`; returns false when fcntl fails.
[[nodiscard]] bool set_nonblocking(int fd);

/// Serve a unix domain socket at `path`: bind and listen (replacing a stale
/// socket file), then accept one connection at a time and call `serve` on
/// it; the connection is closed when `serve` returns, and also when it
/// throws (the exception propagates). Returns once `serve` returns false or
/// accept fails hard, removing the socket file. Throws
/// invalid_argument_error when the socket cannot be bound.
void listen_unix(const std::string& path,
                 const std::function<bool(int fd)>& serve);

class LineBuffer;

/// Outcome of one read_into() call.
enum class ReadStatus {
  data,         ///< at least one byte was appended to the buffer
  would_block,  ///< non-blocking fd with nothing to read right now
  eof,          ///< orderly shutdown: the peer closed its end
  error,        ///< hard error (ECONNRESET, EBADF, ...)
};

/// Read one chunk from `fd` into `buffer`, absorbing EINTR. Works on both
/// blocking fds (blocks until data, EOF or error) and non-blocking fds
/// (returns would_block instead of blocking). This is the read-side
/// counterpart of write_all/drain_nonblocking: every transport in serve/
/// reads through it so EINTR and partial reads are handled in one place.
[[nodiscard]] ReadStatus read_into(int fd, LineBuffer& buffer);

/// Write as much of `buffer` as a non-blocking `fd` accepts right now,
/// erasing the sent prefix. Returns false on a hard error; EAGAIN simply
/// leaves the unsent suffix in place for the next poll round.
[[nodiscard]] bool drain_nonblocking(int fd, std::string& buffer);

/// Incremental NDJSON line framer: append raw chunks as they arrive, pop
/// complete '\n'-terminated lines (delimiter stripped) as they form.
/// Consumed bytes are compacted away lazily so a long-lived connection does
/// not grow the buffer without bound.
class LineBuffer {
 public:
  void append(const char* data, std::size_t len);

  /// Move the next complete line into `line` (without its '\n'); false when
  /// no full line is buffered yet.
  [[nodiscard]] bool next_line(std::string& line);

  /// Bytes buffered but not yet returned by next_line().
  [[nodiscard]] std::size_t buffered() const noexcept {
    return data_.size() - start_;
  }

  void clear() noexcept {
    data_.clear();
    start_ = 0;
  }

 private:
  std::string data_;
  std::size_t start_ = 0;
};

}  // namespace hicond::serve::wire
