// One real hicond_router process (with its hicond_serve workers) driven
// over the router's stdio pipes from a single thread, as a client would.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "hicond/serve/wire.hpp"
#include "hicond/util/unique_fd.hpp"

namespace bench {

/// hicond_router --workers kWorkers, every process at one OpenMP thread.
class Deployment {
 public:
  static constexpr int kWorkers = 3;

  /// Spawn the router with its worker sockets in `socket_dir` (created if
  /// missing; a relative path keeps socket names short); returns once it
  /// answers a topology probe, i.e. once every worker is up.
  explicit Deployment(const std::string& socket_dir);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Queue one request line (no trailing newline) for sending.
  void enqueue(std::string_view line);
  /// Write what the pipe accepts, then wait up to `timeout_s` for
  /// responses; every complete line received is appended to `lines`.
  void pump(double timeout_s, std::vector<std::string>& lines);
  /// One blocking round trip; only valid with nothing else in flight.
  std::string call(std::string_view line, double timeout_s = 600.0);

  /// Send shutdown and wait until the router has reaped its workers and
  /// exited. Idempotent.
  void shutdown();

 private:
  pid_t pid_ = -1;
  hicond::unique_fd to_router_;
  hicond::unique_fd from_router_;
  std::string outbound_;
  hicond::serve::wire::LineBuffer inbound_;
  bool eof_ = false;  ///< the router closed its output (after shutdown)
};

}  // namespace bench
