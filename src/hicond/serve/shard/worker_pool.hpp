// Spawn and supervise hicond_serve worker processes over unix sockets.
//
// The pool is the mechanical half of the router's supervision story: it
// fork/execs one `hicond_serve --socket <dir>/worker-<i>.sock` per slot,
// connects to each socket (retrying until the child has bound it), hands
// the router a non-blocking connected fd, reaps children, and can respawn a
// slot after a crash. Policy -- when to restart, what to replay, where to
// re-route in-flight requests -- lives in shard/router.{hpp,cpp}; the pool
// never looks inside the byte stream.
//
// States: down (no process), starting (spawned, socket not yet accepted),
// up (connected). SIGKILLed or crashed children are detected either by the
// router (EOF on the fd) or here (waitpid on connect attempts); a slot's
// restart count is the number of respawns after the initial start.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hicond/util/timer.hpp"
#include "hicond/util/unique_fd.hpp"

namespace hicond::serve::shard {

struct WorkerOptions {
  std::string binary;      ///< path to the hicond_serve executable
  std::string socket_dir;  ///< directory for worker-<i>.sock files
  std::size_t cache_bytes = std::size_t{256} << 20;  ///< per-worker cache
  double deadline_ms = 0.0;         ///< worker default deadline; <= 0 none
  double spawn_timeout_seconds = 20.0;  ///< bound on spawn-to-connect
};

class WorkerPool {
 public:
  enum class State { down, starting, up };

  /// Configure `count` slots; no processes are spawned until start().
  WorkerPool(const WorkerOptions& options, int count);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int count() const noexcept {
    return static_cast<int>(workers_.size());
  }
  [[nodiscard]] State state(int i) const;
  /// Connected non-blocking socket fd; -1 unless state(i) == up.
  [[nodiscard]] int fd(int i) const;
  [[nodiscard]] pid_t pid(int i) const;
  /// Respawns after the initial start (0 for a slot that never died).
  [[nodiscard]] std::int64_t restarts(int i) const;
  [[nodiscard]] const std::string& socket_path(int i) const;
  /// Seconds slot `i` has been in the starting state (0 otherwise).
  [[nodiscard]] double starting_seconds(int i) const;

  /// Fork/exec slot `i`'s worker process; state becomes starting. The slot
  /// must be down.
  void start(int i);

  /// One connect attempt against a starting slot. Returns true (and moves
  /// the slot to up) once the child accepts; false while the socket is not
  /// bound yet. A child that died before binding is reaped and the slot
  /// returns to down.
  [[nodiscard]] bool try_connect(int i);

  /// Blocking convenience: start + connect within spawn_timeout_seconds;
  /// throws invalid_argument_error on timeout or a child that won't start.
  void start_and_connect(int i);

  /// Close the fd, reap the child if it already exited (non-blocking), and
  /// mark the slot down. Safe to call in any state.
  void mark_dead(int i);

  /// SIGKILL every live child and reap it (destructor path; the graceful
  /// route is the router's shutdown fan-out followed by reap_all).
  void kill_all() noexcept;

  /// Wait up to `timeout_seconds` for every child to exit on its own (after
  /// a shutdown request), then SIGKILL stragglers. Returns the number of
  /// children that had to be killed.
  int reap_all(double timeout_seconds) noexcept;

 private:
  struct Worker {
    pid_t pid = -1;
    unique_fd fd;
    State state = State::down;
    std::int64_t spawns = 0;
    std::string socket;
    Timer since_start;
  };

  /// Reap child of slot `i` if it has exited; true when the slot's process
  /// is gone (or there was none).
  bool reap_if_exited(int i, bool block) noexcept;

  WorkerOptions options_;
  std::vector<Worker> workers_;
};

}  // namespace hicond::serve::shard
