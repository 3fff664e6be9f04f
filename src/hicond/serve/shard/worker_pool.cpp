#include "hicond/serve/shard/worker_pool.hpp"

#include <omp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "hicond/serve/wire.hpp"
#include "hicond/util/common.hpp"

extern char** environ;

namespace hicond::serve::shard {

namespace {

/// argv for one worker: hicond_serve --socket S --cache-bytes N
/// [--deadline-ms MS]. Returned as owned strings; exec wants char*.
std::vector<std::string> worker_argv(const WorkerOptions& options,
                                     const std::string& socket) {
  std::vector<std::string> args;
  args.push_back(options.binary);
  args.push_back("--socket");
  args.push_back(socket);
  args.push_back("--cache-bytes");
  args.push_back(std::to_string(options.cache_bytes));
  if (options.deadline_ms > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", options.deadline_ms);
    args.push_back("--deadline-ms");
    args.push_back(buf);
  }
  return args;
}

/// Environment for one of `workers` workers: the router's own, plus
/// OMP_NUM_THREADS=max(1, processors / workers) when it sets none, so busy
/// workers share the processors instead of each starting one OpenMP thread
/// per processor. A value that is set passes through unchanged.
std::vector<std::string> worker_env(int workers) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) env.emplace_back(*e);
  if (std::getenv("OMP_NUM_THREADS") == nullptr) {
    env.push_back("OMP_NUM_THREADS=" +
                  std::to_string(std::max(1, omp_get_num_procs() / workers)));
  }
  return env;
}

/// The null-terminated char* array exec wants, pointing into `strings`.
std::vector<char*> exec_array(const std::vector<std::string>& strings) {
  std::vector<char*> out;
  out.reserve(strings.size() + 1);
  for (const std::string& s : strings) {
    out.push_back(const_cast<char*>(s.c_str()));
  }
  out.push_back(nullptr);
  return out;
}

}  // namespace

WorkerPool::WorkerPool(const WorkerOptions& options, int count)
    : options_(options) {
  HICOND_CHECK(count >= 1, "worker pool needs at least one worker");
  HICOND_CHECK(!options.binary.empty(), "worker pool needs a worker binary");
  HICOND_CHECK(!options.socket_dir.empty(),
               "worker pool needs a socket directory");
  workers_.resize(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_[static_cast<std::size_t>(i)].socket =
        options.socket_dir + "/worker-" + std::to_string(i) + ".sock";
  }
}

WorkerPool::~WorkerPool() { kill_all(); }

WorkerPool::State WorkerPool::state(int i) const {
  HICOND_CHECK(i >= 0 && i < count(), "worker index out of range");
  return workers_[static_cast<std::size_t>(i)].state;
}

int WorkerPool::fd(int i) const {
  HICOND_CHECK(i >= 0 && i < count(), "worker index out of range");
  return workers_[static_cast<std::size_t>(i)].fd.get();
}

pid_t WorkerPool::pid(int i) const {
  HICOND_CHECK(i >= 0 && i < count(), "worker index out of range");
  return workers_[static_cast<std::size_t>(i)].pid;
}

std::int64_t WorkerPool::restarts(int i) const {
  HICOND_CHECK(i >= 0 && i < count(), "worker index out of range");
  const std::int64_t spawns = workers_[static_cast<std::size_t>(i)].spawns;
  return spawns > 0 ? spawns - 1 : 0;
}

const std::string& WorkerPool::socket_path(int i) const {
  HICOND_CHECK(i >= 0 && i < count(), "worker index out of range");
  return workers_[static_cast<std::size_t>(i)].socket;
}

double WorkerPool::starting_seconds(int i) const {
  HICOND_CHECK(i >= 0 && i < count(), "worker index out of range");
  const Worker& w = workers_[static_cast<std::size_t>(i)];
  return w.state == State::starting ? w.since_start.seconds() : 0.0;
}

void WorkerPool::start(int i) {
  HICOND_CHECK(i >= 0 && i < count(), "worker index out of range");
  Worker& w = workers_[static_cast<std::size_t>(i)];
  HICOND_CHECK(w.state == State::down,
               "worker must be down before it is started");
  // A stale socket file from a killed predecessor would let connect()
  // succeed against nothing; the child unlinks it too, but doing it here
  // closes the window between spawn and the child's bind.
  ::unlink(w.socket.c_str());

  // argv and envp are built before fork, so the child allocates nothing on
  // its way to execve.
  const std::vector<std::string> args = worker_argv(options_, w.socket);
  const std::vector<std::string> env = worker_env(count());
  const std::vector<char*> argv = exec_array(args);
  const std::vector<char*> envp = exec_array(env);
  const pid_t child = ::fork();
  HICOND_CHECK(child >= 0, "fork failed for worker process");
  if (child == 0) {
    // Child: exec the worker. stderr is inherited so worker diagnostics
    // land in the router's stderr stream.
    ::execve(argv[0], argv.data(), envp.data());
    std::fprintf(stderr, "worker exec failed: %s: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  w.pid = child;
  w.state = State::starting;
  w.spawns += 1;
  w.since_start.reset();
}

bool WorkerPool::try_connect(int i) {
  HICOND_CHECK(i >= 0 && i < count(), "worker index out of range");
  Worker& w = workers_[static_cast<std::size_t>(i)];
  if (w.state == State::up) {
    return true;
  }
  HICOND_CHECK(w.state == State::starting,
               "try_connect needs a starting worker");
  // A child that died before binding (bad binary, crash on startup) would
  // leave us connecting forever; reap it and report the slot down.
  if (reap_if_exited(i, /*block=*/false)) {
    w.state = State::down;
    return false;
  }
  sockaddr_un addr{};
  HICOND_CHECK(w.socket.size() < sizeof addr.sun_path,
               "worker socket path is too long");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, w.socket.c_str(), w.socket.size() + 1);
  unique_fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  HICOND_CHECK(static_cast<bool>(fd), "failed to create worker connection socket");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    return false;  // not bound yet (ENOENT/ECONNREFUSED); try again later
  }
  // unique_fd also closes on the throw below -- a failing fcntl used to
  // leak the freshly connected socket here.
  HICOND_CHECK(wire::set_nonblocking(fd.get()),
               "failed to set worker connection non-blocking");
  w.fd = std::move(fd);
  w.state = State::up;
  return true;
}

void WorkerPool::start_and_connect(int i) {
  start(i);
  Worker& w = workers_[static_cast<std::size_t>(i)];
  while (!try_connect(i)) {
    HICOND_CHECK(w.state == State::starting,
                 "worker process exited before binding its socket");
    HICOND_CHECK(w.since_start.seconds() < options_.spawn_timeout_seconds,
                 "worker did not bind its socket within the spawn timeout");
    ::usleep(2000);
  }
}

void WorkerPool::mark_dead(int i) {
  HICOND_CHECK(i >= 0 && i < count(), "worker index out of range");
  Worker& w = workers_[static_cast<std::size_t>(i)];
  w.fd.reset();
  reap_if_exited(i, /*block=*/false);
  w.state = State::down;
}

bool WorkerPool::reap_if_exited(int i, bool block) noexcept {
  Worker& w = workers_[static_cast<std::size_t>(i)];
  if (w.pid < 0) {
    return true;
  }
  int status = 0;
  const pid_t got = ::waitpid(w.pid, &status, block ? 0 : WNOHANG);
  if (got == w.pid || (got < 0 && errno == ECHILD)) {
    w.pid = -1;
    return true;
  }
  return false;
}

void WorkerPool::kill_all() noexcept {
  for (int i = 0; i < count(); ++i) {
    Worker& w = workers_[static_cast<std::size_t>(i)];
    w.fd.reset();
    if (w.pid >= 0) {
      ::kill(w.pid, SIGKILL);
      reap_if_exited(i, /*block=*/true);
    }
    w.state = State::down;
    ::unlink(w.socket.c_str());
  }
}

int WorkerPool::reap_all(double timeout_seconds) noexcept {
  const Timer waited;
  int killed = 0;
  for (int i = 0; i < count(); ++i) {
    Worker& w = workers_[static_cast<std::size_t>(i)];
    w.fd.reset();
    while (w.pid >= 0 && !reap_if_exited(i, /*block=*/false)) {
      if (waited.seconds() > timeout_seconds) {
        ::kill(w.pid, SIGKILL);
        reap_if_exited(i, /*block=*/true);
        ++killed;
        break;
      }
      ::usleep(2000);
    }
    w.state = State::down;
    ::unlink(w.socket.c_str());
  }
  return killed;
}

}  // namespace hicond::serve::shard
