#include "deployment.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "harness.hpp"
#include "hicond/util/common.hpp"

extern char** environ;

namespace bench {

namespace wire = hicond::serve::wire;

namespace {

void make_dirs(const std::string& path) {
  for (std::size_t at = path.find('/', 1);; at = path.find('/', at + 1)) {
    const std::string prefix = path.substr(0, at);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      HICOND_CHECK(false, "cannot create directory " + prefix);
    }
    if (at == std::string::npos) return;
  }
}

}  // namespace

Deployment::Deployment(const std::string& socket_dir) {
  make_dirs(socket_dir);
  const std::vector<std::string> args = {
      HICOND_ROUTER_BIN, "--workers",    std::to_string(kWorkers),
      "--worker-bin",    HICOND_SERVE_BIN, "--socket-dir", socket_dir};
  // The child environment is the parent's with OMP_NUM_THREADS pinned; it
  // is built before fork so the child only calls async-signal-safe code.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_NUM_THREADS=", 16) != 0) env.emplace_back(*e);
  }
  env.push_back("OMP_NUM_THREADS=1");
  std::vector<char*> argv;
  std::vector<char*> envp;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  for (const std::string& e : env) envp.push_back(const_cast<char*>(e.c_str()));
  argv.push_back(nullptr);
  envp.push_back(nullptr);

  hicond::unique_fd request_rd;
  hicond::unique_fd response_wr;
  {
    int ends[2];
    HICOND_CHECK(::pipe2(ends, O_CLOEXEC) == 0, "pipe2 failed");
    request_rd.reset(ends[0]);
    to_router_.reset(ends[1]);
    HICOND_CHECK(::pipe2(ends, O_CLOEXEC) == 0, "pipe2 failed");
    from_router_.reset(ends[0]);
    response_wr.reset(ends[1]);
  }
  pid_ = ::fork();
  HICOND_CHECK(pid_ >= 0, "fork failed for hicond_router");
  if (pid_ == 0) {
    // dup2 clears close-on-exec on the two descriptors the router keeps.
    if (::dup2(request_rd.get(), 0) < 0 || ::dup2(response_wr.get(), 1) < 0) {
      ::_exit(126);
    }
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  request_rd.reset();
  response_wr.reset();
  HICOND_CHECK(wire::set_nonblocking(to_router_.get()) &&
                   wire::set_nonblocking(from_router_.get()),
               "cannot make the router pipes non-blocking");
  (void)call("{\"op\":\"topology\"}", 120.0);
}

Deployment::~Deployment() {
  try {
    shutdown();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hicond_router shutdown: %s\n", e.what());
  }
}

void Deployment::enqueue(std::string_view line) {
  outbound_.append(line);
  outbound_.push_back('\n');
}

void Deployment::pump(double timeout_s, std::vector<std::string>& lines) {
  HICOND_CHECK(pid_ > 0 && !eof_, "hicond_router is not running");
  if (!outbound_.empty()) {
    HICOND_CHECK(wire::drain_nonblocking(to_router_.get(), outbound_),
                 "writing to hicond_router failed");
  }
  pollfd fds[2] = {{from_router_.get(), POLLIN, 0},
                   {to_router_.get(), POLLOUT, 0}};
  const nfds_t nfds = outbound_.empty() ? 1 : 2;
  const double wait = std::max(0.0, timeout_s);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(wait);
  ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
  const int ready = ::ppoll(fds, nfds, &ts, nullptr);
  HICOND_CHECK(ready >= 0 || errno == EINTR, "poll on router pipes failed");
  if (ready > 0 && (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    wire::ReadStatus st = wire::ReadStatus::data;
    while (st == wire::ReadStatus::data) {
      st = wire::read_into(from_router_.get(), inbound_);
    }
    HICOND_CHECK(st != wire::ReadStatus::error, "reading from hicond_router failed");
    eof_ = st == wire::ReadStatus::eof;
    std::string line;
    while (inbound_.next_line(line)) lines.push_back(std::move(line));
  }
  if (!outbound_.empty()) {
    HICOND_CHECK(wire::drain_nonblocking(to_router_.get(), outbound_),
                 "writing to hicond_router failed");
  }
}

std::string Deployment::call(std::string_view line, double timeout_s) {
  enqueue(line);
  std::vector<std::string> lines;
  const double deadline = now_s() + timeout_s;
  while (lines.empty()) {
    HICOND_CHECK(!eof_, "hicond_router closed its output");
    const double left = deadline - now_s();
    HICOND_CHECK(left > 0.0, "hicond_router did not answer in time");
    pump(std::min(left, 1.0), lines);
  }
  HICOND_CHECK(lines.size() == 1, "unexpected extra response from router");
  return std::move(lines.front());
}

void Deployment::shutdown() {
  if (pid_ <= 0) return;
  const pid_t pid = pid_;
  bool clean = false;
  try {
    (void)call("{\"op\":\"shutdown\"}", 60.0);
    clean = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hicond_router did not shut down cleanly: %s\n",
                 e.what());
  }
  pid_ = -1;
  to_router_.reset();
  from_router_.reset();
  if (!clean) ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace bench
