// Newline-delimited-JSON solver service.
//
// ServerCore is the transport-independent request engine: submit() parses
// one request line's envelope (serve/request.hpp) and holds it as the one
// pending request, step() executes it, and handle() does both. Every
// transport (stdio loop, unix socket; examples/hicond_serve.cpp) reads a
// line, handles it and writes the response before it reads the next, so
// the server never holds more than one request and needs no queue; a
// deployment's backpressure is the router's per-worker window and backlog
// (serve/shard/router.hpp). Deadlines are checked at phase boundaries:
// before execution starts, and again between hierarchy setup and the solve,
// so an expired request is shed before it burns solver time. A shutdown
// request stops the transport once it is answered.
//
// Protocol (one JSON object per line, documented in docs/SERVING.md):
//   {"op":"load","path":P}                 read a snapshot/text graph file
//   {"op":"solve","graph":FP,...}          single RHS through the cache
//   {"op":"batch_solve","graph":FP,...}    k RHS, blocked (serve/batch.hpp)
//   {"op":"update","graph":FP,"updates":[...]}  apply an edge-update batch:
//       registers the mutated graph under its new fingerprint and installs
//       its solver by local hierarchy repair (dynamic/repair.hpp) when
//       possible, cold build otherwise; "mode":"rebuild" forces the cold
//       path. Response carries new_graph, repaired, clusters_touched.
//   {"op":"stats"}                         cache + request counters
//   {"op":"shutdown"}                      stop after answering
// Every response is a single JSON object with "id" echoed and "ok"; errors
// carry {"ok":false,"error":CODE,"message":...} and are themselves valid
// JSON -- malformed input never kills the server.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "hicond/serve/cache.hpp"
#include "hicond/serve/request.hpp"
#include "hicond/util/timer.hpp"

namespace hicond::serve {

struct ServerOptions {
  std::size_t cache_bytes = std::size_t{256} << 20;  ///< hierarchy cache
  /// Applied when a request carries no "deadline_ms"; <= 0 disables.
  double default_deadline_ms = 0.0;
  /// Solver options used when a request has no "options" object.
  LaplacianSolverOptions solver{};
};

/// Concurrency contract: ServerCore itself is single-threaded -- submit()
/// and step() must be called from one thread (the transport loop), which is
/// why pending_/graphs_/counters carry no lock. The one component shared with
/// other threads, the hierarchy cache, synchronizes internally behind
/// annotated locks (serve/cache.hpp, util/thread_annotations.hpp); clang
/// builds verify that discipline with -Werror=thread-safety.
class ServerCore {
 public:
  explicit ServerCore(const ServerOptions& options = {});

  /// Parse one request line and hold it as the pending request. Returns an
  /// immediate response only when the line is refused (parse error, unknown
  /// op); otherwise the response comes from the next step() call. Throws
  /// invalid_argument_error when a request is already pending.
  [[nodiscard]] std::optional<std::string> submit(const std::string& line);

  /// Execute the pending request; nullopt when none is pending.
  [[nodiscard]] std::optional<std::string> step();

  /// submit() then step(): the one response to `line`.
  [[nodiscard]] std::string handle(const std::string& line);

  /// True once a shutdown request has been executed (the transport should
  /// stop reading).
  [[nodiscard]] bool shutting_down() const noexcept { return shutdown_; }

  [[nodiscard]] const HierarchyCache& cache() const noexcept {
    return cache_;
  }

 private:
  struct Pending {
    Envelope envelope;
    Timer since_submit;  ///< deadline clock starts at admission
  };

  /// Consumes `request`: shipped vectors are moved out of its envelope.
  std::string process(Pending& request);

  ServerOptions options_;
  HierarchyCache cache_;
  std::optional<Pending> pending_;
  std::map<std::uint64_t, std::shared_ptr<const Graph>> graphs_;
  bool shutdown_ = false;
  std::int64_t requests_ = 0;
};

/// Blocking NDJSON loop over an istream/ostream pair (the stdio transport):
/// handles one line at a time, returns on EOF or after a shutdown request
/// completed. Returns 0 on clean exit.
int serve_stream(ServerCore& core, std::istream& in, std::ostream& out);

/// Same protocol over a unix domain socket: binds `path`, accepts one
/// connection at a time, serves each until its EOF, and returns after a
/// shutdown request (removing the socket file). Returns 0 on clean exit.
int serve_unix_socket(ServerCore& core, const std::string& path);

}  // namespace hicond::serve
