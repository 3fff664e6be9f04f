// Fingerprint-routed sharding router over hicond_serve workers.
//
// One slow hierarchy build in the single-process server blocks every
// tenant; the router fixes that by consistent-hashing each graph
// fingerprint onto a ring of N worker processes (shard/ring.hpp) so cached
// hierarchies live where their traffic lands, and by supervising those
// workers (shard/worker_pool.hpp) so a crashed worker is respawned, its
// load set replayed, and its in-flight requests retried -- once -- without
// the client seeing anything but latency.
//
// Protocol: the client-facing framing is exactly the worker NDJSON protocol
// (docs/SERVING.md) plus one router-only op, `topology`. `load`, `solve`,
// `batch_solve` and `update` lines are forwarded to the owning worker
// *verbatim*, so a routed response body is the byte-for-byte response a
// lone server would have produced -- which is what makes the
// `solution_fnv` fixtures a free bitwise verification of the whole
// deployment. `stats` fans out to every worker and merges the per-worker
// documents into one aggregate; `shutdown` drains, stops every worker, and
// exits.
//
// `update` creates *derived* fingerprints: the mutated graph is registered
// on exactly the worker that executed the update, so the router records
// derived -> root in `derived_root_` and routes every request for a derived
// fingerprint to its root's worker. Successful update lines are kept, in
// execution order, and replayed after the loads when that worker respawns;
// worker-side cache idempotence makes a replayed or retried update land
// exactly once.
//
// The exchange with a worker is bulk-synchronous in the sense of the
// distributed expander-decomposition literature (Chen et al., PAPERS.md):
// the router extracts a bounded window of requests per worker, the worker
// reduces them strictly in order, and responses are matched back by
// position -- a worker connection is a FIFO lane, never a reordering
// channel, so no sequence numbers ride the wire.
//
// Failure model: every fingerprint has exactly one owning worker, its ring
// primary.
//   * worker death (EOF/EPIPE on its lane): respawn, replay every `load`
//     and `update` the dead worker owned (preloads included), then
//     re-dispatch its in-flight requests exactly once; a request whose
//     retry also dies gets a `worker_failed` error. While the owner
//     respawns, its requests wait in its backlog. A worker that fails to
//     start `max_spawn_attempts` times in a row is permanently failed, and
//     every request for a fingerprint it owns answers `worker_failed`.
//   * backpressure: per-worker in-flight windows plus a bounded backlog;
//     beyond both, requests are shed with `queue_full`. The worker itself
//     holds one request at a time, so the window is the only queue past the
//     router. Deadlines are enforced router-side while a request waits (and
//     again worker-side once forwarded).
//
// Concurrency contract: the router is a single-threaded poll loop -- every
// member below is touched from one thread, which is why none of it carries
// a lock. Workers are separate *processes*; all sharing is over sockets.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "hicond/obs/json.hpp"
#include "hicond/serve/request.hpp"
#include "hicond/serve/shard/ring.hpp"
#include "hicond/serve/shard/worker_pool.hpp"
#include "hicond/serve/wire.hpp"
#include "hicond/util/timer.hpp"

namespace hicond::serve::shard {

struct RouterOptions {
  int workers = 3;
  int vnodes = 64;             ///< ring points per worker
  int inflight_window = 8;     ///< outstanding requests per worker lane
  std::size_t backlog_capacity = 256;  ///< queued-behind-window, per worker
  /// Applied when a request carries no "deadline_ms"; <= 0 disables.
  /// Enforced while a request waits router-side; the forwarded line is
  /// untouched, so workers apply their own --deadline-ms default as well.
  double default_deadline_ms = 0.0;
  int max_spawn_attempts = 3;       ///< consecutive respawn failures allowed
  double drain_timeout_seconds = 30.0;  ///< bound on shutdown drain
  WorkerOptions worker;  ///< spawn configuration for the pool
};

class Router {
 public:
  /// Spawns and connects every worker (throws when one cannot start).
  /// Also ignores SIGPIPE process-wide: every transport in this subsystem
  /// handles EPIPE as a return code, and a late write to a SIGKILLed
  /// worker must not kill the router.
  explicit Router(const RouterOptions& options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Load a graph before serving: registers it in the routing table and
  /// forwards the load to its owning worker. Returns the fingerprint.
  /// Throws when the file cannot be read.
  std::uint64_t preload(const std::string& path);

  /// Serve NDJSON on an fd pair (the stdio transport). EOF triggers a full
  /// drain-and-stop, like the single server. Returns 0 on clean exit.
  int run_stream(int in_fd, int out_fd);

  /// Same protocol over a unix domain socket: accepts one client
  /// connection at a time, serves each until its EOF (workers stay up
  /// between clients), and returns after a shutdown request. Returns 0 on
  /// clean exit.
  int run_unix_socket(const std::string& path);

 private:
  enum class Action {
    relay,   ///< response goes back to the client
    absorb,  ///< router-internal (preload, replay, worker shutdown)
    stats,   ///< one leg of a stats fan-out
  };

  struct Pending {
    std::string raw;              ///< forwarded line (also the retry payload)
    std::int64_t client_id = -1;  ///< for router-generated error responses
    std::uint64_t fp = 0;    ///< the root fingerprint the request routes by
    bool retried = false;    ///< one retry spent (next failure is terminal)
    bool discarded = false;  ///< already answered; drop worker's response
    bool is_update = false;  ///< an `update` op; completion is recorded
    std::uint64_t update_old = 0;  ///< `update` only: pre-update fingerprint
    Action action = Action::relay;
    int stats_tag = -1;
    double deadline_ms = -1.0;  ///< <= 0 none; clock starts at admission
    Timer since;
  };

  /// One worker lane: FIFO in-flight matching plus a bounded backlog and
  /// the buffered byte streams of its non-blocking connection.
  struct Lane {
    std::deque<Pending> inflight;
    std::deque<Pending> backlog;
    std::string outbound;
    wire::LineBuffer inbound;
    int spawn_attempts = 0;
    bool failed = false;  ///< gave up respawning (max_spawn_attempts)
  };

  struct StatsFanout {
    std::int64_t client_id = -1;
    int outstanding = 0;
    std::vector<std::pair<int, obs::JsonValue>> docs;  ///< (worker, stats)
    std::vector<int> unavailable;  ///< workers down/failed at fan-out time
  };

  int run_loop(int client_in, int client_out, bool shutdown_on_eof);

  void handle_client_line(const std::string& line);
  void handle_load(const Envelope& env, const std::string& line);
  /// solve, batch_solve and update: forward to the owner of the root.
  void handle_graph_op(const Envelope& env, const std::string& line);
  void start_stats_fanout(std::int64_t id, double deadline_ms);
  void finish_stats(int tag);
  void handle_topology(std::int64_t id);
  /// Stop admitting, finish admitted work, stop the workers. With `reply`
  /// the client gets a shutdown response carrying `id` (a shutdown op);
  /// without it the drain is silent (stdin reached EOF).
  void begin_drain(std::int64_t id, bool reply);
  void maybe_finish_drain();

  /// The loaded fingerprint a request for `fp` routes by: `fp` itself when
  /// it was loaded, its recorded root when it is update-derived.
  [[nodiscard]] std::uint64_t resolve_root(std::uint64_t fp) const;
  /// Parse a relayed `update` response and, on success, record the derived
  /// fingerprint's root and keep the line for respawn replay.
  void record_update_result(const Pending& p, const std::string& line);
  /// Send `p` down worker `w`'s lane, or queue it in the backlog behind a
  /// full window. Sheds it with queue_full when the backlog is full too,
  /// and with worker_failed when the worker is permanently down.
  void dispatch(int w, Pending&& p);
  void refill_window(int w);
  void flush(int w);
  void on_worker_readable(int w);
  void complete_line(int w, const std::string& line);
  void handle_worker_death(int w);
  void on_worker_up(int w);
  void fail_worker(int w);
  void upkeep();
  void check_deadlines();

  void respond(const std::string& body);
  void respond_error(std::int64_t id, const char* code,
                     const std::string& message);
  [[nodiscard]] std::string load_line_for(std::uint64_t fp) const;
  void fanout_worker_unavailable(int tag, int w);

  RouterOptions options_;
  HashRing ring_;
  WorkerPool pool_;
  std::vector<Lane> lanes_;

  /// Routing table: every fingerprint loaded this session -> source path
  /// (std::map: deterministic replay order).
  std::map<std::uint64_t, std::string> loads_;
  /// Update-derived fingerprint -> the loaded root it descends from. A
  /// derived fingerprint routes to its root's worker, which holds the
  /// mutated state.
  std::map<std::uint64_t, std::uint64_t> derived_root_;
  /// Successful `update` lines in execution order, keyed by root
  /// fingerprint; replayed after the loads when the root's worker respawns,
  /// rebuilding the derived graphs the dead worker held.
  std::vector<std::pair<std::uint64_t, std::string>> update_replay_;

  std::map<int, StatsFanout> fanouts_;
  int next_stats_tag_ = 0;

  int client_out_ = -1;
  wire::LineBuffer client_buffer_;
  bool client_gone_ = false;
  bool draining_ = false;
  bool worker_shutdowns_sent_ = false;
  std::int64_t shutdown_id_ = -1;
  bool shutdown_reply_ = false;  ///< respond when the drain completes
  Timer drain_timer_;
  bool stop_ = false;

  std::int64_t stat_requests_ = 0;
  std::int64_t stat_routed_ = 0;
  std::int64_t stat_updates_ = 0;
  std::int64_t stat_retries_ = 0;
  std::int64_t stat_restarts_ = 0;
  std::int64_t stat_shed_ = 0;
};

}  // namespace hicond::serve::shard
