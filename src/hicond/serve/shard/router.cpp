#include "hicond/serve/shard/router.hpp"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <utility>

#include "hicond/serve/snapshot.hpp"
#include "hicond/util/common.hpp"

namespace hicond::serve::shard {

namespace {

constexpr int kPollMillis = 20;  ///< upkeep tick while idle

const char* state_name(WorkerPool::State s) {
  switch (s) {
    case WorkerPool::State::down:
      return "down";
    case WorkerPool::State::starting:
      return "starting";
    case WorkerPool::State::up:
      return "up";
  }
  return "unknown";
}

}  // namespace

Router::Router(const RouterOptions& options)
    : options_(options),
      ring_(options.workers, options.vnodes),
      pool_(options.worker, options.workers),
      lanes_(static_cast<std::size_t>(options.workers)) {
  HICOND_CHECK(options.inflight_window >= 1,
               "router in-flight window must be at least 1");
  HICOND_CHECK(options.backlog_capacity >= 1,
               "router backlog capacity must be at least 1");
  HICOND_CHECK(options.max_spawn_attempts >= 1,
               "router needs at least one spawn attempt");
  // EPIPE is a return code everywhere in this subsystem; a late write to a
  // SIGKILLed worker must not kill the router.
  ::signal(SIGPIPE, SIG_IGN);
  for (int i = 0; i < options.workers; ++i) {
    pool_.start_and_connect(i);
  }
}

Router::~Router() { pool_.kill_all(); }

std::uint64_t Router::preload(const std::string& path) {
  const Graph g = read_graph_auto(path);
  const std::uint64_t fp = graph_fingerprint(g);
  loads_[fp] = path;
  Pending p;
  p.raw = load_line_for(fp);
  p.fp = fp;
  p.action = Action::absorb;
  dispatch(ring_.primary(fp), std::move(p));
  return fp;
}

std::string Router::load_line_for(std::uint64_t fp) const {
  const auto it = loads_.find(fp);
  HICOND_CHECK(it != loads_.end(), "no load path recorded for fingerprint");
  obs::JsonWriter w;
  w.begin_object();
  w.kv("op", "load");
  w.kv("path", it->second);
  w.end_object();
  return w.str();
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

void Router::respond(const std::string& body) {
  if (client_gone_ || client_out_ < 0) {
    return;
  }
  if (!wire::write_line(client_out_, body)) {
    client_gone_ = true;
  }
}

void Router::respond_error(std::int64_t id, const char* code,
                           const std::string& message) {
  respond(error_response(id, code, message));
}

void Router::handle_client_line(const std::string& line) {
  ++stat_requests_;
  Envelope env;
  if (auto refused =
          parse_envelope(line, options_.default_deadline_ms, env)) {
    respond(*refused);
    return;
  }
  try {
    if (env.op == "topology") {
      handle_topology(env.id);
    } else if (env.op == "stats") {
      start_stats_fanout(env.id, env.deadline_ms);
    } else if (env.op == "shutdown") {
      begin_drain(env.id, /*reply=*/true);
    } else if (env.op == "load") {
      handle_load(env, line);
    } else if (env.op == "solve" || env.op == "batch_solve" ||
               env.op == "update") {
      handle_graph_op(env, line);
    } else {
      respond_error(env.id, "unknown_op", "unsupported op: " + env.op);
    }
  } catch (const std::exception& e) {
    respond_error(env.id, "bad_request", e.what());
  }
}

void Router::handle_load(const Envelope& env, const std::string& line) {
  const obs::JsonValue& path = env.request.at("path");
  HICOND_CHECK(path.is_string(), "load needs a string \"path\"");
  // The router reads the graph itself: routing needs the fingerprint
  // before any worker has seen the file, and the same parse validates the
  // input once at the outermost boundary (a bad file is a bad_request).
  const std::uint64_t fp = graph_fingerprint(read_graph_auto(path.string));
  loads_[fp] = path.string;
  Pending p;
  p.raw = line;
  p.client_id = env.id;
  p.fp = fp;
  p.deadline_ms = env.deadline_ms;
  dispatch(ring_.primary(fp), std::move(p));
}

void Router::handle_graph_op(const Envelope& env, const std::string& line) {
  const obs::JsonValue& graph_field = env.request.at("graph");
  HICOND_CHECK(graph_field.is_string(),
               env.op + " needs a string \"graph\" fingerprint");
  const std::uint64_t fp = parse_fingerprint(graph_field.string);
  const bool is_update = env.op == "update";
  if (is_update) {
    ++stat_updates_;
  } else {
    ++stat_routed_;
  }
  // A derived fingerprint (the result of an `update`) routes through its
  // root: the mutated state lives only on the worker that executed the
  // update chain.
  const std::uint64_t root = resolve_root(fp);
  Pending p;
  p.raw = line;
  p.client_id = env.id;
  p.fp = root;
  p.is_update = is_update;
  p.update_old = fp;
  p.deadline_ms = env.deadline_ms;
  dispatch(ring_.primary(root), std::move(p));
}

std::uint64_t Router::resolve_root(std::uint64_t fp) const {
  if (loads_.count(fp) != 0) {
    return fp;
  }
  const auto it = derived_root_.find(fp);
  return it == derived_root_.end() ? fp : it->second;
}

// ---------------------------------------------------------------------------
// Routing, dispatch, lanes
// ---------------------------------------------------------------------------

void Router::dispatch(int w, Pending&& p) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  if (lane.failed) {
    if (p.action == Action::relay) {
      respond_error(p.client_id, "worker_failed",
                    "the worker that owns this fingerprint is permanently "
                    "down");
    } else if (p.action == Action::stats) {
      fanout_worker_unavailable(p.stats_tag, w);
    }
    return;
  }
  const bool window_open =
      pool_.state(w) == WorkerPool::State::up && lane.backlog.empty() &&
      lane.inflight.size() <
          static_cast<std::size_t>(options_.inflight_window);
  if (window_open) {
    lane.outbound += p.raw;
    lane.outbound += '\n';
    lane.inflight.push_back(std::move(p));
    return;
  }
  if (lane.backlog.size() < options_.backlog_capacity) {
    lane.backlog.push_back(std::move(p));
    return;
  }
  ++stat_shed_;
  if (p.action == Action::relay) {
    respond_error(p.client_id, "queue_full",
                  "worker lane is at capacity; retry later");
  } else if (p.action == Action::stats) {
    fanout_worker_unavailable(p.stats_tag, w);
  }
}

void Router::refill_window(int w) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  if (pool_.state(w) != WorkerPool::State::up) {
    return;
  }
  while (!lane.backlog.empty() &&
         lane.inflight.size() <
             static_cast<std::size_t>(options_.inflight_window)) {
    Pending p = std::move(lane.backlog.front());
    lane.backlog.pop_front();
    lane.outbound += p.raw;
    lane.outbound += '\n';
    lane.inflight.push_back(std::move(p));
  }
}

void Router::flush(int w) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  if (lane.outbound.empty() || pool_.state(w) != WorkerPool::State::up) {
    return;
  }
  if (!wire::drain_nonblocking(pool_.fd(w), lane.outbound)) {
    handle_worker_death(w);
  }
}

void Router::on_worker_readable(int w) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  const int fd = pool_.fd(w);
  bool died = false;
  for (;;) {
    const wire::ReadStatus status = wire::read_into(fd, lane.inbound);
    if (status == wire::ReadStatus::data) {
      continue;
    }
    died = status != wire::ReadStatus::would_block;  // EOF or hard error
    break;
  }
  // Complete whatever responses did arrive before acting on the death --
  // an answered request must not be retried.
  std::string line;
  while (lane.inbound.next_line(line)) {
    complete_line(w, line);
  }
  if (died) {
    handle_worker_death(w);
  } else {
    refill_window(w);
  }
}

void Router::complete_line(int w, const std::string& line) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  if (lane.inflight.empty()) {
    // Protocol violation (a worker must emit exactly one response per
    // request line); log and drop rather than crash the deployment.
    std::fprintf(stderr,
                 "hicond_router: unmatched response from worker %d: %s\n", w,
                 line.c_str());
    return;
  }
  Pending p = std::move(lane.inflight.front());
  lane.inflight.pop_front();
  switch (p.action) {
    case Action::relay:
      // Record even when the relay was discarded (deadline expired while in
      // flight): the worker *did* execute the update, so the routing table
      // must learn the derived fingerprint either way.
      if (p.is_update) {
        record_update_result(p, line);
      }
      if (!p.discarded) {
        respond(line);
      }
      break;
    case Action::absorb:
      break;
    case Action::stats: {
      const auto it = fanouts_.find(p.stats_tag);
      if (it != fanouts_.end()) {
        try {
          it->second.docs.emplace_back(w, obs::parse_json(line));
        } catch (const std::exception&) {
          it->second.unavailable.push_back(w);
        }
        if (--it->second.outstanding <= 0) {
          finish_stats(p.stats_tag);
        }
      }
      break;
    }
  }
}

void Router::record_update_result(const Pending& p, const std::string& line) {
  try {
    const obs::JsonValue doc = obs::parse_json(line);
    const obs::JsonValue* ok = doc.find("ok");
    if (ok == nullptr || ok->kind != obs::JsonValue::Kind::boolean ||
        !ok->boolean) {
      return;  // the worker rejected the update; no state changed
    }
    if (const obs::JsonValue* unchanged = doc.find("unchanged");
        unchanged != nullptr &&
        unchanged->kind == obs::JsonValue::Kind::boolean &&
        unchanged->boolean) {
      return;  // empty batch: no new fingerprint to track
    }
    const obs::JsonValue* ng = doc.find("new_graph");
    if (ng == nullptr || !ng->is_string()) {
      return;
    }
    const std::uint64_t new_fp = parse_fingerprint(ng->string);
    if (new_fp == p.update_old) {
      return;
    }
    if (derived_root_.emplace(new_fp, p.fp).second) {
      // First sighting of this derived fingerprint: keep the verbatim line
      // so the owning worker can re-execute the chain after a respawn
      // (cache idempotence worker-side makes the replay land exactly once).
      update_replay_.emplace_back(p.fp, p.raw);
    }
  } catch (const std::exception&) {
    // Unparseable relay body; nothing to track.
  }
}

// ---------------------------------------------------------------------------
// Supervision: death, respawn, replay, retry
// ---------------------------------------------------------------------------

void Router::handle_worker_death(int w) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  if (pool_.state(w) == WorkerPool::State::down && lane.inflight.empty() &&
      lane.outbound.empty()) {
    return;  // already handled
  }
  ++stat_restarts_;
  pool_.mark_dead(w);
  lane.outbound.clear();
  lane.inbound.clear();
  std::deque<Pending> inflight = std::move(lane.inflight);
  lane.inflight.clear();

  std::vector<Pending> requeue;
  for (Pending& p : inflight) {
    switch (p.action) {
      case Action::stats:
        fanout_worker_unavailable(p.stats_tag, w);
        break;
      case Action::absorb:
        break;  // replay rebuilds the load set
      case Action::relay: {
        if (p.discarded) {
          break;
        }
        if (p.retried) {
          respond_error(p.client_id, "worker_failed",
                        "request failed twice across a worker restart");
          break;
        }
        p.retried = true;
        ++stat_retries_;
        // The retry waits for the respawn at the front of the backlog.
        requeue.push_back(std::move(p));
        break;
      }
    }
  }
  // Retried requests go ahead of anything that was still queued: they were
  // admitted first, and FIFO per fingerprint is part of the contract.
  for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
    lane.backlog.push_front(std::move(*it));
  }

  if (draining_) {
    // No respawn during shutdown: fail whatever is left.
    for (Pending& p : lane.backlog) {
      if (p.action == Action::relay && !p.discarded) {
        respond_error(p.client_id, "worker_failed",
                      "worker died during shutdown drain");
      } else if (p.action == Action::stats) {
        fanout_worker_unavailable(p.stats_tag, w);
      }
    }
    lane.backlog.clear();
    return;
  }
  lane.spawn_attempts = 1;
  pool_.start(w);  // upkeep() completes the connect and replays loads
}

void Router::on_worker_up(int w) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  lane.spawn_attempts = 0;
  // Replay every load this worker owns -- the preload set plus everything
  // loaded since -- ahead of the requests waiting in the backlog. loads_
  // is ordered by fingerprint, so replay order is deterministic.
  std::deque<Pending> replay;
  for (const auto& [fp, path] : loads_) {
    if (ring_.primary(fp) != w) {
      continue;
    }
    Pending p;
    p.raw = load_line_for(fp);
    p.fp = fp;
    p.action = Action::absorb;
    replay.push_back(std::move(p));
  }
  // Then every successful update whose root this worker owns, in
  // execution order: replay rebuilds the derived graphs the dead worker
  // held (the loads above restored their roots first). Worker-side cache
  // idempotence makes a replayed update land exactly once even when the
  // retried in-flight copy of the same line also runs.
  for (const auto& [root, line] : update_replay_) {
    if (ring_.primary(root) != w) {
      continue;
    }
    Pending p;
    p.raw = line;
    p.fp = root;
    p.action = Action::absorb;
    replay.push_back(std::move(p));
  }
  for (auto it = replay.rbegin(); it != replay.rend(); ++it) {
    lane.backlog.push_front(std::move(*it));
  }
  refill_window(w);
}

void Router::fail_worker(int w) {
  Lane& lane = lanes_[static_cast<std::size_t>(w)];
  lane.failed = true;
  std::fprintf(stderr,
               "hicond_router: worker %d failed to start %d times; marking "
               "it permanently down\n",
               w, options_.max_spawn_attempts);
  for (Pending& p : lane.backlog) {
    if (p.action == Action::relay && !p.discarded) {
      respond_error(p.client_id, "worker_failed",
                    "worker could not be restarted");
    } else if (p.action == Action::stats) {
      fanout_worker_unavailable(p.stats_tag, w);
    }
  }
  lane.backlog.clear();
}

void Router::upkeep() {
  for (int w = 0; w < pool_.count(); ++w) {
    Lane& lane = lanes_[static_cast<std::size_t>(w)];
    if (lane.failed || draining_) {
      continue;
    }
    const WorkerPool::State state = pool_.state(w);
    if (state == WorkerPool::State::starting) {
      if (pool_.try_connect(w)) {
        on_worker_up(w);
      } else if (pool_.state(w) == WorkerPool::State::down) {
        // Child died before binding; retry or give up below.
      } else if (pool_.starting_seconds(w) >
                 options_.worker.spawn_timeout_seconds) {
        pool_.mark_dead(w);  // hung before binding; treat like a death
      }
    }
    if (pool_.state(w) == WorkerPool::State::down) {
      if (lane.spawn_attempts >= options_.max_spawn_attempts) {
        fail_worker(w);
      } else {
        lane.spawn_attempts += 1;
        pool_.start(w);
      }
    }
  }
  check_deadlines();
  maybe_finish_drain();
}

void Router::check_deadlines() {
  const auto expired = [](const Pending& p) {
    return p.deadline_ms >= 0.0 && p.action == Action::relay &&
           !p.discarded && p.since.millis() > p.deadline_ms;
  };
  for (Lane& lane : lanes_) {
    for (Pending& p : lane.inflight) {
      if (expired(p)) {
        respond_error(p.client_id, "deadline_exceeded",
                      "deadline expired while the request was in flight");
        p.discarded = true;  // keep the slot: the response is still owed
      }
    }
    for (auto it = lane.backlog.begin(); it != lane.backlog.end();) {
      if (expired(*it)) {
        respond_error(it->client_id, "deadline_exceeded",
                      "deadline expired while queued for a worker");
        it = lane.backlog.erase(it);
      } else {
        ++it;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// stats fan-out / topology / shutdown
// ---------------------------------------------------------------------------

void Router::fanout_worker_unavailable(int tag, int w) {
  const auto it = fanouts_.find(tag);
  if (it == fanouts_.end()) {
    return;
  }
  it->second.unavailable.push_back(w);
  if (--it->second.outstanding <= 0) {
    finish_stats(tag);
  }
}

void Router::start_stats_fanout(std::int64_t id, double deadline_ms) {
  const int tag = next_stats_tag_++;
  StatsFanout& fan = fanouts_[tag];
  fan.client_id = id;
  std::vector<int> targets;
  for (int w = 0; w < pool_.count(); ++w) {
    if (!lanes_[static_cast<std::size_t>(w)].failed &&
        pool_.state(w) != WorkerPool::State::down) {
      targets.push_back(w);
    } else {
      fan.unavailable.push_back(w);
    }
  }
  fan.outstanding = static_cast<int>(targets.size());
  if (fan.outstanding == 0) {
    finish_stats(tag);
    return;
  }
  for (const int w : targets) {
    Pending p;
    p.client_id = id;
    p.raw = "{\"op\":\"stats\"}";
    p.action = Action::stats;
    p.stats_tag = tag;
    p.deadline_ms = deadline_ms;
    dispatch(w, std::move(p));
  }
}

void Router::finish_stats(int tag) {
  const auto it = fanouts_.find(tag);
  if (it == fanouts_.end()) {
    return;
  }
  StatsFanout fan = std::move(it->second);
  fanouts_.erase(it);
  std::sort(fan.docs.begin(), fan.docs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  const auto sum_field = [&fan](std::initializer_list<const char*> path) {
    double total = 0.0;
    for (const auto& [w, doc] : fan.docs) {
      const obs::JsonValue* v = &doc;
      for (const char* key : path) {
        v = v->find(key);
        if (v == nullptr) {
          break;
        }
      }
      if (v != nullptr && v->is_number()) {
        total += v->number;
      }
    }
    return static_cast<std::int64_t>(total);
  };

  int workers_up = 0;
  for (int w = 0; w < pool_.count(); ++w) {
    if (pool_.state(w) == WorkerPool::State::up) {
      ++workers_up;
    }
  }

  obs::JsonWriter w;
  w.begin_object();
  if (fan.client_id >= 0) {
    w.kv("id", fan.client_id);
  }
  w.kv("ok", true);
  w.kv("op", "stats");
  w.kv("workers", pool_.count());

  w.key("aggregate");
  w.begin_object();
  w.key("cache");
  w.begin_object();
  w.kv("hits", sum_field({"cache", "hits"}));
  w.kv("misses", sum_field({"cache", "misses"}));
  w.kv("evictions", sum_field({"cache", "evictions"}));
  w.kv("entries", sum_field({"cache", "entries"}));
  w.kv("bytes", sum_field({"cache", "bytes"}));
  w.kv("budget_bytes", sum_field({"cache", "budget_bytes"}));
  w.end_object();
  w.kv("graphs_loaded", sum_field({"graphs_loaded"}));
  w.kv("requests", sum_field({"requests"}));
  w.end_object();

  w.key("router");
  w.begin_object();
  w.kv("requests", stat_requests_);
  w.kv("routed", stat_routed_);
  w.kv("updates", stat_updates_);
  w.kv("derived_graphs", static_cast<std::int64_t>(derived_root_.size()));
  w.kv("retries", stat_retries_);
  w.kv("restarts", stat_restarts_);
  w.kv("shed", stat_shed_);
  w.kv("workers_up", workers_up);
  w.end_object();

  w.key("per_worker");
  w.begin_array();
  std::size_t doc_index = 0;
  for (int i = 0; i < pool_.count(); ++i) {
    const Lane& lane = lanes_[static_cast<std::size_t>(i)];
    w.begin_object();
    w.kv("worker", i);
    w.kv("state",
         lane.failed ? "failed" : state_name(pool_.state(i)));
    w.kv("pid", static_cast<std::int64_t>(pool_.pid(i)));
    w.kv("restarts", pool_.restarts(i));
    w.kv("inflight", lane.inflight.size());
    w.kv("backlog", lane.backlog.size());
    if (doc_index < fan.docs.size() && fan.docs[doc_index].first == i) {
      w.key("stats");
      obs::write_json(w, fan.docs[doc_index].second);
      ++doc_index;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  respond(w.str());
}

void Router::handle_topology(std::int64_t id) {
  obs::JsonWriter w;
  w.begin_object();
  if (id >= 0) {
    w.kv("id", id);
  }
  w.kv("ok", true);
  w.kv("op", "topology");
  w.kv("workers_total", pool_.count());
  w.key("ring");
  w.begin_object();
  w.kv("vnodes_per_worker", ring_.vnodes_per_worker());
  w.end_object();
  w.key("workers");
  w.begin_array();
  for (int i = 0; i < pool_.count(); ++i) {
    const Lane& lane = lanes_[static_cast<std::size_t>(i)];
    w.begin_object();
    w.kv("worker", i);
    w.kv("state", lane.failed ? "failed" : state_name(pool_.state(i)));
    w.kv("pid", static_cast<std::int64_t>(pool_.pid(i)));
    w.kv("socket", pool_.socket_path(i));
    w.kv("restarts", pool_.restarts(i));
    w.kv("inflight", lane.inflight.size());
    w.kv("backlog", lane.backlog.size());
    w.end_object();
  }
  w.end_array();
  w.key("graphs");
  w.begin_array();
  for (const auto& [fp, path] : loads_) {
    w.begin_object();
    w.kv("fingerprint", fingerprint_hex(fp));
    w.kv("path", path);
    w.kv("primary", ring_.primary(fp));
    w.end_object();
  }
  w.end_array();
  w.key("derived");
  w.begin_array();
  for (const auto& [fp, root] : derived_root_) {
    w.begin_object();
    w.kv("fingerprint", fingerprint_hex(fp));
    w.kv("root", fingerprint_hex(root));
    w.kv("primary", ring_.primary(root));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  respond(w.str());
}

void Router::begin_drain(std::int64_t id, bool reply) {
  if (draining_) {
    return;
  }
  draining_ = true;
  shutdown_reply_ = reply;
  shutdown_id_ = id;
  drain_timer_.reset();
}

void Router::maybe_finish_drain() {
  if (!draining_ || stop_) {
    return;
  }
  const bool timed_out =
      drain_timer_.seconds() > options_.drain_timeout_seconds;
  bool lanes_empty = true;
  for (const Lane& lane : lanes_) {
    if (!lane.inflight.empty() || !lane.backlog.empty() ||
        !lane.outbound.empty()) {
      lanes_empty = false;
    }
  }
  if (!worker_shutdowns_sent_) {
    if (!lanes_empty && !timed_out) {
      return;  // let admitted work finish first
    }
    for (int i = 0; i < pool_.count(); ++i) {
      if (pool_.state(i) == WorkerPool::State::up) {
        Pending p;
        p.raw = "{\"op\":\"shutdown\"}";
        p.action = Action::absorb;
        dispatch(i, std::move(p));
      }
    }
    worker_shutdowns_sent_ = true;
    return;
  }
  if (!lanes_empty && !timed_out) {
    return;  // waiting for the shutdown acknowledgements
  }
  const int killed = pool_.reap_all(5.0);
  if (shutdown_reply_) {
    obs::JsonWriter w;
    w.begin_object();
    if (shutdown_id_ >= 0) {
      w.kv("id", shutdown_id_);
    }
    w.kv("ok", true);
    w.kv("op", "shutdown");
    w.kv("workers_stopped", pool_.count());
    w.kv("workers_killed", killed);
    w.end_object();
    respond(w.str());
  }
  stop_ = true;
}

// ---------------------------------------------------------------------------
// Event loop and transports
// ---------------------------------------------------------------------------

int Router::run_loop(int client_in, int client_out, bool shutdown_on_eof) {
  client_out_ = client_out;
  client_gone_ = false;
  bool client_eof = false;
  std::string line;
  while (!stop_) {
    std::vector<pollfd> fds;
    // Slot 0 is the client (skipped once EOF or drain begins).
    const bool watch_client = !client_eof && !draining_;
    fds.push_back(pollfd{watch_client ? client_in : -1, POLLIN, 0});
    std::vector<int> fd_worker;
    for (int w = 0; w < pool_.count(); ++w) {
      if (pool_.state(w) != WorkerPool::State::up) {
        continue;
      }
      const Lane& lane = lanes_[static_cast<std::size_t>(w)];
      short events = POLLIN;
      if (!lane.outbound.empty()) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{pool_.fd(w), events, 0});
      fd_worker.push_back(w);
    }
    const int rc = ::poll(fds.data(), fds.size(), kPollMillis);
    if (rc < 0 && errno != EINTR) {
      break;
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const int w = fd_worker[i - 1];
      if (pool_.state(w) != WorkerPool::State::up) {
        continue;  // a death handled earlier this round invalidated the fd
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        on_worker_readable(w);
      }
      if (pool_.state(w) == WorkerPool::State::up &&
          (fds[i].revents & POLLOUT) != 0) {
        flush(w);
      }
    }
    // Flush lanes that accumulated bytes this round (dispatch never writes
    // directly; a freshly filled buffer would otherwise wait one tick).
    for (int w = 0; w < pool_.count(); ++w) {
      if (pool_.state(w) == WorkerPool::State::up) {
        refill_window(w);
        flush(w);
      }
    }
    if (watch_client && (fds[0].revents & (POLLIN | POLLHUP)) != 0) {
      const wire::ReadStatus status = wire::read_into(client_in, client_buffer_);
      if (status == wire::ReadStatus::data) {
        while (!draining_ && client_buffer_.next_line(line)) {
          if (!line.empty()) {
            handle_client_line(line);
          }
        }
      } else if (status != wire::ReadStatus::would_block) {
        client_eof = true;
        if (shutdown_on_eof) {
          begin_drain(-1, /*reply=*/false);
        } else {
          break;  // unix-socket client disconnected; workers stay up
        }
      }
    }
    upkeep();
  }
  // A client that disconnects mid-flight must not leave stale relays: any
  // response still owed would be written to the next connection otherwise.
  for (Lane& lane : lanes_) {
    for (Pending& p : lane.inflight) {
      if (p.action == Action::relay) {
        p.discarded = true;
      }
    }
    lane.backlog.erase(
        std::remove_if(lane.backlog.begin(), lane.backlog.end(),
                       [](const Pending& p) {
                         return p.action == Action::relay;
                       }),
        lane.backlog.end());
  }
  fanouts_.clear();
  client_buffer_.clear();
  client_out_ = -1;
  return 0;
}

int Router::run_stream(int in_fd, int out_fd) {
  return run_loop(in_fd, out_fd, /*shutdown_on_eof=*/true);
}

int Router::run_unix_socket(const std::string& path) {
  // listen_unix closes the connection even when run_loop throws
  // mid-session.
  wire::listen_unix(path, [this](int fd) {
    run_loop(fd, fd, /*shutdown_on_eof=*/false);
    return !stop_;
  });
  return 0;
}

}  // namespace hicond::serve::shard
