#include "hicond/serve/server.hpp"

#include <exception>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "hicond/dynamic/update.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/io.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/partition/backends/backend.hpp"
#include "hicond/serve/batch.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/serve/wire.hpp"
#include "hicond/util/parallel.hpp"
#include "hicond/util/rng.hpp"

namespace hicond::serve {

namespace {

double number_or(const obs::JsonValue& object, std::string_view name,
                 double fallback) {
  const obs::JsonValue* v = object.find(name);
  if (v == nullptr) {
    return fallback;
  }
  HICOND_CHECK(v->is_number(), "request field must be a number");
  return v->number;
}

bool bool_or(const obs::JsonValue& object, std::string_view name,
             bool fallback) {
  const obs::JsonValue* v = object.find(name);
  if (v == nullptr) {
    return fallback;
  }
  HICOND_CHECK(v->kind == obs::JsonValue::Kind::boolean,
               "request field must be a boolean");
  return v->boolean;
}

/// A shipped vector of length n, moved out of the request.
std::vector<double> parse_vector(obs::JsonValue& v, std::size_t n) {
  HICOND_CHECK(v.is_array() || v.is_number_array(),
               "right-hand side must be a JSON array");
  HICOND_CHECK(v.size() == n,
               "right-hand side length does not match the graph");
  // The envelope packs every non-empty all-number array, so an array left
  // as DOM nodes holds a non-number.
  HICOND_CHECK(v.is_number_array(),
               "right-hand side entries must be numbers");
  return std::move(v.numbers);
}

/// Server-side RHS generation: mean-free uniform noise from a caller seed.
/// The same (seed, n) always yields the same bit-exact vector, so scripted
/// sessions can compare solution fingerprints without shipping vectors.
std::vector<double> random_rhs(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-1.0, 1.0);
  }
  la::remove_mean(b);
  return b;
}

void write_solve_summary(obs::JsonWriter& w, const SolveStats& stats) {
  w.kv("iterations", stats.iterations);
  w.kv("converged", stats.converged);
  w.kv("final_relative_residual", stats.final_relative_residual);
}

}  // namespace

ServerCore::ServerCore(const ServerOptions& options)
    : options_(options), cache_(options.cache_bytes) {}

std::optional<std::string> ServerCore::submit(const std::string& line) {
  HICOND_CHECK(!pending_.has_value(),
               "submit() needs the pending request stepped first");
  ++requests_;
  Pending pending;
  if (auto refused =
          parse_envelope(line, options_.default_deadline_ms, pending.envelope)) {
    return refused;
  }
  const std::string& op = pending.envelope.op;
  if (op != "load" && op != "solve" && op != "batch_solve" &&
      op != "update" && op != "stats" && op != "shutdown") {
    return error_response(pending.envelope.id, "unknown_op",
                          "unsupported op: " + op);
  }
  pending.since_submit.reset();
  pending_ = std::move(pending);
  return std::nullopt;
}

std::optional<std::string> ServerCore::step() {
  if (!pending_.has_value()) {
    return std::nullopt;
  }
  Pending pending = std::move(*pending_);
  pending_.reset();
  try {
    return process(pending);
  } catch (const std::exception& e) {
    return error_response(pending.envelope.id, "bad_request", e.what());
  }
}

std::string ServerCore::handle(const std::string& line) {
  if (auto refused = submit(line)) {
    return *std::move(refused);
  }
  return *step();
}

std::string ServerCore::process(Pending& pending) {
  const std::int64_t id = pending.envelope.id;
  const auto expired = [&pending]() {
    return pending.envelope.deadline_ms >= 0.0 &&
           pending.since_submit.seconds() * 1000.0 >
               pending.envelope.deadline_ms;
  };
  if (expired()) {
    return error_response(id, "deadline_exceeded",
                          "deadline expired before processing began");
  }
  obs::JsonValue& request = pending.envelope.request;
  const std::string& op = pending.envelope.op;

  obs::JsonWriter w;
  w.begin_object();
  if (id >= 0) {
    w.kv("id", id);
  }

  if (op == "load") {
    const obs::JsonValue& path = request.at("path");
    HICOND_CHECK(path.is_string(), "load needs a string \"path\"");
    Graph g = read_graph_auto(path.string);
    const std::uint64_t fp = graph_fingerprint(g);
    const auto n = g.num_vertices();
    const auto arcs = g.num_arcs();
    graphs_[fp] = std::make_shared<const Graph>(std::move(g));
    w.kv("ok", true);
    w.kv("op", op);
    w.kv("graph", fingerprint_hex(fp));
    w.kv("n", static_cast<std::int64_t>(n));
    w.kv("arcs", static_cast<std::int64_t>(arcs));
    w.end_object();
    return w.str();
  }

  if (op == "stats") {
    const HierarchyCache::Stats cs = cache_.stats();
    w.kv("ok", true);
    w.kv("op", op);
    w.key("cache");
    w.begin_object();
    w.kv("hits", cs.hits);
    w.kv("misses", cs.misses);
    w.kv("evictions", cs.evictions);
    w.kv("entries", cs.entries);
    w.kv("bytes", cs.bytes);
    w.kv("budget_bytes", cs.budget_bytes);
    w.kv("ticks", cs.ticks);
    // Per-entry usage, most recently used first: which graphs are earning
    // their residency.
    w.key("per_entry");
    w.begin_array();
    for (const HierarchyCache::EntryStats& e : cs.per_entry) {
      w.begin_object();
      w.kv("fingerprint", fingerprint_hex(e.fingerprint));
      w.kv("hits", e.hits);
      w.kv("last_use", e.last_use);
      w.kv("bytes", e.bytes);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.kv("graphs_loaded", graphs_.size());
    w.kv("requests", requests_);
    w.kv("threads", num_threads());
    w.end_object();
    return w.str();
  }

  if (op == "shutdown") {
    shutdown_ = true;
    w.kv("ok", true);
    w.kv("op", op);
    w.kv("drained", true);
    w.end_object();
    return w.str();
  }

  // solve / batch_solve / update share graph resolution and option
  // overrides.
  const obs::JsonValue& graph_field = request.at("graph");
  HICOND_CHECK(graph_field.is_string(),
               op + " needs a string \"graph\" fingerprint");
  const std::uint64_t fp = parse_fingerprint(graph_field.string);
  const auto git = graphs_.find(fp);
  if (git == graphs_.end()) {
    return error_response(id, "not_found",
                          "graph " + graph_field.string +
                              " has not been loaded");
  }
  const Graph& graph = *git->second;
  const auto n = static_cast<std::size_t>(graph.num_vertices());

  LaplacianSolverOptions solver_options = options_.solver;
  solver_options.rel_tolerance =
      number_or(request, "rel_tolerance", solver_options.rel_tolerance);
  constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
  solver_options.max_iterations = static_cast<int>(integer_field(
      request, "max_iterations", 0, kMaxInt, solver_options.max_iterations));
  // Per-request contraction backend: the name becomes part of the canonical
  // options, so solves against different backends get distinct cache
  // entries. An unregistered name is rejected before any build starts.
  if (const obs::JsonValue* bk = request.find("backend"); bk != nullptr) {
    HICOND_CHECK(bk->is_string(), "backend must be a string");
    if (partition::find_backend(bk->string) == nullptr) {
      return error_response(id, "unknown_backend",
                            "no registered partitioner backend named \"" +
                                bk->string + "\"");
    }
    solver_options.hierarchy.contraction.backend = bk->string;
  }
  if (const obs::JsonValue* bo = request.find("backend_options");
      bo != nullptr) {
    HICOND_CHECK(bo->is_object(), "backend_options must be an object");
    partition::BackendOptions& c = solver_options.hierarchy.contraction;
    c.max_cluster_size = static_cast<vidx>(
        integer_field(*bo, "max_cluster_size", 0,
                      std::numeric_limits<vidx>::max(), c.max_cluster_size));
    c.seed = static_cast<std::uint64_t>(integer_field(
        *bo, "seed", 0, kMaxWireInteger, static_cast<std::int64_t>(c.seed)));
    c.perturb = bool_or(*bo, "perturb", c.perturb);
    c.resolution = number_or(*bo, "resolution", c.resolution);
    c.rounds = static_cast<int>(
        integer_field(*bo, "rounds", 0, kMaxInt, c.rounds));
    c.beta = number_or(*bo, "beta", c.beta);
  }

  if (op == "update") {
    // A wire-supplied batch length is untrusted; cap it before parsing
    // allocates (same discipline as rhs_random.count below).
    constexpr std::uint64_t kMaxUpdates = std::uint64_t{1} << 20;
    const std::vector<dynamic::EdgeUpdate> updates =
        dynamic::parse_updates(request.at("updates"), kMaxUpdates);
    std::string mode = "auto";
    if (const obs::JsonValue* mv = request.find("mode"); mv != nullptr) {
      HICOND_CHECK(mv->is_string(), "update mode must be a string");
      mode = mv->string;
      HICOND_CHECK(mode == "auto" || mode == "rebuild",
                   "update mode must be \"auto\" or \"rebuild\"");
    }
    Graph new_graph = dynamic::apply_updates(graph, updates);
    const std::uint64_t new_fp = graph_fingerprint(new_graph);
    const auto new_n = static_cast<std::int64_t>(new_graph.num_vertices());
    const auto new_arcs = static_cast<std::int64_t>(new_graph.num_arcs());
    if (new_fp == fp) {
      // Net no-op batch: canonical form is unchanged, so the fingerprint is
      // too; nothing is registered or built.
      w.kv("ok", true);
      w.kv("op", op);
      w.kv("graph", graph_field.string);
      w.kv("new_graph", graph_field.string);
      w.kv("unchanged", true);
      w.kv("n", new_n);
      w.kv("arcs", new_arcs);
      w.end_object();
      return w.str();
    }
    if (!is_connected(new_graph)) {
      // Reject before registering anything: a disconnected graph cannot be
      // served (LaplacianSolver requires connectivity), so the update must
      // not land partially.
      return error_response(id, "disconnected",
                            "update would disconnect the graph; no state "
                            "was changed");
    }
    // emplace keeps an existing registration (a retried update), so the
    // shared_ptr handed to earlier solves stays valid.
    const auto [new_git, inserted] = graphs_.emplace(
        new_fp, std::make_shared<const Graph>(std::move(new_graph)));
    static_cast<void>(inserted);
    const HierarchyCache::UpdateOutcome outcome = cache_.update_entry(
        fp, new_fp, *new_git->second, updates, solver_options, {},
        /*allow_repair=*/mode != "rebuild");
    if (expired()) {
      // The repaired/rebuilt entry stays cached for later requests, but
      // this response is shed.
      return error_response(id, "deadline_exceeded",
                            "deadline expired during update build");
    }
    w.kv("ok", true);
    w.kv("op", op);
    w.kv("graph", graph_field.string);
    w.kv("new_graph", fingerprint_hex(new_fp));
    w.kv("unchanged", false);
    w.kv("n", new_n);
    w.kv("arcs", new_arcs);
    w.kv("repaired", outcome.repaired);
    w.kv("already_cached", outcome.already_cached);
    w.kv("upper_rebuilt", outcome.upper_rebuilt);
    w.kv("clusters_touched",
         static_cast<std::int64_t>(outcome.clusters_touched));
    w.kv("clusters_dirty", static_cast<std::int64_t>(outcome.clusters_dirty));
    w.kv("decline_reason", outcome.decline_reason);
    w.kv("setup_seconds", outcome.build_seconds);
    w.end_object();
    return w.str();
  }

  const HierarchyCache::Lookup lookup =
      cache_.get_or_build(fp, graph, solver_options);
  if (expired()) {
    // The hierarchy stays cached for later requests, but this one is shed
    // before any solve work happens.
    return error_response(id, "deadline_exceeded",
                          "deadline expired during solver setup");
  }
  const bool return_x = bool_or(request, "return_x", false);

  if (op == "solve") {
    std::vector<double> b;
    if (obs::JsonValue* bv = request.find("b"); bv != nullptr) {
      b = parse_vector(*bv, n);
    } else {
      b = random_rhs(static_cast<std::uint64_t>(integer_field(
                         request, "rhs_seed", 0, kMaxWireInteger)),
                     n);
    }
    std::vector<double> x(n, 0.0);
    const Timer solve_timer;
    const SolveStats stats = lookup.solver->solve(b, x);
    const double solve_seconds = solve_timer.seconds();
    w.kv("ok", true);
    w.kv("op", op);
    w.kv("graph", graph_field.string);
    w.kv("cache_hit", lookup.hit);
    w.kv("backend", solver_options.hierarchy.contraction.backend);
    w.kv("setup_seconds", lookup.build_seconds);
    w.kv("solve_seconds", solve_seconds);
    write_solve_summary(w, stats);
    w.kv("solution_fnv", fingerprint_hex(solution_fingerprint(x)));
    if (return_x) {
      w.key("x");
      w.values(x);
    }
    w.end_object();
    return w.str();
  }

  // op == "batch_solve"
  std::vector<std::vector<double>> rhs;
  if (obs::JsonValue* rv = request.find("rhs"); rv != nullptr) {
    HICOND_CHECK(rv->is_array() || rv->is_number_array(),
                 "rhs must be an array of arrays");
    // A packed rhs holds numbers: its first column is not an array.
    HICOND_CHECK(!rv->is_number_array(),
                 "right-hand side must be a JSON array");
    rhs.reserve(rv->array.size());
    for (obs::JsonValue& column : rv->array) {
      rhs.push_back(parse_vector(column, n));
    }
  } else {
    const obs::JsonValue& spec = request.at("rhs_random");
    HICOND_CHECK(spec.is_object(),
                 "rhs_random must be an object {count, seed}");
    const std::int64_t count =
        integer_field(spec, "count", 1, kMaxWireInteger, 1);
    const auto seed = static_cast<std::uint64_t>(
        integer_field(spec, "seed", 0, kMaxWireInteger, 0));
    // A wire-supplied count is untrusted: without the upper cap a hostile
    // {"count": 2e9} forces a multi-GB allocation before any solve runs.
    constexpr std::uint64_t kMaxRandomRhs = 4096;
    const std::size_t columns = checked_size(
        static_cast<std::uint64_t>(count), kMaxRandomRhs, "rhs_random.count");
    rhs.reserve(columns);
    for (std::size_t j = 0; j < columns; ++j) {
      rhs.push_back(random_rhs(seed + static_cast<std::uint64_t>(j), n));
    }
  }
  HICOND_CHECK(!rhs.empty(), "batch_solve needs at least one rhs");

  const BatchSolveResult batch = serve::batch_solve(*lookup.solver, rhs);
  w.kv("ok", true);
  w.kv("op", op);
  w.kv("graph", graph_field.string);
  w.kv("cache_hit", lookup.hit);
  w.kv("backend", solver_options.hierarchy.contraction.backend);
  w.kv("setup_seconds", lookup.build_seconds);
  w.kv("solve_seconds", batch.solve_seconds);
  w.kv("k", static_cast<std::int64_t>(rhs.size()));
  w.key("iterations");
  w.begin_array();
  for (const SolveStats& s : batch.stats) {
    w.value(s.iterations);
  }
  w.end_array();
  w.key("converged");
  w.begin_array();
  for (const SolveStats& s : batch.stats) {
    w.value(s.converged);
  }
  w.end_array();
  w.key("solution_fnv");
  w.begin_array();
  for (const std::uint64_t h : batch.solution_hash) {
    w.value(fingerprint_hex(h));
  }
  w.end_array();
  if (return_x) {
    w.key("x");
    w.begin_array();
    for (const std::vector<double>& column : batch.x) {
      w.values(column);
    }
    w.end_array();
  }
  w.end_object();
  return w.str();
}

int serve_stream(ServerCore& core, std::istream& in, std::ostream& out) {
  std::string line;
  while (!core.shutting_down() && std::getline(in, line)) {
    if (!line.empty()) {
      out << core.handle(line) << '\n' << std::flush;
    }
  }
  return 0;
}

namespace {

void serve_connection(ServerCore& core, int fd) {
  // Both directions go through the shared wire helpers, which absorb EINTR
  // and short reads/writes in one audited place (serve/wire.hpp).
  wire::LineBuffer buffer;
  std::string line;
  while (wire::read_into(fd, buffer) == wire::ReadStatus::data) {
    while (buffer.next_line(line)) {
      if (line.empty()) {
        continue;
      }
      if (!wire::write_line(fd, core.handle(line)) || core.shutting_down()) {
        return;
      }
    }
  }
}

}  // namespace

int serve_unix_socket(ServerCore& core, const std::string& path) {
  wire::listen_unix(path, [&core](int fd) {
    serve_connection(core, fd);
    return !core.shutting_down();
  });
  return 0;
}

}  // namespace hicond::serve
