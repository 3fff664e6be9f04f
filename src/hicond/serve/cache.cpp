#include "hicond/serve/cache.hpp"

#include "hicond/partition/backends/backend.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/util/timer.hpp"

namespace hicond::serve {

namespace {

std::size_t graph_bytes(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto arcs = static_cast<std::size_t>(g.num_arcs());
  // offsets + vol (8B each per vertex), targets (4B) + weights (8B) per arc.
  return (n + 1) * 8 + n * 8 + arcs * 12;
}

}  // namespace

std::string solver_options_key(const LaplacianSolverOptions& options) {
  std::string key;
  key.reserve(256);
  const HierarchyOptions& h = options.hierarchy;
  // "backend=<name>;" + the backend's rendering of the knobs it consumes --
  // the same contraction under two backends can never share a cache entry.
  key += partition::backend_options_key(h.contraction);
  using partition::detail::append_key_double;
  using partition::detail::append_key_int;
  append_key_int(key, "h.coarsest_size", h.coarsest_size);
  append_key_int(key, "h.max_levels", h.max_levels);
  append_key_int(key, "h.refine", h.refine ? 1 : 0);
  append_key_double(key, "r.gamma_floor", h.refinement.gamma_floor);
  append_key_int(key, "r.max_rounds", h.refinement.max_rounds);
  append_key_double(key, "rel_tolerance", options.rel_tolerance);
  append_key_int(key, "max_iterations", options.max_iterations);
  return key;
}

std::size_t approx_solver_bytes(const LaplacianSolver& solver) {
  std::size_t total = graph_bytes(solver.graph());
  const LaminarHierarchy& h = solver.multilevel().hierarchy();
  for (const HierarchyLevel& lv : h.levels) {
    const auto n = static_cast<std::size_t>(lv.graph.num_vertices());
    // Level graph + decomposition assignment (4B) + inv_diag (8B) +
    // cluster-major restriction index (4B members + 8B offsets bound).
    total += graph_bytes(lv.graph) + n * 4 + n * 8 + n * 12;
  }
  const auto nc = static_cast<std::size_t>(h.coarsest.num_vertices());
  // Coarsest graph + its LDL' factor (liberally 3 nonzeros per row).
  total += graph_bytes(h.coarsest) + nc * 3 * 12;
  return total;
}

HierarchyCache::HierarchyCache(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {
  HICOND_CHECK(budget_bytes > 0, "cache budget must be positive");
}

HierarchyCache::Lookup HierarchyCache::get_or_build(
    std::uint64_t fingerprint, const Graph& graph,
    const LaplacianSolverOptions& options) {
  HICOND_VALIDATE(expensive, graph_fingerprint(graph) == fingerprint,
                  "cache fingerprint does not match the supplied graph");
  const std::string options_key = solver_options_key(options);
  const std::string key = fingerprint_hex(fingerprint) + "|" + options_key;
  {
    const MutexLock lock(mu_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      it->second->hits += 1;
      it->second->last_use = ++ticks_;
      return {it->second->solver, /*hit=*/true, 0.0};
    }
    ++ticks_;
  }
  // Build outside the lock: hierarchy construction is the expensive part
  // and must not serialize against concurrent cache hits.
  const Timer build_timer;
  auto solver = std::make_shared<const LaplacianSolver>(graph, options);
  const double build_seconds = build_timer.seconds();
  const std::size_t bytes = approx_solver_bytes(*solver);
  {
    const MutexLock lock(mu_);
    ++misses_;
    if (const auto it = index_.find(key); it != index_.end()) {
      // A concurrent builder won the race; keep its entry.
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->last_use = ticks_;
      return {it->second->solver, /*hit=*/false, build_seconds};
    }
    lru_.push_front(Entry{key, fingerprint, options_key, solver, bytes,
                          /*hits=*/0, /*last_use=*/ticks_});
    index_[key] = lru_.begin();
    bytes_ += bytes;
    evict_to_budget_locked();
  }
  return {std::move(solver), /*hit=*/false, build_seconds};
}

HierarchyCache::UpdateOutcome HierarchyCache::update_entry(
    std::uint64_t old_fingerprint, std::uint64_t new_fingerprint,
    const Graph& new_graph, std::span<const dynamic::EdgeUpdate> updates,
    const LaplacianSolverOptions& options,
    const dynamic::RepairOptions& repair_options, bool allow_repair) {
  HICOND_VALIDATE(expensive, graph_fingerprint(new_graph) == new_fingerprint,
                  "update fingerprint does not match the updated graph");
  const std::string options_key = solver_options_key(options);
  const std::string key =
      fingerprint_hex(new_fingerprint) + "|" + options_key;
  UpdateOutcome outcome;
  {
    const MutexLock lock(mu_);
    if (const auto it = index_.find(key); it != index_.end()) {
      // Idempotence: the new fingerprint is already resident (e.g. a retried
      // update after a worker death) -- serve it, do not rebuild.
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      it->second->hits += 1;
      it->second->last_use = ++ticks_;
      outcome.solver = it->second->solver;
      outcome.already_cached = true;
      return outcome;
    }
    ++ticks_;
  }
  // Probe, repair and build outside the lock (same policy as get_or_build:
  // construction must not serialize concurrent cache hits).
  const std::shared_ptr<const LaplacianSolver> old_solver =
      peek(old_fingerprint, options);
  const Timer build_timer;
  std::shared_ptr<const LaplacianSolver> solver;
  if (!allow_repair) {
    outcome.decline_reason = "repair_disabled";
  } else if (old_solver == nullptr) {
    outcome.decline_reason = "old_fingerprint_not_cached";
  } else {
    dynamic::RepairResult rr = dynamic::repair_decomposition(
        new_graph, updates, old_solver->multilevel().hierarchy(),
        options.hierarchy, repair_options);
    outcome.clusters_dirty = rr.clusters_dirty;
    if (rr.repaired) {
      solver = std::make_shared<const LaplacianSolver>(
          new_graph, std::move(rr.hierarchy), options,
          &old_solver->multilevel());
      outcome.repaired = true;
      outcome.upper_rebuilt = rr.upper_rebuilt;
      outcome.clusters_touched = rr.clusters_touched;
    } else {
      outcome.decline_reason = rr.decline_reason;
    }
  }
  if (solver == nullptr) {
    solver = std::make_shared<const LaplacianSolver>(new_graph, options);
  }
  outcome.build_seconds = build_timer.seconds();
  const std::size_t bytes = approx_solver_bytes(*solver);
  {
    const MutexLock lock(mu_);
    ++misses_;
    if (const auto it = index_.find(key); it != index_.end()) {
      // A concurrent builder won the race; keep its entry.
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->last_use = ticks_;
      outcome.solver = it->second->solver;
      return outcome;
    }
    lru_.push_front(Entry{key, new_fingerprint, options_key, solver, bytes,
                          /*hits=*/0, /*last_use=*/ticks_});
    index_[key] = lru_.begin();
    bytes_ += bytes;
    evict_to_budget_locked();
  }
  outcome.solver = std::move(solver);
  return outcome;
}

std::shared_ptr<const LaplacianSolver> HierarchyCache::peek(
    std::uint64_t fingerprint, const LaplacianSolverOptions& options) const {
  const std::string key =
      fingerprint_hex(fingerprint) + "|" + solver_options_key(options);
  const MutexLock lock(mu_);
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : it->second->solver;
}

void HierarchyCache::evict_to_budget_locked() {
  while (bytes_ > budget_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

HierarchyCache::Stats HierarchyCache::stats() const {
  const MutexLock lock(mu_);
  Stats s{hits_,       misses_, evictions_,    lru_.size(),
          bytes_,      budget_bytes_, ticks_,  {}};
  s.per_entry.reserve(lru_.size());
  for (const Entry& e : lru_) {  // front = most recently used
    s.per_entry.push_back(EntryStats{e.fingerprint, e.options_key, e.hits,
                                     e.last_use, e.bytes});
  }
  return s;
}

void HierarchyCache::clear() {
  const MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

}  // namespace hicond::serve
