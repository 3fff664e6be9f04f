// LRU cache of built solver hierarchies, keyed by graph content + options.
//
// Theorem 3.5's point is that the [phi, rho] hierarchy and its Steiner
// preconditioner are reusable across every right-hand side on the same
// operator; a serving process should therefore pay build_hierarchy once per
// (graph, options) pair and amortize it over the request stream. The cache
// key is the snapshot fingerprint (bitwise content hash of the CSR arrays,
// serve/snapshot.hpp) plus a canonical rendering of the solver options, so
// a hit is only possible when the cold build would have been bit-for-bit
// the same construction -- which, under the library's determinism policy
// (docs/PARALLELISM.md), makes a cache-hit solve bitwise identical to a
// cold-build solve. tests/test_serve.cpp pins exactly that.
//
// Eviction is least-recently-used under a byte budget; entry sizes are the
// dominant CSR/hierarchy footprints (graphs, assignments, inverse
// diagonals) estimated from the built hierarchy. Hit/miss/eviction counts,
// resident entries and bytes are read through stats(), which the server's
// `stats` op renders.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hicond/dynamic/repair.hpp"
#include "hicond/solver.hpp"
#include "hicond/util/thread_annotations.hpp"

namespace hicond::serve {

/// Canonical, order-stable rendering of every option that affects the built
/// hierarchy or the solve; part of the cache key.
[[nodiscard]] std::string solver_options_key(
    const LaplacianSolverOptions& options);

/// Dominant-footprint estimate of a built solver's resident bytes (CSR
/// arrays and per-level vectors across the hierarchy).
[[nodiscard]] std::size_t approx_solver_bytes(const LaplacianSolver& solver);

class HierarchyCache {
 public:
  /// `budget_bytes` bounds the summed entry estimates; at least the most
  /// recently used entry is always retained, so a single oversized
  /// hierarchy still serves (and is evicted by the next insertion).
  explicit HierarchyCache(std::size_t budget_bytes);

  struct Lookup {
    std::shared_ptr<const LaplacianSolver> solver;
    bool hit = false;              ///< served from cache without building
    double build_seconds = 0.0;    ///< 0 on a hit
  };

  /// Fetch the solver for (fingerprint, options), building and inserting it
  /// from `graph` on a miss. The graph must be the one the fingerprint was
  /// computed from; a debug build cross-checks that.
  [[nodiscard]] Lookup get_or_build(std::uint64_t fingerprint,
                                    const Graph& graph,
                                    const LaplacianSolverOptions& options);

  /// Probe without building; nullptr on miss (does not touch LRU order).
  [[nodiscard]] std::shared_ptr<const LaplacianSolver> peek(
      std::uint64_t fingerprint, const LaplacianSolverOptions& options) const;

  struct UpdateOutcome {
    std::shared_ptr<const LaplacianSolver> solver;
    bool repaired = false;        ///< built by local repair (not cold)
    bool already_cached = false;  ///< new fingerprint was already resident
    bool upper_rebuilt = false;   ///< repair had to rebuild above level 0
    vidx clusters_touched = 0;    ///< dissolved (dirty + halo) clusters
    vidx clusters_dirty = 0;
    /// Why the build fell back to cold ("backend_unsupported",
    /// "flat_hierarchy", "dirty_volume_exceeded",
    /// "old_fingerprint_not_cached", "repair_disabled"); empty when repaired
    /// or already cached.
    std::string decline_reason;
    double build_seconds = 0.0;  ///< 0 when already cached
  };

  /// Update-in-place: install a solver for `new_fingerprint` (the graph
  /// after `updates` were applied to the old graph) under the same options,
  /// repairing the old entry's hierarchy locally when possible. Falls back
  /// to a cold build when the old fingerprint is not resident, repair
  /// declines (see dynamic/repair.hpp), or `allow_repair` is false -- the
  /// result is a resident entry for the new key either way. Idempotent: if
  /// the new key is already cached the existing solver is returned with
  /// `already_cached` set and no work done (this is what makes a retried
  /// router `update` land exactly once).
  [[nodiscard]] UpdateOutcome update_entry(
      std::uint64_t old_fingerprint, std::uint64_t new_fingerprint,
      const Graph& new_graph, std::span<const dynamic::EdgeUpdate> updates,
      const LaplacianSolverOptions& options,
      const dynamic::RepairOptions& repair_options = {},
      bool allow_repair = true);

  /// Per-entry usage record: how often each resident hierarchy was served
  /// from cache and when it was last touched (a logical access tick, not
  /// wall time, so records are deterministic): which graphs are earning
  /// their residency.
  struct EntryStats {
    std::uint64_t fingerprint = 0;  ///< graph content hash of the entry
    std::string options_key;        ///< canonical solver-options rendering
    std::int64_t hits = 0;          ///< cache hits served by this entry
    std::int64_t last_use = 0;      ///< access tick of the latest hit/build
    std::size_t bytes = 0;          ///< footprint estimate
  };

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::size_t budget_bytes = 0;
    std::int64_t ticks = 0;  ///< total accesses (the logical clock)
    /// Resident entries, most recently used first.
    std::vector<EntryStats> per_entry;
  };
  [[nodiscard]] Stats stats() const;

  void clear();

 private:
  struct Entry {
    std::string key;
    std::uint64_t fingerprint = 0;
    std::string options_key;
    std::shared_ptr<const LaplacianSolver> solver;
    std::size_t bytes = 0;
    std::int64_t hits = 0;
    std::int64_t last_use = 0;
  };

  void evict_to_budget_locked() HICOND_REQUIRES(mu_);

  mutable Mutex mu_;
  const std::size_t budget_bytes_;  ///< immutable after construction
  std::int64_t ticks_ HICOND_GUARDED_BY(mu_) = 0;
  std::size_t bytes_ HICOND_GUARDED_BY(mu_) = 0;
  std::int64_t hits_ HICOND_GUARDED_BY(mu_) = 0;
  std::int64_t misses_ HICOND_GUARDED_BY(mu_) = 0;
  std::int64_t evictions_ HICOND_GUARDED_BY(mu_) = 0;
  /// front = most recently used
  std::list<Entry> lru_ HICOND_GUARDED_BY(mu_);
  std::map<std::string, std::list<Entry>::iterator, std::less<>> index_
      HICOND_GUARDED_BY(mu_);
};

}  // namespace hicond::serve
