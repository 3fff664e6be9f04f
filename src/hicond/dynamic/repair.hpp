// Local repair of a laminar hierarchy after an edge-update batch.
//
// The expander-pruning insight (Saranurak-Wang; see PAPERS.md) is that an
// edge change damages a [phi, rho] decomposition only locally: clusters not
// incident to a touched edge keep their closure conductance verbatim, so a
// serving system does not need the full `build_hierarchy` rebuild that a
// fingerprint miss costs today. `repair_decomposition` recomputes closure
// conductance only for clusters incident to touched edges, marks the ones
// whose phi dropped below the floor -- or that became internally
// disconnected -- as *dirty*, dissolves the dirty set plus a 1-hop cluster
// halo, re-runs the Section 3.1 fixed-degree clustering on that induced
// subregion, and splices the result back with untouched clusters' ids
// preserved.
//
// The dirty scan scores a cluster of at most 20 members exactly from its own
// vertices (closure_conductance in graph/closure.hpp: boundary leaves sit on
// their parent's side in an optimal closure cut, so only the 2^(|C|-1)
// bipartitions of the cluster need enumerating), at a cost independent of
// the graph size. A larger cluster builds its closure and is scored by the
// certified Cheeger lower bound. The upper hierarchy is rebuilt only when
// the level-0 quotient actually changed (bitwise CSR comparison); otherwise
// every upper level and the coarsest graph are reused as-is.
//
// Repair *declines* (RepairResult::repaired == false, with a reason) when it
// would not be cheaper or meaningful: a hierarchy built by a contraction
// backend with no local re-clustering (anything but "fixed_degree"), a flat
// hierarchy (no contraction levels), or a dirty region exceeding
// RepairOptions::max_dirty_volume_fraction of the total volume. Callers fall
// back to a cold build; the HierarchyCache update path does exactly that.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "hicond/dynamic/update.hpp"
#include "hicond/partition/hierarchy.hpp"

namespace hicond::dynamic {

struct RepairOptions {
  /// Conductance floor below which a touched cluster is dirty. Negative
  /// means "derive the paper's fixed-degree guarantee 1 / (2 d^2 k) from the
  /// updated graph" (d = max degree, k = contraction.max_cluster_size).
  double phi_floor = -1.0;
  /// Decline when vol(dirty + halo) exceeds this fraction of total volume:
  /// past that point a cold rebuild is at least as cheap and yields the
  /// canonical (from-scratch) hierarchy.
  double max_dirty_volume_fraction = 0.25;
};

struct RepairResult {
  /// False when repair declined; `hierarchy` is then empty and
  /// `decline_reason` says why ("backend_unsupported", "flat_hierarchy",
  /// "dirty_volume_exceeded").
  bool repaired = false;
  std::string decline_reason;
  LaminarHierarchy hierarchy;
  /// Dissolved cluster ids (dirty + halo) in the *old* level-0 decomposition,
  /// sorted ascending. Empty for a quotient-only repair (e.g. a pure
  /// crossing-edge reweight).
  std::vector<vidx> dissolved;
  vidx clusters_dirty = 0;    ///< clusters whose phi dropped / disconnected
  vidx clusters_touched = 0;  ///< dissolved.size(): dirty + 1-hop halo
  bool upper_rebuilt = false; ///< level-0 quotient changed
  double dirty_volume_fraction = 0.0;
};

/// Repair `old_hierarchy` (built from the pre-update graph with `options`)
/// so that it is a valid hierarchy of `new_graph`, which must be the result
/// of apply_updates(old graph, updates). The repaired level-0 decomposition
/// preserves the partition of every non-dissolved cluster; dissolved ids are
/// reassigned deterministically (freed ids are refilled in ascending order,
/// overflow ids appended past the old cluster count, and when the repair
/// produced *fewer* clusters the surviving ids above the freed holes shift
/// down to keep ids dense). Upper levels reuse the old hierarchy when the
/// quotient is bitwise unchanged; otherwise they are rebuilt from the new
/// quotient with the same per-level seed schedule build_hierarchy would use.
[[nodiscard]] RepairResult repair_decomposition(
    const Graph& new_graph, std::span<const EdgeUpdate> updates,
    const LaminarHierarchy& old_hierarchy, const HierarchyOptions& options,
    const RepairOptions& repair = {});

}  // namespace hicond::dynamic
