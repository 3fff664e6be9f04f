#include "hicond/dynamic/repair.hpp"

#include <algorithm>
#include <utility>

#include "hicond/graph/closure.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/partition/fixed_degree.hpp"

namespace hicond::dynamic {

namespace {

RepairResult declined(const char* reason) {
  RepairResult r;
  r.repaired = false;
  r.decline_reason = reason;
  return r;
}

/// The paper's fixed-degree guarantee 1 / (2 d^2 k) evaluated on the updated
/// graph -- the default dirtiness threshold.
double default_phi_floor(const Graph& g,
                         const partition::BackendOptions& contraction) {
  const double d = static_cast<double>(g.max_degree());
  const double k = static_cast<double>(contraction.max_cluster_size);
  if (d <= 0.0 || k <= 0.0) return 0.0;
  return 1.0 / (2.0 * d * d * k);
}

}  // namespace

RepairResult repair_decomposition(const Graph& new_graph,
                                  std::span<const EdgeUpdate> updates,
                                  const LaminarHierarchy& old_hierarchy,
                                  const HierarchyOptions& options,
                                  const RepairOptions& repair) {
  HICOND_SPAN("dynamic.repair");
  HICOND_CHECK(repair.max_dirty_volume_fraction > 0.0 &&
                   repair.max_dirty_volume_fraction <= 1.0,
               "max_dirty_volume_fraction must be in (0, 1]");
  if (!partition::get_backend(options.contraction.backend).supports_repair()) {
    // The splice semantics below re-run the Section 3.1 clustering on the
    // dirty region; backends without a local construction (Louvain,
    // low-diameter) get the canonical cold rebuild instead.
    return declined("backend_unsupported");
  }
  if (old_hierarchy.levels.empty()) {
    // A flat hierarchy (input was already coarsest-sized) has no level-0
    // decomposition to repair; a cold build is just as cheap.
    return declined("flat_hierarchy");
  }
  const Decomposition& d0 = old_hierarchy.levels.front().decomposition;
  const vidx n = new_graph.num_vertices();
  HICOND_CHECK(
      n == old_hierarchy.levels.front().graph.num_vertices(),
      "updated graph and old hierarchy have different vertex counts");
  const vidx m_old = d0.num_clusters;

  // --- Dirty detection: score only the clusters incident to touched edges.
  const std::vector<vidx> touched = touched_vertices(updates);
  std::vector<vidx> candidates;
  candidates.reserve(touched.size());
  for (const vidx v : touched) {
    HICOND_CHECK(v >= 0 && v < n, "update endpoint out of range");
    candidates.push_back(d0.assignment[static_cast<std::size_t>(v)]);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  const double floor = repair.phi_floor >= 0.0
                           ? repair.phi_floor
                           : default_phi_floor(new_graph, options.contraction);
  const ClusterIndex clusters = ClusterIndex::build(d0.assignment, m_old);
  std::vector<char> is_dissolved(static_cast<std::size_t>(m_old), 0);
  vidx clusters_dirty = 0;
  {
    HICOND_SPAN("dynamic.repair_scan");
    for (const vidx c : candidates) {
      const std::span<const vidx> cluster = clusters.members(c);
      // Exact up to kClosureExactMembers members, a certified lower bound
      // beyond: a below-floor bound on a genuinely good cluster only costs
      // an unnecessary re-clustering. An internally disconnected cluster
      // scores exactly 0 (weights are positive, so only then) and is always
      // dirty: it would break the quotient's contraction semantics.
      const ConductanceBounds phi =
          closure_conductance_bounds(new_graph, cluster);
      const bool dirty = phi.upper <= 0.0 || phi.lower < floor;
      if (dirty) {
        is_dissolved[static_cast<std::size_t>(c)] = 1;
        ++clusters_dirty;
      }
    }
  }

  RepairResult result;
  result.clusters_dirty = clusters_dirty;

  Decomposition d_new;
  if (clusters_dirty == 0) {
    // No cluster lost its guarantee; the partition survives unchanged. The
    // quotient may still have changed (crossing-edge updates), which the
    // upper-hierarchy comparison below handles.
    d_new = d0;
  } else {
    // --- 1-hop halo: clusters adjacent (in the updated graph) to a dirty
    // cluster get dissolved too, so the re-clustering can move the boundary.
    std::vector<vidx> dissolved;
    for (vidx c = 0; c < m_old; ++c) {
      if (is_dissolved[static_cast<std::size_t>(c)]) dissolved.push_back(c);
    }
    for (const vidx c : dissolved) {  // dirty set only, before halo grows it
      for (const vidx v : clusters.members(c)) {
        for (const vidx u : new_graph.neighbors(v)) {
          is_dissolved[static_cast<std::size_t>(
              d0.assignment[static_cast<std::size_t>(u)])] = 1;
        }
      }
    }
    dissolved.clear();
    for (vidx c = 0; c < m_old; ++c) {
      if (is_dissolved[static_cast<std::size_t>(c)]) dissolved.push_back(c);
    }

    // --- Decline when the damaged region is too large to be worth a local
    // repair (the cache falls back to a cold build).
    std::vector<vidx> region;
    for (const vidx c : dissolved) {
      const std::span<const vidx> cluster = clusters.members(c);
      region.insert(region.end(), cluster.begin(), cluster.end());
    }
    std::sort(region.begin(), region.end());
    double region_volume = 0.0;
    for (const vidx v : region) region_volume += new_graph.vol(v);
    const double total = new_graph.total_volume();
    result.dirty_volume_fraction = total > 0.0 ? region_volume / total : 1.0;
    if (result.dirty_volume_fraction > repair.max_dirty_volume_fraction) {
      RepairResult r = declined("dirty_volume_exceeded");
      r.clusters_dirty = clusters_dirty;
      r.dirty_volume_fraction = result.dirty_volume_fraction;
      return r;
    }

    // --- Re-run the Section 3.1 clustering on the induced dirty region with
    // the same options (and seed) build_hierarchy uses for level 0.
    const Graph sub = induced_subgraph(new_graph, region);
    const FixedDegreeOptions contraction{
        .max_cluster_size = options.contraction.max_cluster_size,
        .seed = options.contraction.seed,
        .perturb = options.contraction.perturb};
    Decomposition sub_d = fixed_degree_clusters(sub, contraction);
    if (options.refine) {
      sub_d = refine_decomposition(sub, sub_d, options.refinement)
                  .decomposition;
    }

    // --- Splice: sub-cluster j takes the j-th freed id; overflow ids are
    // appended past m_old. When fewer clusters came back (p < q) the unused
    // freed ids become holes and every surviving id above a hole shifts down
    // by the number of holes below it, keeping ids dense in [0, final_m).
    const vidx q = static_cast<vidx>(dissolved.size());
    const vidx p = sub_d.num_clusters;
    d_new.assignment = d0.assignment;
    d_new.num_clusters = m_old - q + p;
    for (std::size_t i = 0; i < region.size(); ++i) {
      const vidx j = sub_d.assignment[i];
      const vidx id = j < q ? dissolved[static_cast<std::size_t>(j)]
                            : m_old + (j - q);
      d_new.assignment[static_cast<std::size_t>(region[i])] = id;
    }
    if (p < q) {
      const std::span<const vidx> holes(
          dissolved.data() + static_cast<std::size_t>(p),
          static_cast<std::size_t>(q - p));
      for (vidx& a : d_new.assignment) {
        a -= static_cast<vidx>(
            std::upper_bound(holes.begin(), holes.end(), a) - holes.begin());
      }
    }
    result.dissolved = std::move(dissolved);
    result.clusters_touched = q;
  }
  HICOND_RUN_VALIDATION(expensive, d_new.validate(new_graph));

  // --- Reassemble the hierarchy, rebuilding above level 0 only when the
  // quotient actually changed.
  Graph quotient = quotient_graph(new_graph, d_new.assignment);
  const Graph& old_above = old_hierarchy.levels.size() >= 2
                               ? old_hierarchy.levels[1].graph
                               : old_hierarchy.coarsest;
  result.hierarchy.levels.push_back({new_graph, std::move(d_new), 0.0});
  if (quotient.identical_to(old_above)) {
    for (std::size_t l = 1; l < old_hierarchy.levels.size(); ++l) {
      result.hierarchy.levels.push_back(old_hierarchy.levels[l]);
    }
    result.hierarchy.coarsest = old_hierarchy.coarsest;
    result.upper_rebuilt = false;
  } else {
    // Same per-level seed schedule as build_hierarchy: its level l used
    // contraction.seed + l, so the upper build starts at seed + 1.
    HierarchyOptions upper_options = options;
    upper_options.contraction.seed = options.contraction.seed + 1;
    upper_options.max_levels = std::max(0, options.max_levels - 1);
    LaminarHierarchy upper = build_hierarchy(quotient, upper_options);
    for (HierarchyLevel& level : upper.levels) {
      result.hierarchy.levels.push_back(std::move(level));
    }
    result.hierarchy.coarsest = std::move(upper.coarsest);
    result.upper_rebuilt = true;
  }
  result.repaired = true;
  return result;
}

}  // namespace hicond::dynamic
