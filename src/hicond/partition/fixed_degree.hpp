// The embarrassingly parallel fixed-degree decomposition of Section 3.1.
//
// Three passes over the graph:
//  [1] independently perturb every edge weight by a random factor in (1, 2);
//  [2] every vertex keeps its heaviest perturbed incident edge -- the union
//      of kept edges is a *unimodal* forest B (no path has a local-minimum
//      edge), which is what bounds the closure conductance of the clusters;
//  [3] split every tree of B into clusters of at most k vertices.
//
// The paper claims the result is a [1/(2 d^2 k), 2] decomposition for
// maximum degree d, and by Theorem 3.5 it yields a Steiner preconditioner
// with constant condition number -- the first linear-work parallel
// construction of such preconditioners for fixed-degree Laplacians.
//
// Every pass is data-parallel; the per-edge perturbation uses a
// counter-based hash so results are deterministic for any thread count.
#pragma once

#include <cstdint>

#include "hicond/graph/graph.hpp"
#include "hicond/partition/decomposition.hpp"

namespace hicond {

struct FixedDegreeOptions {
  vidx max_cluster_size = 4;  ///< k in step [3]
  std::uint64_t seed = 1;     ///< perturbation seed
  bool perturb = true;        ///< disable for the ablation study
};

struct FixedDegreeResult {
  Decomposition decomposition;
  Graph forest;            ///< B with the original weights
  Graph perturbed_forest;  ///< B with the perturbed weights (unimodal)
};

/// Run the three-pass construction on an arbitrary weighted graph.
[[nodiscard]] FixedDegreeResult fixed_degree_decomposition(
    const Graph& g, const FixedDegreeOptions& options = {});

/// The decomposition of fixed_degree_decomposition alone, without
/// assembling the original-weight forest (what contraction consumes).
[[nodiscard]] Decomposition fixed_degree_clusters(
    const Graph& g, const FixedDegreeOptions& options = {});

/// Pass [1]+[2] only: the heaviest-incident-edge forest under the perturbed
/// weights, returned with perturbed weights. Exposed for tests of the
/// unimodality property.
[[nodiscard]] Graph heaviest_incident_edge_forest(
    const Graph& g, std::uint64_t seed, bool perturb = true);

/// True when no path in the forest contains an edge strictly lighter than
/// both its neighbours on the path (the unimodality property of Section
/// 3.1). O(sum_v deg^2) -- testing utility.
[[nodiscard]] bool is_unimodal_forest(const Graph& forest);

}  // namespace hicond
