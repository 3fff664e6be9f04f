// The [phi, rho] decomposition type and its quality evaluation.
//
// A decomposition assigns every vertex to a cluster. Its quality report
// follows the paper's definitions:
//  * phi  -- minimum conductance over cluster *closure* graphs (Section 2);
//  * rho  -- vertex reduction factor n / m;
//  * gamma -- min over vertices of cap(v, V_i - v) / vol(v), the (phi, gamma)
//    decomposition parameter of [Kannan-Vempala-Vetta / Racke] style
//    clusterings that Theorems 3.5 and 4.1 consume.
#pragma once

#include <span>
#include <vector>

#include "hicond/graph/conductance.hpp"
#include "hicond/graph/graph.hpp"

namespace hicond {

/// A partition of the vertices of a graph into m clusters.
struct Decomposition {
  std::vector<vidx> assignment;  ///< cluster id in [0, num_clusters) per vertex
  vidx num_clusters = 0;

  [[nodiscard]] double reduction_factor() const {
    return num_clusters > 0
               ? static_cast<double>(assignment.size()) /
                     static_cast<double>(num_clusters)
               : 0.0;
  }

  /// Structural validation (O(n)): every vertex of g carries a cluster id in
  /// [0, num_clusters) and every id is used (exact cover by nonempty
  /// clusters). Throws invalid_argument_error naming the violated invariant.
  void validate(const Graph& g) const;
};

/// Quality metrics of a decomposition on a graph.
struct DecompositionStats {
  vidx num_clusters = 0;
  double reduction_factor = 0.0;       ///< rho
  double min_phi_lower = 0.0;          ///< certified lower bound on phi
  double min_phi_upper = 0.0;          ///< upper bound (== lower when exact)
  bool phi_exact = false;              ///< every cluster scored exactly
  double min_gamma = 0.0;              ///< min_v cap(v, cluster) / vol(v)
  vidx num_singletons = 0;
  vidx max_cluster_size = 0;
  double mean_cluster_size = 0.0;
  vidx num_disconnected_clusters = 0;  ///< should be 0 for valid output
};

/// closure_conductance_bounds (graph/closure.hpp) of every cluster, indexed
/// by cluster id: exact for clusters of at most kClosureExactMembers members.
[[nodiscard]] std::vector<ConductanceBounds> cluster_conductance_bounds(
    const Graph& g, const Decomposition& d);

/// Full quality evaluation from cluster_conductance_bounds. A cluster is
/// disconnected exactly when its upper bound is 0 (weights are positive).
[[nodiscard]] DecompositionStats evaluate_decomposition(
    const Graph& g, const Decomposition& d);

/// gamma(v) = cap(v, cluster(v) - v) / vol(v) for every vertex; the minimum
/// is DecompositionStats::min_gamma. Singleton clusters yield gamma = 0.
[[nodiscard]] std::vector<double> per_vertex_gamma(const Graph& g,
                                                   const Decomposition& d);

/// Fraction of the total edge weight crossing between clusters -- the
/// "gamma_avg" side of the (phi, gamma_avg) bicriteria measure of
/// [Kannan-Vempala-Vetta] discussed in the paper's introduction (small is
/// good: little weight is cut).
[[nodiscard]] double cut_weight_fraction(const Graph& g,
                                         const Decomposition& d);

/// Volume-weighted average of per-vertex gamma (the (phi, gamma)
/// decomposition's per-vertex parameter, averaged).
[[nodiscard]] double average_gamma(const Graph& g, const Decomposition& d);

/// Identity decomposition (every vertex its own cluster) -- useful baseline.
[[nodiscard]] Decomposition singleton_decomposition(const Graph& g);

/// Merge decomposition d2 on the quotient of d1 back onto the base graph:
/// the composite assigns v to d2.assignment[d1.assignment[v]]. This is how
/// recursive (laminar) hierarchies compose.
[[nodiscard]] Decomposition compose(const Decomposition& d1,
                                    const Decomposition& d2);

}  // namespace hicond
