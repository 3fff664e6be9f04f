// Conductance of cuts and graphs (Section 2 definitions).
//
// sparsity(S) = cap(S, V-S) / min(vol(S), vol(V-S)); the conductance of a
// graph is the minimum sparsity over all cuts. Exact computation is
// exponential, so conductance_bounds is exact only on small graphs:
//  * exact                  -- closure_conductance over every vertex
//                              (graph/closure.hpp: the closure of V is G
//                              itself), n <= kClosureExactMembers;
//  * conductance_sweep      -- minimum over prefix cuts of a score order
//                              (an upper bound for any score vector);
//  * cheeger_lower_bound    -- lambda_2(normalized Laplacian) / 2, a true
//                              lower bound by the Cheeger inequality.
// A cluster is scored through closure_conductance_bounds (graph/closure.hpp),
// which is exact from the members alone: the clusters produced by the
// paper's decompositions are O(1)-sized, so their [phi, rho] guarantees are
// evaluated *exactly*.
#pragma once

#include <limits>
#include <span>

#include "hicond/graph/graph.hpp"

namespace hicond {

inline constexpr double kInfiniteConductance =
    std::numeric_limits<double>::infinity();

/// Sparsity of the cut given by the 0/1 side flags. Returns +infinity when
/// either side has zero volume (no valid cut).
[[nodiscard]] double cut_sparsity(const Graph& g, std::span<const char> in_s);

/// Minimum sparsity over the n-1 prefix cuts of vertices sorted by `score`
/// ascending. An upper bound on the conductance.
[[nodiscard]] double conductance_sweep(const Graph& g,
                                       std::span<const double> score);

/// Sweep cut of an approximate Fiedler vector of the normalized Laplacian
/// (upper bound on conductance). Uses dense eigensolve for n <= 600 and
/// deflated power iteration beyond.
[[nodiscard]] double conductance_spectral_upper(const Graph& g);

/// The best Fiedler sweep cut itself: side flags (1 = inside) and its
/// sparsity. For disconnected graphs returns a zero-capacity component cut.
/// Requires n >= 2; both sides are guaranteed non-empty.
[[nodiscard]] std::vector<char> spectral_sweep_cut(const Graph& g,
                                                   double* sparsity_out);

/// Second-smallest eigenvalue of the normalized Laplacian. Requires a
/// connected graph with at least 2 vertices.
[[nodiscard]] double lambda2_normalized(const Graph& g);

/// Cheeger lower bound: conductance >= lambda_2 / 2.
[[nodiscard]] double cheeger_lower_bound(const Graph& g);

/// Lower and upper bounds on the conductance.
struct ConductanceBounds {
  double lower = 0.0;
  double upper = kInfiniteConductance;
  bool exact = false;
};

/// Exact (lower == upper) for fewer than 2 vertices (+infinity: no cuts),
/// for a disconnected graph (0) and for n <= kClosureExactMembers;
/// otherwise the Cheeger lower bound and the spectral-sweep upper bound.
[[nodiscard]] ConductanceBounds conductance_bounds(const Graph& g);

}  // namespace hicond
