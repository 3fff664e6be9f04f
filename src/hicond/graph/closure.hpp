// Closure graphs of vertex clusters (Section 2 of the paper).
//
// For a cluster C of G, the closure graph G^o_C is the graph induced by C
// plus, for every edge (u, v) with u in C and v outside, a freshly introduced
// degree-1 vertex attached to u with that edge's weight. The defining
// property of a [phi, rho] decomposition is that every cluster's closure has
// conductance at least phi.
//
// closure_conductance_bounds is the one way the library scores a cluster:
// exact from the members alone up to kClosureExactMembers members, and the
// bounds of the built closure graph beyond.
#pragma once

#include <span>
#include <vector>

#include "hicond/graph/conductance.hpp"
#include "hicond/graph/graph.hpp"

namespace hicond {

/// A closure graph together with its vertex bookkeeping.
struct ClosureGraph {
  Graph graph;                   ///< cluster vertices first, then boundary
  vidx num_cluster_vertices = 0; ///< closure vertex i < this <=> original
  std::vector<vidx> cluster;     ///< original ids of the cluster vertices
};

/// Build the closure graph of the cluster given as a vertex list.
[[nodiscard]] ClosureGraph closure_graph(const Graph& g,
                                         std::span<const vidx> cluster);

/// Exact conductance of the closure graph of `cluster`, computed from the
/// cluster's own vertices without building the closure.
///
/// In G^o_C, putting every boundary leaf on its parent's side is optimal:
/// moving leaves of total weight W off their parents adds W to the cut and
/// at most W to the smaller side, and (c + W) / (m + W) >= min(c / m, 1).
/// Leaf-only cuts have sparsity 1. Hence
///   phi(G^o_C) = min(1, min over bipartitions (S, C-S) of
///                       w(S, C-S) / min(vol^o(S), vol^o(C-S))),
/// where vol^o(u) is u's degree plus the degrees of its leaves. The
/// enumeration covers 2^(|C|-1) bipartitions, and every cut and volume is a
/// sum of positive terms, so the result does not drift with |C|.
///
/// Returns 0 when the members are not connected among themselves (the
/// cluster is internally disconnected), +infinity for a single member with
/// no edges (its closure has no cuts), and otherwise a value in (0, 1].
/// Requires 1 <= |cluster| <= 24, distinct vertices in range.
[[nodiscard]] double closure_conductance(const Graph& g,
                                         std::span<const vidx> cluster);

/// Clusters with at most this many members are scored exactly.
inline constexpr vidx kClosureExactMembers = 20;

/// Conductance of the closure graph of `cluster`: exact (closure_conductance)
/// for at most kClosureExactMembers members, otherwise conductance_bounds of
/// the built closure graph (exactly 0 when the cluster is disconnected,
/// Cheeger lower and spectral-sweep upper bound when it is not). Weights are
/// positive, so `upper` is 0 exactly when the members are not connected
/// among themselves.
[[nodiscard]] ConductanceBounds closure_conductance_bounds(
    const Graph& g, std::span<const vidx> cluster);

}  // namespace hicond
