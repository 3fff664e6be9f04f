// Quotient (contracted) graphs of vertex partitions.
//
// For a partition P = {V_1, ..., V_m} of the vertices of A, the quotient
// graph Q (Definition 3.1) has one vertex r_i per cluster and edge weights
// w(r_i, r_j) = cap(V_i, V_j). Algebraically Q = R' A R where R is the 0-1
// membership matrix (Remark 1); quotient_graph assembles the same matrix
// directly, one owner-computed row per cluster, and the tests check every
// entry of it against the dense product R' L R.
#pragma once

#include <span>

#include "hicond/graph/graph.hpp"

namespace hicond {

/// Number of clusters in an assignment (max value + 1). Values must cover
/// 0..m-1; -1 entries (unassigned) are rejected.
[[nodiscard]] vidx num_clusters(std::span<const vidx> assignment);

/// Build the quotient graph of `assignment` (values in [0, m)).
[[nodiscard]] Graph quotient_graph(const Graph& g,
                                   std::span<const vidx> assignment);

}  // namespace hicond
