// Tree decomposition into isolated high-conductance clusters (Theorem 2.1).
//
// The paper shows trees admit a [1/2, 6/5] decomposition computable with
// linear work in O(log n) parallel time: compute the 3-critical vertices,
// give each its own cluster, and resolve each O(1)-size 3-bridge locally --
// non-critical vertices either form small clusters of their own (so they are
// never singletons) or are attached to an adjacent critical vertex's
// cluster.
//
// Our bridge resolution follows the paper's architecture, but instead of
// transcribing the (figure-bound) case list it scores every feasible local
// choice by the *exact* closure conductance it creates -- bridges are O(1)
// sized, so this costs O(1) per bridge and is immune to case-analysis
// ambiguity. The guarantees are validated empirically and exactly by the
// test suite and by the TAB-T21 rows of bench/paper_claims.
#pragma once

#include "hicond/graph/graph.hpp"
#include "hicond/partition/decomposition.hpp"

namespace hicond {

struct TreeDecompOptions {
  /// A bridge pair {u1, u2} keeps its own cluster when the internal edge
  /// carries at least `pair_slack * min(boundary1, boundary2)` weight; the
  /// closure conductance of such a pair is >= pair_slack/(pair_slack + 2).
  double pair_slack = 2.0;
};

/// Decompose a forest per Theorem 2.1. Components with at most 3 vertices
/// become single clusters (as in the paper).
[[nodiscard]] Decomposition tree_decomposition(
    const Graph& forest, const TreeDecompOptions& options = {});

}  // namespace hicond
