// Bounded-size splitting of forests into clusters (Section 3.1, step [3]).
//
// Given the unimodal forest produced by the heaviest-incident-edge pass, the
// fixed-degree construction splits every tree into clusters of at most k
// vertices. We merge edges heaviest-first under the size cap (so each
// vertex's heaviest forest edge joins its cluster whenever the cap allows),
// then absorb any stranded singletons into their heaviest neighbouring
// cluster -- this is what guarantees the reduction factor of 2 claimed by
// the paper (every vertex is assigned to a cluster of size >= 2 whenever its
// component allows it).
#pragma once

#include <optional>

#include "hicond/graph/graph.hpp"
#include "hicond/partition/decomposition.hpp"

namespace hicond {

/// Split a forest into connected clusters of at most `max_cluster_size`
/// vertices (singleton absorption may exceed the cap by one). Requires an
/// acyclic input graph and max_cluster_size >= 2.
[[nodiscard]] Decomposition split_forest_bounded(const Graph& forest,
                                                 vidx max_cluster_size);

/// split_forest_bounded, or std::nullopt when `forest` has a cycle. The
/// acyclicity test shares the split's connected-components pass, so a
/// caller that must test is_forest anyway pays for one pass, not two.
[[nodiscard]] std::optional<Decomposition> try_split_forest_bounded(
    const Graph& forest, vidx max_cluster_size);

}  // namespace hicond
