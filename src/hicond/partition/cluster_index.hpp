// Cluster-major index of a decomposition assignment: for each cluster, the
// sorted list of its member vertices in CSR form.
//
// This is the owner-computes backbone of every parallel restriction in the
// preconditioning layer: `restrict_sum` assigns one cluster per iteration,
// each iteration reads only its own members and writes only its own output
// slot, and members are summed in ascending vertex order -- so the result
// is bitwise identical for every thread count (docs/PARALLELISM.md). The
// serial alternative (scatter-add over vertices) is what it replaces; an
// atomics-based scatter would be nondeterministic in the accumulation order.
#pragma once

#include <span>
#include <vector>

#include "hicond/util/common.hpp"

namespace hicond {

class ClusterIndex {
 public:
  /// Build from a dense assignment (every value in [0, num_clusters)).
  [[nodiscard]] static ClusterIndex build(std::span<const vidx> assignment,
                                          vidx num_clusters);

  [[nodiscard]] vidx num_clusters() const noexcept {
    return static_cast<vidx>(offsets_.size()) - 1;
  }
  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return members_.size();
  }

  /// Member vertices of cluster c, ascending.
  [[nodiscard]] std::span<const vidx> members(vidx c) const {
    HICOND_ASSERT(c >= 0 && c < num_clusters());
    return {members_.data() + offsets_[static_cast<std::size_t>(c)],
            static_cast<std::size_t>(
                offsets_[static_cast<std::size_t>(c) + 1] -
                offsets_[static_cast<std::size_t>(c)])};
  }

  /// out[c] = sum of x[v] over the members of c, in ascending vertex order,
  /// for each of k columns stored vertex-major (entry (v, j) at v*k + j,
  /// entry (c, j) of out at c*k + j; util/block.hpp). Parallel over
  /// clusters; deterministic for every thread count, and column j's sums do
  /// not depend on k.
  void restrict_sum(std::span<const double> x, std::span<double> out,
                    int k = 1) const;

  /// Structural invariants: offsets monotone, members a permutation of
  /// [0, num_vertices) grouped by cluster, each group ascending.
  void validate(std::span<const vidx> assignment) const;

 private:
  std::vector<std::size_t> offsets_;  ///< size num_clusters + 1
  std::vector<vidx> members_;         ///< size num_vertices
};

}  // namespace hicond
