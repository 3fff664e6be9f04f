#include "hicond/partition/cluster_index.hpp"

#include <algorithm>

#include "hicond/util/block.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

ClusterIndex ClusterIndex::build(std::span<const vidx> assignment,
                                 vidx num_clusters) {
  HICOND_CHECK(num_clusters >= 0, "cluster count must be nonnegative");
  ClusterIndex idx;
  idx.offsets_.assign(static_cast<std::size_t>(num_clusters) + 1, 0);
  for (const vidx c : assignment) {
    HICOND_CHECK(c >= 0 && c < num_clusters, "assignment value out of range");
    ++idx.offsets_[static_cast<std::size_t>(c) + 1];
  }
  for (vidx c = 0; c < num_clusters; ++c) {
    idx.offsets_[static_cast<std::size_t>(c) + 1] +=
        idx.offsets_[static_cast<std::size_t>(c)];
  }
  idx.members_.resize(assignment.size());
  // Stable counting-sort fill: the vertex scan order places each cluster's
  // members in ascending order, fixing the restriction summation order.
  std::vector<std::size_t> cursor(idx.offsets_.begin(),
                                  idx.offsets_.end() - 1);
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    idx.members_[cursor[static_cast<std::size_t>(assignment[v])]++] =
        static_cast<vidx>(v);
  }
  return idx;
}

void ClusterIndex::restrict_sum(std::span<const double> x,
                                std::span<double> out, int k) const {
  HICOND_CHECK(k >= 1, "block width must be positive");
  const auto uk = static_cast<std::size_t>(k);
  HICOND_CHECK(x.size() == members_.size() * uk, "input size mismatch");
  HICOND_CHECK(out.size() == static_cast<std::size_t>(num_clusters()) * uk,
               "output size mismatch");
  with_block_width(k, [&]<std::size_t K>() {
    parallel_for(offsets_.size() - 1, [&](std::size_t c) {
      const std::size_t s = block_stride<K>(uk);
      double* o = out.data() + c * s;
      if constexpr (K != 0) {
        double acc[K] = {};
        for (std::size_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
          const double* row =
              x.data() + static_cast<std::size_t>(members_[i]) * K;
          for (std::size_t j = 0; j < K; ++j) acc[j] += row[j];
        }
        for (std::size_t j = 0; j < K; ++j) o[j] = acc[j];
      } else {
        std::fill(o, o + s, 0.0);
        for (std::size_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
          const double* row =
              x.data() + static_cast<std::size_t>(members_[i]) * s;
          for (std::size_t j = 0; j < s; ++j) o[j] += row[j];
        }
      }
    });
  });
}

void ClusterIndex::validate(std::span<const vidx> assignment) const {
  HICOND_CHECK(offsets_.front() == 0 && offsets_.back() == members_.size(),
               "cluster index offsets endpoints wrong");
  HICOND_CHECK(assignment.size() == members_.size(),
               "cluster index size mismatch");
  for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) {
    HICOND_CHECK(offsets_[c] <= offsets_[c + 1],
                 "cluster index offsets must be nondecreasing");
    for (std::size_t k = offsets_[c]; k < offsets_[c + 1]; ++k) {
      const vidx v = members_[k];
      HICOND_CHECK(v >= 0 && static_cast<std::size_t>(v) < assignment.size(),
                   "cluster index member out of range");
      HICOND_CHECK(assignment[static_cast<std::size_t>(v)] ==
                       static_cast<vidx>(c),
                   "cluster index member in wrong cluster");
      HICOND_CHECK(k == offsets_[c] || members_[k - 1] < v,
                   "cluster members must be ascending");
    }
  }
}

}  // namespace hicond
