#include "hicond/graph/quotient.hpp"

#include <algorithm>
#include <vector>

#include "hicond/partition/cluster_index.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

vidx num_clusters(std::span<const vidx> assignment) {
  vidx m = 0;
  for (vidx c : assignment) {
    HICOND_CHECK(c >= 0, "assignment contains unassigned vertex");
    m = std::max(m, static_cast<vidx>(c + 1));
  }
  return m;
}

Graph quotient_graph(const Graph& g, std::span<const vidx> assignment) {
  HICOND_CHECK(assignment.size() == static_cast<std::size_t>(g.num_vertices()),
               "assignment size mismatch");
  const vidx m = num_clusters(assignment);
  const ClusterIndex idx = ClusterIndex::build(assignment, m);

  // Owner-computes assembly straight into CSR: cluster c builds its own row
  // from the crossing arcs of its members. Every undirected inter-cluster
  // edge is seen from both endpoint clusters, so the rows come out symmetric
  // up to summation rounding, which is deterministic: each row entry starts
  // from the first crossing arc's weight and adds the rest with members
  // ascending and arcs in CSR order. Both passes keep a per-thread marker
  // sized to m (marker[t] == c: cluster t already seen from row c).
  const auto rows = static_cast<std::size_t>(m);
  // Pass 1: the number of distinct neighbour clusters of each cluster.
  std::vector<eidx> offsets(rows + 1, 0);
  parallel_region([&] {
    std::vector<vidx> marker(rows, -1);
#pragma omp for schedule(dynamic, 64) nowait
    for (std::size_t c = 0; c < rows; ++c) {
      const auto self = static_cast<vidx>(c);
      eidx count = 0;
      for (const vidx v : idx.members(self)) {
        for (const vidx u : g.neighbors(v)) {
          const vidx cu = assignment[static_cast<std::size_t>(u)];
          if (cu != self && marker[static_cast<std::size_t>(cu)] != self) {
            marker[static_cast<std::size_t>(cu)] = self;
            ++count;
          }
        }
      }
      offsets[c] = count;
    }
  });
  const eidx num_arcs = exclusive_scan_inplace(offsets);
  // Pass 2: accumulate each row in a per-thread dense array, then sort the
  // row's targets and gather their sums.
  std::vector<vidx> targets(static_cast<std::size_t>(num_arcs));
  std::vector<double> weights(static_cast<std::size_t>(num_arcs));
  parallel_region([&] {
    std::vector<vidx> marker(rows, -1);
    std::vector<double> sum(rows);
#pragma omp for schedule(dynamic, 64) nowait
    for (std::size_t c = 0; c < rows; ++c) {
      const auto self = static_cast<vidx>(c);
      const auto lo = static_cast<std::size_t>(offsets[c]);
      const auto hi = static_cast<std::size_t>(offsets[c + 1]);
      std::size_t out = lo;
      for (const vidx v : idx.members(self)) {
        const auto nbrs = g.neighbors(v);
        const auto ws = g.weights(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const vidx cu = assignment[static_cast<std::size_t>(nbrs[i])];
          if (cu == self) continue;
          const auto t = static_cast<std::size_t>(cu);
          if (marker[t] != self) {
            marker[t] = self;
            sum[t] = ws[i];
            targets[out++] = cu;
          } else {
            sum[t] += ws[i];
          }
        }
      }
      std::sort(targets.begin() + static_cast<std::ptrdiff_t>(lo),
                targets.begin() + static_cast<std::ptrdiff_t>(hi));
      for (std::size_t k = lo; k < hi; ++k) {
        weights[k] = sum[static_cast<std::size_t>(targets[k])];
      }
    }
  });
  // from_csr revalidates the assembled structure (symmetry included).
  return Graph::from_csr(m, std::move(offsets), std::move(targets),
                         std::move(weights));
}

}  // namespace hicond
