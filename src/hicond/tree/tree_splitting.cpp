#include "hicond/tree/tree_splitting.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "hicond/graph/connectivity.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/util/float_eq.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

namespace {

/// Union-find with cluster sizes.
class UnionFind {
 public:
  explicit UnionFind(vidx n) : parent_(static_cast<std::size_t>(n)),
                               size_(static_cast<std::size_t>(n), 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  vidx find(vidx v) {
    while (parent_[static_cast<std::size_t>(v)] != v) {
      parent_[static_cast<std::size_t>(v)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(v)])];
      v = parent_[static_cast<std::size_t>(v)];
    }
    return v;
  }

  vidx size(vidx v) { return size_[static_cast<std::size_t>(find(v))]; }

  bool unite(vidx a, vidx b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[static_cast<std::size_t>(a)] <
        size_[static_cast<std::size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] += size_[static_cast<std::size_t>(b)];
    return true;
  }

 private:
  std::vector<vidx> parent_;
  std::vector<vidx> size_;
};

}  // namespace

std::optional<Decomposition> try_split_forest_bounded(const Graph& forest,
                                                      vidx max_cluster_size) {
  // One connected-components pass serves both the acyclicity test (a
  // forest has n - #trees edges) and the split, which runs tree by tree.
  const vidx n = forest.num_vertices();
  const std::vector<vidx> tree = connected_components(forest);
  const vidx trees =
      n == 0 ? 0 : *std::max_element(tree.begin(), tree.end()) + 1;
  if (forest.num_edges() != static_cast<eidx>(n) - trees) return std::nullopt;
  HICOND_CHECK(max_cluster_size >= 2, "cluster size cap must be >= 2");
  // Every step below reads and writes one tree only, so trees are split in
  // parallel, each by the serial algorithm restricted to it; that is the
  // global serial algorithm, since no step couples two trees.
  const ClusterIndex by_tree = ClusterIndex::build(tree, trees);
  UnionFind uf(n);
  std::vector<vidx> leader(static_cast<std::size_t>(n));  // cluster minimum
  std::vector<vidx> lowest(static_cast<std::size_t>(n), -1);  // per UF root
  parallel_region([&] {
    std::vector<WeightedEdge> edges;
#pragma omp for schedule(dynamic, 64) nowait
    for (vidx t = 0; t < trees; ++t) {
      const auto members = by_tree.members(t);
      // The tree's edges, heaviest first. The comparator is a strict total
      // order (ties break on the endpoints), so the sequence is unique.
      edges.clear();
      for (const vidx u : members) {
        const auto nbrs = forest.neighbors(u);
        const auto ws = forest.weights(u);
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
          if (u < nbrs[k]) edges.push_back({u, nbrs[k], ws[k]});
        }
      }
      std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
        if (!exactly_equal(a.weight, b.weight)) return a.weight > b.weight;
        return a.u != b.u ? a.u < b.u : a.v < b.v;  // deterministic tie-break
      });
      for (const auto& e : edges) {
        if (uf.size(e.u) + uf.size(e.v) <= max_cluster_size) {
          uf.unite(e.u, e.v);
        }
      }
      // Absorb stranded singletons into the neighbouring cluster with the
      // heaviest connecting edge (may push that cluster one past the cap).
      for (const vidx v : members) {
        if (uf.size(v) > 1) continue;
        vidx target = -1;
        double best = -1.0;
        const auto nbrs = forest.neighbors(v);
        const auto ws = forest.weights(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          if (ws[i] > best) {
            best = ws[i];
            target = nbrs[i];
          }
        }
        if (target >= 0) uf.unite(v, target);
      }
      for (const vidx v : members) {
        const auto r = static_cast<std::size_t>(uf.find(v));
        if (lowest[r] == -1) lowest[r] = v;  // members ascend
        leader[static_cast<std::size_t>(v)] = lowest[r];
      }
    }
  });
  // Dense cluster ids in order of each cluster's lowest vertex: the order in
  // which a scan over the vertices first meets the clusters.
  std::vector<eidx> id(static_cast<std::size_t>(n));
  parallel_for(id.size(), [&](std::size_t v) {
    id[v] = leader[v] == static_cast<vidx>(v) ? 1 : 0;
  });
  Decomposition d;
  d.num_clusters = static_cast<vidx>(exclusive_scan_inplace(id));
  d.assignment.resize(static_cast<std::size_t>(n));
  parallel_for(id.size(), [&](std::size_t v) {
    d.assignment[v] =
        static_cast<vidx>(id[static_cast<std::size_t>(leader[v])]);
  });
  HICOND_RUN_VALIDATION(expensive, d.validate(forest));
  return d;
}

Decomposition split_forest_bounded(const Graph& forest,
                                   vidx max_cluster_size) {
  std::optional<Decomposition> d =
      try_split_forest_bounded(forest, max_cluster_size);
  HICOND_CHECK(d.has_value(), "split_forest_bounded requires a forest");
  return std::move(*d);
}

}  // namespace hicond
