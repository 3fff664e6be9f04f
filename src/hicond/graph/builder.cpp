#include "hicond/graph/builder.hpp"

#include <algorithm>
#include <utility>

#include "hicond/util/parallel.hpp"

namespace hicond {

GraphBuilder::GraphBuilder(vidx n) : n_(n) {
  HICOND_CHECK(n >= 0, "vertex count must be nonnegative");
}

void GraphBuilder::add_edge(vidx u, vidx v, double w) {
  HICOND_CHECK(u >= 0 && u < n_, "edge endpoint u out of range");
  HICOND_CHECK(v >= 0 && v < n_, "edge endpoint v out of range");
  HICOND_CHECK(u != v, "self-loops are not allowed");
  HICOND_CHECK(w > 0.0, "edge weights must be positive");
  edges_.push_back({u, v, w});
}

Graph GraphBuilder::build() const {
  // Counting-sort the arcs by source (O(n + m)), sort each adjacency row by
  // target (rows are short: O(sum deg log deg)), then merge duplicates in
  // place. Avoids the global comparison sort on 2m arcs.
  const std::size_t num_arcs = edges_.size() * 2;
  std::vector<eidx> offsets(static_cast<std::size_t>(n_) + 1, 0);
  for (const auto& e : edges_) {
    ++offsets[static_cast<std::size_t>(e.u) + 1];
    ++offsets[static_cast<std::size_t>(e.v) + 1];
  }
  for (vidx v = 0; v < n_; ++v) {
    offsets[static_cast<std::size_t>(v) + 1] +=
        offsets[static_cast<std::size_t>(v)];
  }
  struct Arc {
    vidx to;
    double weight;
  };
  std::vector<Arc> arcs(num_arcs);
  {
    std::vector<eidx> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& e : edges_) {
      arcs[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++)] =
          {e.v, e.weight};
      arcs[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)]++)] =
          {e.u, e.weight};
    }
  }
  // Per-row sort + in-place duplicate merge; track the merged row sizes.
  std::vector<eidx> row_size(static_cast<std::size_t>(n_), 0);
  parallel_for(static_cast<std::size_t>(n_), [&](std::size_t v) {
    const auto lo = static_cast<std::ptrdiff_t>(offsets[v]);
    const auto hi = static_cast<std::ptrdiff_t>(offsets[v + 1]);
    std::sort(arcs.begin() + lo, arcs.begin() + hi,
              [](const Arc& a, const Arc& b) { return a.to < b.to; });
    std::ptrdiff_t out = lo;
    for (std::ptrdiff_t i = lo; i < hi;) {
      Arc merged = arcs[static_cast<std::size_t>(i)];
      std::ptrdiff_t j = i + 1;
      while (j < hi && arcs[static_cast<std::size_t>(j)].to == merged.to) {
        merged.weight += arcs[static_cast<std::size_t>(j)].weight;
        ++j;
      }
      arcs[static_cast<std::size_t>(out++)] = merged;
      i = j;
    }
    row_size[v] = static_cast<eidx>(out - lo);
  });

  std::vector<eidx> row_offsets(static_cast<std::size_t>(n_) + 1, 0);
  for (vidx v = 0; v < n_; ++v) {
    row_offsets[static_cast<std::size_t>(v) + 1] =
        row_offsets[static_cast<std::size_t>(v)] +
        row_size[static_cast<std::size_t>(v)];
  }
  std::vector<vidx> targets(static_cast<std::size_t>(row_offsets.back()));
  std::vector<double> weights(static_cast<std::size_t>(row_offsets.back()));
  parallel_for(static_cast<std::size_t>(n_), [&](std::size_t v) {
    auto src = static_cast<std::size_t>(offsets[v]);
    auto dst = static_cast<std::size_t>(row_offsets[v]);
    for (eidx k = 0; k < row_size[v]; ++k) {
      targets[dst] = arcs[src].to;
      weights[dst] = arcs[src].weight;
      ++src;
      ++dst;
    }
  });
  Graph g = Graph::adopt(n_, std::move(row_offsets), std::move(targets),
                         std::move(weights));
  HICOND_RUN_VALIDATION(expensive, g.validate());
  return g;
}

}  // namespace hicond
