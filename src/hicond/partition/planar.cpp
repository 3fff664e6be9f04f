#include "hicond/partition/planar.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "hicond/graph/builder.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/la/lanczos.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/tree/low_stretch.hpp"
#include "hicond/tree/mst.hpp"

namespace hicond {

namespace {

std::uint64_t edge_key(vidx u, vidx v) {
  return (static_cast<std::uint64_t>(std::min(u, v)) << 32) |
         static_cast<std::uint64_t>(std::max(u, v));
}

}  // namespace

Graph cut_to_forest(const Graph& b, vidx* core_size_out, vidx* cut_edges_out) {
  const vidx n = b.num_vertices();
  // Iteratively strip degree-1 vertices; `live_degree` tracks degrees in the
  // remaining graph R.
  std::vector<vidx> live_degree(static_cast<std::size_t>(n));
  std::vector<vidx> stack;
  for (vidx v = 0; v < n; ++v) {
    live_degree[static_cast<std::size_t>(v)] = b.degree(v);
    if (b.degree(v) == 1) stack.push_back(v);
  }
  std::vector<char> stripped(static_cast<std::size_t>(n), 0);
  while (!stack.empty()) {
    const vidx v = stack.back();
    stack.pop_back();
    if (stripped[static_cast<std::size_t>(v)] ||
        live_degree[static_cast<std::size_t>(v)] != 1) {
      continue;
    }
    stripped[static_cast<std::size_t>(v)] = 1;
    live_degree[static_cast<std::size_t>(v)] = 0;
    for (vidx u : b.neighbors(v)) {
      if (!stripped[static_cast<std::size_t>(u)]) {
        if (--live_degree[static_cast<std::size_t>(u)] == 1) {
          stack.push_back(u);
        }
      }
    }
  }
  // Core W: remaining vertices of degree >= 3.
  vidx core_size = 0;
  std::vector<char> in_w(static_cast<std::size_t>(n), 0);
  for (vidx v = 0; v < n; ++v) {
    if (!stripped[static_cast<std::size_t>(v)] &&
        live_degree[static_cast<std::size_t>(v)] >= 3) {
      in_w[static_cast<std::size_t>(v)] = 1;
      ++core_size;
    }
  }
  // Walk every W-W path through degree-2 remainder vertices, cutting the
  // lightest edge on each. Also cut one lightest edge per W-free cycle.
  std::unordered_set<std::uint64_t> visited;
  std::unordered_set<std::uint64_t> cuts;
  auto walk = [&](vidx start, vidx first) {
    // Walk from W-vertex (or cycle entry) `start` through `first`.
    vidx prev = start;
    vidx cur = first;
    WeightedEdge lightest{start, first, b.edge_weight(start, first)};
    visited.insert(edge_key(start, first));
    while (!in_w[static_cast<std::size_t>(cur)] && cur != start) {
      // Remaining degree-2 vertex: exactly one live neighbour != prev.
      vidx next = -1;
      double w_next = 0.0;
      const auto nbrs = b.neighbors(cur);
      const auto ws = b.weights(cur);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (stripped[static_cast<std::size_t>(nbrs[i])]) continue;
        if (nbrs[i] != prev) {
          next = nbrs[i];
          w_next = ws[i];
        }
      }
      if (next == -1) break;  // safety: dead end (should not happen)
      if (w_next < lightest.weight) lightest = {cur, next, w_next};
      visited.insert(edge_key(cur, next));
      prev = cur;
      cur = next;
    }
    cuts.insert(edge_key(lightest.u, lightest.v));
  };
  for (vidx w = 0; w < n; ++w) {
    if (!in_w[static_cast<std::size_t>(w)]) continue;
    for (vidx u : b.neighbors(w)) {
      if (stripped[static_cast<std::size_t>(u)]) continue;
      if (visited.contains(edge_key(w, u))) continue;
      walk(w, u);
    }
  }
  // W-free cycles: any unvisited live edge now lies on a pure cycle.
  for (vidx v = 0; v < n; ++v) {
    if (stripped[static_cast<std::size_t>(v)] ||
        in_w[static_cast<std::size_t>(v)]) {
      continue;
    }
    for (vidx u : b.neighbors(v)) {
      if (stripped[static_cast<std::size_t>(u)]) continue;
      if (visited.contains(edge_key(v, u))) continue;
      walk(v, u);
    }
  }
  // Assemble B minus the cut set.
  GraphBuilder builder(n);
  for (const auto& e : b.edge_list()) {
    if (!cuts.contains(edge_key(e.u, e.v))) {
      builder.add_edge(e.u, e.v, e.weight);
    }
  }
  Graph forest = builder.build();
  HICOND_CHECK(is_forest(forest), "cut_to_forest failed to produce a forest");
  if (core_size_out != nullptr) *core_size_out = core_size;
  if (cut_edges_out != nullptr) {
    *cut_edges_out = static_cast<vidx>(cuts.size());
  }
  return forest;
}

PlanarDecompResult planar_decomposition(const Graph& a,
                                        const PlanarDecompOptions& opt) {
  HICOND_CHECK(opt.off_tree_fraction >= 0.0 && opt.off_tree_fraction <= 1.0,
               "off_tree_fraction must be in [0, 1]");
  HICOND_SPAN("planar.decompose");
  PlanarDecompResult result;
  const vidx n = a.num_vertices();
  const Graph tree = opt.tree_kind == SpanningTreeKind::max_weight
                         ? max_spanning_forest_kruskal(a)
                         : low_stretch_tree_akpw(a, {.seed = opt.seed});
  const vidx target = static_cast<vidx>(
      std::ceil(opt.off_tree_fraction * static_cast<double>(n)));
  result.subgraph_b = target > 1 ? vaidya_augmented_subgraph(a, tree, target)
                                 : tree;
  if (opt.measure_k && n >= 3) {
    // k = lambda_max(A, B) with B solved exactly through a subgraph
    // preconditioner built on the already-chosen B.
    PartialCholesky pc = PartialCholesky::eliminate_low_degree(result.subgraph_b);
    std::shared_ptr<LaplacianDirectSolver> core;
    if (pc.core().num_vertices() > 1) {
      core = std::make_shared<LaplacianDirectSolver>(pc.core());
    }
    auto solve_b = [&pc, core](std::span<const double> r,
                               std::span<double> z) {
      auto core_solve = [&core](std::span<const double> cb) {
        if (core == nullptr) return std::vector<double>(cb.size(), 0.0);
        return core->solve(cb);
      };
      const auto x = pc.solve(r, core_solve);
      std::copy(x.begin(), x.end(), z.begin());
    };
    auto apply_a = [&a](std::span<const double> x, std::span<double> y) {
      a.laplacian_apply(x, y);
    };
    result.measured_k =
        lanczos_pencil_extremes(apply_a, solve_b, n, 40, opt.seed).lambda_max;
  }
  result.forest =
      cut_to_forest(result.subgraph_b, &result.core_size, &result.cut_edges);
  result.decomposition = tree_decomposition(result.forest, opt.tree_options);
  HICOND_RUN_VALIDATION(expensive, result.decomposition.validate(a));
  return result;
}

}  // namespace hicond
