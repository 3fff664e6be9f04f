#include "hicond/tree/tree_decomposition.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "hicond/graph/closure.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/tree/critical.hpp"
#include "hicond/tree/rooted_tree.hpp"
#include "hicond/util/float_eq.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

namespace {

/// Clustering decisions for one bridge, produced by the parallel planning
/// pass and applied by the serial commit pass. Cluster ids are not allocated
/// during planning; the commit assigns them in bridge order, which makes the
/// decomposition independent of the thread schedule.
struct BridgePlan {
  bool skip = false;  ///< interior already clustered (small component)
  std::vector<std::vector<vidx>> clusters;  ///< new clusters, in emit order
  /// u joins the (already committed) cluster of a critical vertex.
  std::vector<std::pair<vidx, vidx>> attaches;
  /// u joins the cluster of an interior vertex clustered earlier within the
  /// same bridge (leftover merge of the large-bridge fallback).
  std::vector<std::pair<vidx, vidx>> merges;
};

/// Read-only scoring context shared by the per-bridge planners.
struct Planner {
  const Graph& g;
  const TreeDecompOptions& opts;

  /// Closure conductance of a candidate cluster (exact: candidates have
  /// at most 3 members).
  double closure_phi(std::span<const vidx> verts) const {
    return closure_conductance_bounds(g, verts).lower;
  }

  /// The heaviest edge from u to a critical vertex; returns (-1, 0) when u
  /// has no critical neighbour.
  std::pair<vidx, double> heaviest_critical_neighbor(
      vidx u, std::span<const char> critical) const {
    vidx best = -1;
    double best_w = 0.0;
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (critical[static_cast<std::size_t>(nbrs[i])] && ws[i] > best_w) {
        best = nbrs[i];
        best_w = ws[i];
      }
    }
    return {best, best_w};
  }

  /// Sparsity of the cut that isolates {u, its future pendants} inside the
  /// cluster of the critical vertex it attaches to: cap = w(u, c), side
  /// volume = w(u, c) + 2 * (vol(u) - w(u, c)).
  double attach_sparsity(vidx u, double edge_to_critical) const {
    const double pendant = g.vol(u) - edge_to_critical;
    return edge_to_critical / (edge_to_critical + 2.0 * pendant);
  }
};

/// Incident weight of u leaving the 2-vertex interior {u, other}, i.e.
/// weight to critical attachments of the bridge.
double external_weight_of_pair(const Graph& g, vidx u, vidx other) {
  double w = 0.0;
  const auto nbrs = g.neighbors(u);
  const auto ws = g.weights(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] != other) w += ws[i];
  }
  return w;
}

void plan_single(const Planner& p, vidx u, std::span<const char> critical,
                 BridgePlan& plan) {
  const auto [c, w] = p.heaviest_critical_neighbor(u, critical);
  (void)w;
  if (c >= 0) {
    plan.attaches.emplace_back(u, c);
  } else {
    // Isolated vertex (its own component): unavoidable singleton.
    plan.clusters.push_back({u});
  }
}

void plan_pair(const Planner& p, vidx u1, vidx u2,
               std::span<const char> critical, BridgePlan& plan) {
  const double w = p.g.edge_weight(u1, u2);
  HICOND_ASSERT(w > 0.0);
  const double b1 = external_weight_of_pair(p.g, u1, u2);
  const double b2 = external_weight_of_pair(p.g, u2, u1);
  if (w >= p.opts.pair_slack * std::min(b1, b2)) {
    plan.clusters.push_back({u1, u2});
    return;
  }
  // Both boundary weights positive here, so both have critical neighbours.
  plan_single(p, u1, critical, plan);
  plan_single(p, u2, critical, plan);
}

/// Candidate resolution for a 3-vertex bridge interior: enumerate every
/// feasible split into connected clusters (size >= 2) and attachments,
/// score by the minimum of exact closure conductances and attachment
/// sparsities, and plan the best.
void plan_triple(const Planner& p, std::span<const vidx> interior,
                 std::span<const char> critical, BridgePlan& plan) {
  struct Candidate {
    std::vector<std::vector<vidx>> clusters;
    std::vector<vidx> attachments;
    double score = -1.0;
    int parts = 0;
  };
  std::vector<Candidate> candidates;

  auto adjacent = [&](vidx a, vidx c) { return p.g.has_edge(a, c); };
  const vidx u0 = interior[0];
  const vidx u1 = interior[1];
  const vidx u2 = interior[2];

  // Whole-interior cluster.
  candidates.push_back({{{u0, u1, u2}}, {}, -1.0, 1});
  // Pair + attached single, for every adjacent pair.
  const std::array<std::array<vidx, 3>, 3> splits = {
      {{u0, u1, u2}, {u0, u2, u1}, {u1, u2, u0}}};
  for (const auto& s : splits) {
    if (adjacent(s[0], s[1])) {
      candidates.push_back({{{s[0], s[1]}}, {s[2]}, -1.0, 2});
    }
  }
  // All three attached.
  candidates.push_back({{}, {u0, u1, u2}, -1.0, 3});

  Candidate* best = nullptr;
  for (auto& cand : candidates) {
    double score = kInfiniteConductance;
    bool feasible = true;
    for (vidx u : cand.attachments) {
      const auto [c, w] = p.heaviest_critical_neighbor(u, critical);
      if (c < 0) {
        feasible = false;
        break;
      }
      score = std::min(score, p.attach_sparsity(u, w));
    }
    if (!feasible) continue;
    for (const auto& cluster : cand.clusters) {
      score = std::min(score, p.closure_phi(cluster));
    }
    cand.score = score;
    if (best == nullptr || cand.score > best->score ||
        (exactly_equal(cand.score, best->score) && cand.parts < best->parts)) {
      best = &cand;
    }
  }
  HICOND_ASSERT(best != nullptr);
  for (auto& cluster : best->clusters) {
    plan.clusters.push_back(std::move(cluster));
  }
  for (vidx u : best->attachments) {
    const auto [c, w] = p.heaviest_critical_neighbor(u, critical);
    (void)w;
    plan.attaches.emplace_back(u, c);
  }
}

/// Generic fallback for unexpectedly large bridge interiors: bottom-up
/// packing of the interior subtree into clusters of size >= 2, with a single
/// possible leftover attached to a critical neighbour (or merged into an
/// adjacent planned cluster).
void plan_large(const Planner& p, std::span<const vidx> interior,
                std::span<const char> critical, BridgePlan& plan) {
  std::vector<vidx> old_to_new;
  const Graph sub = induced_subgraph(p.g, interior, &old_to_new);
  const RootedForest rf = RootedForest::build(sub);
  const auto order = rf.top_down_order();
  // local_cluster[lv] = index into plan.clusters, -1 while pending.
  std::vector<vidx> local_cluster(interior.size(), -1);
  // Reverse BFS: children first. pending(v) = v plus unclustered children.
  for (std::size_t i = order.size(); i-- > 0;) {
    const vidx lv = order[i];
    std::vector<vidx> pending{interior[static_cast<std::size_t>(lv)]};
    for (vidx lc : rf.children(lv)) {
      if (local_cluster[static_cast<std::size_t>(lc)] == -1) {
        pending.push_back(interior[static_cast<std::size_t>(lc)]);
      }
    }
    if (pending.size() >= 2) {
      const auto id = static_cast<vidx>(plan.clusters.size());
      plan.clusters.push_back(std::move(pending));
      local_cluster[static_cast<std::size_t>(lv)] = id;
      for (vidx lc : rf.children(lv)) {
        if (local_cluster[static_cast<std::size_t>(lc)] == -1) {
          local_cluster[static_cast<std::size_t>(lc)] = id;
        }
      }
    }
    // else: leave lv pending for its parent.
  }
  // Leftover roots (pending singletons).
  for (vidx lr : rf.roots()) {
    if (local_cluster[static_cast<std::size_t>(lr)] != -1) continue;
    const vidx u = interior[static_cast<std::size_t>(lr)];
    const auto [c, w] = p.heaviest_critical_neighbor(u, critical);
    (void)w;
    if (c >= 0) {
      plan.attaches.emplace_back(u, c);
      continue;
    }
    // Merge into the adjacent planned cluster with the heaviest edge. All
    // neighbours of u are interior here (it has no critical neighbour), so
    // the candidates are exactly the locally clustered vertices.
    vidx target = -1;
    double best_w = -1.0;
    const auto nbrs = p.g.neighbors(u);
    const auto ws = p.g.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vidx ln = old_to_new[static_cast<std::size_t>(nbrs[i])];
      if (ln >= 0 && local_cluster[static_cast<std::size_t>(ln)] >= 0 &&
          ws[i] > best_w) {
        best_w = ws[i];
        target = nbrs[i];
      }
    }
    if (target >= 0) {
      plan.merges.emplace_back(u, target);
    } else {
      plan.clusters.push_back({u});
    }
  }
}

}  // namespace

Decomposition tree_decomposition(const Graph& forest,
                                 const TreeDecompOptions& options) {
  HICOND_CHECK(is_forest(forest), "tree_decomposition requires a forest");
  HICOND_SPAN("tree.decompose");
  const vidx n = forest.num_vertices();
  Decomposition result;
  result.assignment.assign(static_cast<std::size_t>(n), -1);
  if (n == 0) return result;

  std::vector<vidx> assignment(static_cast<std::size_t>(n), -1);
  vidx next_cluster = 0;
  auto emit_cluster = [&](std::span<const vidx> verts) {
    const vidx id = next_cluster++;
    for (vidx v : verts) assignment[static_cast<std::size_t>(v)] = id;
  };

  const std::vector<vidx> comp = connected_components(forest);
  const vidx num_comp = 1 + *std::max_element(comp.begin(), comp.end());
  std::vector<vidx> comp_size(static_cast<std::size_t>(num_comp), 0);
  for (vidx c : comp) ++comp_size[static_cast<std::size_t>(c)];

  // Small components (<= 3 vertices) are single clusters, as in the paper.
  std::vector<std::vector<vidx>> small(static_cast<std::size_t>(num_comp));
  for (vidx v = 0; v < n; ++v) {
    if (comp_size[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])] <=
        3) {
      small[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])]
          .push_back(v);
    }
  }
  for (const auto& cluster : small) {
    if (!cluster.empty()) emit_cluster(cluster);
  }

  const RootedForest rf = RootedForest::build(forest);
  std::vector<char> critical = critical_vertices(rf, 3);
  // Restrict to large components; small ones are done.
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t v) {
    if (comp_size[static_cast<std::size_t>(comp[v])] <= 3) critical[v] = 0;
  });
  // One cluster per critical vertex.
  for (vidx v = 0; v < n; ++v) {
    if (critical[static_cast<std::size_t>(v)]) {
      const std::array<vidx, 1> self{v};
      emit_cluster(self);
    }
  }

  // Bridges come from the parallel pointer-jumping overload; the planning
  // pass is independent per bridge (it reads only the graph, the critical
  // flags and the already-fixed small-component assignments), so the
  // schedule cannot influence any decision.
  const auto bridges = bridge_decomposition(forest, critical, rf);
  const Planner planner{forest, options};
  std::vector<BridgePlan> plans(bridges.size());
  parallel_for_interleaved(bridges.size(), [&](std::size_t i) {
    const auto& interior = bridges[i].interior;
    BridgePlan& plan = plans[i];
    if (assignment[static_cast<std::size_t>(interior.front())] != -1) {
      plan.skip = true;  // part of a small component, already clustered
      return;
    }
    switch (interior.size()) {
      case 1:
        plan_single(planner, interior[0], critical, plan);
        break;
      case 2:
        plan_pair(planner, interior[0], interior[1], critical, plan);
        break;
      case 3:
        plan_triple(planner, interior, critical, plan);
        break;
      default:
        plan_large(planner, interior, critical, plan);
        break;
    }
  });
  // Serial commit in bridge order: allocates cluster ids deterministically.
  for (const BridgePlan& plan : plans) {
    if (plan.skip) continue;
    for (const auto& cluster : plan.clusters) emit_cluster(cluster);
    for (const auto& [u, c] : plan.attaches) {
      const vidx id = assignment[static_cast<std::size_t>(c)];
      HICOND_ASSERT(id >= 0);
      assignment[static_cast<std::size_t>(u)] = id;
    }
    for (const auto& [u, t] : plan.merges) {
      const vidx id = assignment[static_cast<std::size_t>(t)];
      HICOND_ASSERT(id >= 0);
      assignment[static_cast<std::size_t>(u)] = id;
    }
  }

  result.assignment = std::move(assignment);
  result.num_clusters = next_cluster;
  HICOND_RUN_VALIDATION(expensive, result.validate(forest));
  return result;
}

}  // namespace hicond
