#include "hicond/graph/closure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "hicond/certify/oracle.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

TEST(Closure, InteriorClusterHasPendantsPerBoundaryEdge) {
  const Graph g = gen::grid2d(3, 3);  // center vertex 4 has 4 neighbours
  const std::vector<vidx> cluster{4};
  const ClosureGraph c = closure_graph(g, cluster);
  EXPECT_EQ(c.num_cluster_vertices, 1);
  EXPECT_EQ(c.graph.num_vertices(), 5);  // center + 4 pendants
  EXPECT_EQ(c.graph.num_edges(), 4);
  EXPECT_EQ(c.graph.degree(0), 4);
  for (vidx v = 1; v < 5; ++v) EXPECT_EQ(c.graph.degree(v), 1);
}

TEST(Closure, WholeGraphClusterHasNoPendants) {
  const Graph g = gen::cycle(5);
  std::vector<vidx> all{0, 1, 2, 3, 4};
  const ClosureGraph c = closure_graph(g, all);
  EXPECT_EQ(c.graph.num_vertices(), 5);
  EXPECT_EQ(c.graph.num_edges(), 5);
}

TEST(Closure, PendantWeightsMatchBoundaryEdges) {
  std::vector<WeightedEdge> edges{{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 4.0}};
  const Graph g(4, edges);
  const std::vector<vidx> cluster{1, 2};
  const ClosureGraph c = closure_graph(g, cluster);
  // Cluster vertices 0,1 (= original 1,2) plus two pendants.
  EXPECT_EQ(c.graph.num_vertices(), 4);
  EXPECT_DOUBLE_EQ(c.graph.edge_weight(0, 1), 3.0);  // internal
  // vol of the renamed vertex equals its original vol.
  EXPECT_DOUBLE_EQ(c.graph.vol(0), g.vol(1));
  EXPECT_DOUBLE_EQ(c.graph.vol(1), g.vol(2));
}

TEST(Closure, VolumePreservedForClusterVertices) {
  const Graph g = gen::grid3d(3, 3, 3, gen::WeightSpec::uniform(1.0, 4.0), 5);
  const std::vector<vidx> cluster{0, 1, 3, 9};
  const ClosureGraph c = closure_graph(g, cluster);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.graph.vol(static_cast<vidx>(i)), g.vol(cluster[i]));
  }
}

TEST(Closure, FromAssignment) {
  const Graph g = gen::path(6);
  std::vector<vidx> assignment{0, 0, 1, 1, 2, 2};
  const auto clusters = ClusterIndex::build(assignment, 3);
  const ClosureGraph c = closure_graph(g, clusters.members(1));
  EXPECT_EQ(c.cluster, (std::vector<vidx>{2, 3}));
  EXPECT_EQ(c.graph.num_vertices(), 4);  // 2 cluster + 2 pendants
}

TEST(Closure, RejectsEmptyAndDuplicates) {
  const Graph g = gen::path(4);
  const std::vector<vidx> empty;
  EXPECT_THROW((void)closure_graph(g, empty), invalid_argument_error);
  const std::vector<vidx> dup{1, 1};
  EXPECT_THROW((void)closure_graph(g, dup), invalid_argument_error);
}

/// The closure-graph oracle enumerates 2^(n-1) cuts of the built closure,
/// each recomputed from scratch; this cap keeps it fast.
constexpr vidx kOracleMaxVertices = 16;

/// Compare with the closure-graph oracle: brute force over every cut of
/// the built G^o_C.
void expect_matches_oracle(const Graph& g, std::span<const vidx> cluster) {
  const Graph closure = closure_graph(g, cluster).graph;
  ASSERT_LE(closure.num_vertices(), kOracleMaxVertices);
  const double want = certify::oracle_conductance_bruteforce(closure);
  const double got = closure_conductance(g, cluster);
  if (std::isinf(want)) {
    EXPECT_TRUE(std::isinf(got)) << got;
  } else {
    EXPECT_LE(std::abs(got - want), 1e-12 * want) << got << " vs " << want;
  }
}

/// A random connected cluster of `size` members grown from `seed_vertex` by
/// absorbing random frontier vertices (fewer when the component is smaller).
std::vector<vidx> random_connected_cluster(const Graph& g, vidx seed_vertex,
                                           std::size_t size, Rng& rng) {
  std::vector<vidx> cluster{seed_vertex};
  std::vector<vidx> frontier;
  while (cluster.size() < size) {
    frontier.clear();
    for (const vidx v : cluster) {
      for (const vidx u : g.neighbors(v)) {
        if (std::find(cluster.begin(), cluster.end(), u) == cluster.end()) {
          frontier.push_back(u);
        }
      }
    }
    if (frontier.empty()) break;
    cluster.push_back(frontier[rng.uniform_index(frontier.size())]);
  }
  return cluster;
}

TEST(Closure, ConductanceMatchesClosureGraphOracle) {
  const auto w = gen::WeightSpec::uniform(1e-3, 10.0);
  const std::vector<Graph> graphs{gen::grid2d(6, 5, w, 3),
                                  gen::grid3d(3, 3, 3, w, 4),
                                  gen::oct_volume(3, 3, 3, {}, 5)};
  Rng rng(77);
  for (const Graph& g : graphs) {
    int compared = 0;
    for (int trial = 0; trial < 400; ++trial) {
      const vidx seed_vertex =
          static_cast<vidx>(rng.uniform_index(
              static_cast<std::uint64_t>(g.num_vertices())));
      const std::size_t size = 1 + rng.uniform_index(8);
      const std::vector<vidx> cluster =
          random_connected_cluster(g, seed_vertex, size, rng);
      if (closure_graph(g, cluster).graph.num_vertices() >
          kOracleMaxVertices) {
        continue;
      }
      expect_matches_oracle(g, cluster);
      ++compared;
    }
    EXPECT_GE(compared, 100) << "too few clusters within the oracle's limit";
  }
}

TEST(Closure, ConductanceEdgeCases) {
  // A single vertex with boundary edges: only leaf cuts, sparsity 1.
  const Graph grid = gen::grid2d(3, 3, gen::WeightSpec::uniform(1e-3, 10.0));
  const std::vector<vidx> single{4};
  EXPECT_DOUBLE_EQ(closure_conductance(grid, single), 1.0);
  expect_matches_oracle(grid, single);

  // An isolated vertex: its closure has no cuts.
  std::vector<WeightedEdge> edges{{0, 1, 2.0}, {1, 2, 0.5}};
  const Graph with_isolated(4, edges);
  const std::vector<vidx> isolated{3};
  EXPECT_TRUE(std::isinf(closure_conductance(with_isolated, isolated)));
  expect_matches_oracle(with_isolated, isolated);

  // Two members with no edge between them: disconnected, phi = 0.
  const std::vector<vidx> apart{0, 8};
  EXPECT_EQ(closure_conductance(grid, apart), 0.0);
  expect_matches_oracle(grid, apart);
  // Disconnected through a member without edges: the closure-graph oracle
  // skips its zero-volume cuts, but the cluster is disconnected all the same.
  const std::vector<vidx> with_edgeless{0, 3};
  EXPECT_FALSE(is_connected(closure_graph(with_isolated, with_edgeless).graph));
  EXPECT_EQ(closure_conductance(with_isolated, with_edgeless), 0.0);

  // A whole component: no leaves at all.
  const std::vector<vidx> component{0, 1, 2};
  EXPECT_GT(closure_conductance(with_isolated, component), 0.0);
  expect_matches_oracle(with_isolated, component);
  const Graph ring = gen::cycle(7);
  const std::vector<vidx> all{0, 1, 2, 3, 4, 5, 6};
  expect_matches_oracle(ring, all);
}

TEST(Closure, ConductanceRejectsBadClusters) {
  const Graph g = gen::path(30);
  const std::vector<vidx> empty;
  EXPECT_THROW((void)closure_conductance(g, empty), invalid_argument_error);
  const std::vector<vidx> dup{1, 1};
  EXPECT_THROW((void)closure_conductance(g, dup), invalid_argument_error);
  const std::vector<vidx> out_of_range{1, 30};
  EXPECT_THROW((void)closure_conductance(g, out_of_range),
               invalid_argument_error);
  std::vector<vidx> too_big(25);
  for (std::size_t i = 0; i < too_big.size(); ++i) {
    too_big[i] = static_cast<vidx>(i);
  }
  EXPECT_THROW((void)closure_conductance(g, too_big), invalid_argument_error);
}

}  // namespace
}  // namespace hicond
