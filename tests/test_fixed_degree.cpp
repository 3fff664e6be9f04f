#include "hicond/partition/fixed_degree.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/partition/cluster_index.hpp"

namespace hicond {
namespace {

TEST(HeaviestEdgeForest, IsAForest) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g =
        gen::grid2d(10, 10, gen::WeightSpec::uniform(1.0, 2.0), seed);
    const Graph f = heaviest_incident_edge_forest(g, seed);
    EXPECT_TRUE(is_forest(f)) << "seed " << seed;
  }
}

TEST(HeaviestEdgeForest, EveryNonIsolatedVertexCovered) {
  const Graph g = gen::grid3d(5, 5, 5, gen::WeightSpec::uniform(1.0, 3.0), 3);
  const Graph f = heaviest_incident_edge_forest(g, 3);
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(f.degree(v), 1) << "v=" << v;
  }
}

TEST(HeaviestEdgeForest, IsUnimodal) {
  // Section 3.1: the kept-edge forest has no path with a local-minimum edge.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = gen::random_planar_triangulation(
        200, gen::WeightSpec::uniform(1.0, 5.0), seed);
    const Graph f = heaviest_incident_edge_forest(g, seed);
    EXPECT_TRUE(is_unimodal_forest(f)) << "seed " << seed;
  }
}

TEST(HeaviestEdgeForest, UnitWeightsWithPerturbationStillForest) {
  // Without perturbation ties could create cycles; the perturbation must
  // break them.
  const Graph g = gen::torus2d(8, 8);  // all unit weights
  const Graph f = heaviest_incident_edge_forest(g, 11, /*perturb=*/true);
  EXPECT_TRUE(is_forest(f));
}

TEST(HeaviestEdgeForest, DeterministicForFixedSeed) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 5);
  const Graph f1 = heaviest_incident_edge_forest(g, 9);
  const Graph f2 = heaviest_incident_edge_forest(g, 9);
  EXPECT_EQ(f1.edge_list(), f2.edge_list());
}

TEST(IsUnimodal, DetectsLocalMinimum) {
  // Path with weights 3, 1, 3: the middle edge is a local minimum.
  std::vector<WeightedEdge> bad{{0, 1, 3.0}, {1, 2, 1.0}, {2, 3, 3.0}};
  EXPECT_FALSE(is_unimodal_forest(Graph(4, bad)));
  std::vector<WeightedEdge> good{{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}};
  EXPECT_TRUE(is_unimodal_forest(Graph(4, good)));
}

class FixedDegreeSweep : public testing::TestWithParam<vidx> {};

TEST_P(FixedDegreeSweep, ReductionFactorAtLeastTwo) {
  const vidx k = GetParam();
  const Graph g = gen::grid2d(12, 12, gen::WeightSpec::uniform(1.0, 2.0), 7);
  const auto result = fixed_degree_decomposition(g, {.max_cluster_size = k});
  result.decomposition.validate(g);
  EXPECT_GE(result.decomposition.reduction_factor(), 2.0) << "k=" << k;
}

TEST_P(FixedDegreeSweep, ConductanceAboveTheoremFloor) {
  // Section 3.1 claims phi >= 1/(2 d^2 k) for maximum degree d.
  const vidx k = GetParam();
  const Graph g = gen::grid2d(10, 10, gen::WeightSpec::uniform(1.0, 2.0), 9);
  const auto result = fixed_degree_decomposition(g, {.max_cluster_size = k});
  const auto stats = evaluate_decomposition(g, result.decomposition);
  const double d = static_cast<double>(g.max_degree());
  EXPECT_GE(stats.min_phi_lower, 1.0 / (2.0 * d * d * k) - 1e-9) << "k=" << k;
  EXPECT_EQ(stats.num_disconnected_clusters, 0);
}

INSTANTIATE_TEST_SUITE_P(ClusterCaps, FixedDegreeSweep,
                         testing::Values(2, 3, 4, 8));

TEST(FixedDegree, ForestCarriesOriginalWeights) {
  const Graph g = gen::grid2d(6, 6, gen::WeightSpec::uniform(1.0, 4.0), 2);
  const auto result = fixed_degree_decomposition(g);
  for (const auto& e : result.forest.edge_list()) {
    EXPECT_DOUBLE_EQ(e.weight, g.edge_weight(e.u, e.v));
  }
  // Same edges in both forests.
  EXPECT_EQ(result.forest.num_edges(), result.perturbed_forest.num_edges());
}

TEST(FixedDegree, ClustersAreConnectedInForest) {
  const Graph g = gen::oct_volume(6, 6, 6, {}, 4);
  const auto result = fixed_degree_decomposition(g, {.max_cluster_size = 4});
  const auto clusters = ClusterIndex::build(
      result.decomposition.assignment, result.decomposition.num_clusters);
  for (vidx c = 0; c < clusters.num_clusters(); ++c) {
    EXPECT_TRUE(
        is_connected(induced_subgraph(result.forest, clusters.members(c))));
  }
}

TEST(FixedDegree, WorksOnFixedDegreeFamilies) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g =
        gen::random_regular(100, 4, gen::WeightSpec::uniform(1.0, 2.0), seed);
    const auto result = fixed_degree_decomposition(g);
    result.decomposition.validate(g);
    EXPECT_GE(result.decomposition.reduction_factor(), 2.0) << "seed " << seed;
  }
}

TEST(FixedDegree, PerturbationAblationStillValidOnDistinctWeights) {
  // With strictly distinct weights the perturbation is not needed for the
  // forest property (the ablation the paper's argument suggests).
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 13);
  const auto result = fixed_degree_decomposition(
      g, {.max_cluster_size = 4, .perturb = false});
  result.decomposition.validate(g);
  EXPECT_TRUE(is_forest(result.forest));
}

TEST(FixedDegree, RejectsBadCap) {
  const Graph g = gen::path(4);
  EXPECT_THROW((void)fixed_degree_decomposition(g, {.max_cluster_size = 1}),
               invalid_argument_error);
}

TEST(FixedDegree, IsolatedVerticesBecomeSingletons) {
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 2, 2.0}};
  const Graph g(5, edges);  // 3, 4 isolated
  const auto result = fixed_degree_decomposition(g);
  result.decomposition.validate(g);
  EXPECT_EQ(result.decomposition.num_clusters, 3);  // {0,1,2}, {3}, {4}
}

}  // namespace
}  // namespace hicond
