#include "hicond/partition/decomposition.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/generators.hpp"

namespace hicond {
namespace {

TEST(Decomposition, ReductionFactor) {
  Decomposition d;
  d.assignment = {0, 0, 1, 1, 2, 2};
  d.num_clusters = 3;
  EXPECT_DOUBLE_EQ(d.reduction_factor(), 2.0);
}

TEST(Decomposition, ValidationPasses) {
  const Graph g = gen::path(4);
  Decomposition d;
  d.assignment = {0, 0, 1, 1};
  d.num_clusters = 2;
  EXPECT_NO_THROW(d.validate(g));
}

TEST(Decomposition, ValidationCatchesBadIds) {
  const Graph g = gen::path(4);
  Decomposition d;
  d.assignment = {0, 0, 2, 2};  // id 1 unused
  d.num_clusters = 3;
  EXPECT_THROW(d.validate(g), invalid_argument_error);
  d.assignment = {0, 0, 1, -1};
  d.num_clusters = 2;
  EXPECT_THROW(d.validate(g), invalid_argument_error);
  d.assignment = {0, 0, 1};
  EXPECT_THROW(d.validate(g), invalid_argument_error);
}

TEST(Decomposition, GammaOfBalancedSplit) {
  // Unit path of 4 split in the middle: end vertices have gamma 1, the two
  // middle vertices have gamma 1/2.
  const Graph g = gen::path(4);
  Decomposition d;
  d.assignment = {0, 0, 1, 1};
  d.num_clusters = 2;
  const auto gamma = per_vertex_gamma(g, d);
  EXPECT_DOUBLE_EQ(gamma[0], 1.0);
  EXPECT_DOUBLE_EQ(gamma[1], 0.5);
  EXPECT_DOUBLE_EQ(gamma[2], 0.5);
  EXPECT_DOUBLE_EQ(gamma[3], 1.0);
}

TEST(Decomposition, GammaOfSingletonIsZero) {
  const Graph g = gen::path(3);
  Decomposition d;
  d.assignment = {0, 1, 1};
  d.num_clusters = 2;
  const auto gamma = per_vertex_gamma(g, d);
  EXPECT_DOUBLE_EQ(gamma[0], 0.0);
}

TEST(Decomposition, StatsOnKnownClustering) {
  // Two unit triangles joined by a light edge, clustered per triangle.
  const double eps = 0.1;
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0},
                                  {3, 4, 1.0}, {4, 5, 1.0}, {3, 5, 1.0},
                                  {2, 3, eps}};
  const Graph g(6, edges);
  Decomposition d;
  d.assignment = {0, 0, 0, 1, 1, 1};
  d.num_clusters = 2;
  const DecompositionStats stats = evaluate_decomposition(g, d);
  EXPECT_EQ(stats.num_clusters, 2);
  EXPECT_DOUBLE_EQ(stats.reduction_factor, 3.0);
  EXPECT_TRUE(stats.phi_exact);
  EXPECT_EQ(stats.num_singletons, 0);
  EXPECT_EQ(stats.max_cluster_size, 3);
  EXPECT_EQ(stats.num_disconnected_clusters, 0);
  // Closure of each triangle: triangle + one pendant of eps; conductance
  // is the one-corner cut: (2 + eps applied at vertex 2)... at least 1/2.
  EXPECT_GE(stats.min_phi_lower, 0.5);
  // gamma: vertex 2 has vol 2 + eps, internal 2.
  EXPECT_NEAR(stats.min_gamma, 2.0 / (2.0 + eps), 1e-12);
}

TEST(Decomposition, StatsDetectDisconnectedCluster) {
  const Graph g = gen::path(4);
  Decomposition d;
  d.assignment = {0, 1, 1, 0};  // cluster 0 = {0, 3}: disconnected
  d.num_clusters = 2;
  const DecompositionStats stats = evaluate_decomposition(g, d);
  EXPECT_GE(stats.num_disconnected_clusters, 1);
}

TEST(Decomposition, SingletonDecompositionBaseline) {
  const Graph g = gen::grid2d(3, 3);
  const Decomposition d = singleton_decomposition(g);
  EXPECT_EQ(d.num_clusters, 9);
  const DecompositionStats stats = evaluate_decomposition(g, d);
  EXPECT_DOUBLE_EQ(stats.reduction_factor, 1.0);
  EXPECT_DOUBLE_EQ(stats.min_gamma, 0.0);
  // Every closure is a star: conductance 1 (or infinite for isolated).
  EXPECT_GE(stats.min_phi_lower, 1.0);
}

TEST(Decomposition, ComposeChainsAssignments) {
  Decomposition d1;
  d1.assignment = {0, 0, 1, 1, 2, 2};
  d1.num_clusters = 3;
  Decomposition d2;
  d2.assignment = {0, 0, 1};
  d2.num_clusters = 2;
  const Decomposition c = compose(d1, d2);
  EXPECT_EQ(c.num_clusters, 2);
  EXPECT_EQ(c.assignment, (std::vector<vidx>{0, 0, 0, 0, 1, 1}));
}

TEST(Decomposition, CutWeightFractionKnownValues) {
  const Graph g = gen::path(4);  // three unit edges
  Decomposition d;
  d.assignment = {0, 0, 1, 1};
  d.num_clusters = 2;
  EXPECT_NEAR(cut_weight_fraction(g, d), 1.0 / 3.0, 1e-12);
  const Decomposition s = singleton_decomposition(g);
  EXPECT_DOUBLE_EQ(cut_weight_fraction(g, s), 1.0);
  Decomposition whole;
  whole.assignment = {0, 0, 0, 0};
  whole.num_clusters = 1;
  EXPECT_DOUBLE_EQ(cut_weight_fraction(g, whole), 0.0);
}

TEST(Decomposition, AverageGammaComplementsCutFraction) {
  // For any decomposition, the volume-weighted average gamma equals
  // 1 - 2 * crossing / total_volume = 1 - cut_fraction * (2W / vol) with
  // vol = 2W, i.e. average_gamma = 1 - cut_weight_fraction.
  const Graph g = gen::grid2d(5, 5, gen::WeightSpec::uniform(1.0, 3.0), 3);
  Decomposition d;
  d.num_clusters = 5;
  d.assignment.resize(25);
  for (vidx v = 0; v < 25; ++v) d.assignment[static_cast<std::size_t>(v)] = v / 5;
  EXPECT_NEAR(average_gamma(g, d), 1.0 - cut_weight_fraction(g, d), 1e-12);
}

TEST(Decomposition, ComposeRejectsSizeMismatch) {
  Decomposition d1;
  d1.assignment = {0, 1};
  d1.num_clusters = 2;
  Decomposition d2;
  d2.assignment = {0, 0, 1};
  d2.num_clusters = 2;
  EXPECT_THROW((void)compose(d1, d2), invalid_argument_error);
}

}  // namespace
}  // namespace hicond
