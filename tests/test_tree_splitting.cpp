#include "hicond/tree/tree_splitting.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/partition/cluster_index.hpp"

namespace hicond {
namespace {

void check_clusters_connected(const Graph& g, const Decomposition& d) {
  const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
  for (vidx c = 0; c < clusters.num_clusters(); ++c) {
    EXPECT_TRUE(is_connected(induced_subgraph(g, clusters.members(c))));
  }
}

class SplitCapSweep : public testing::TestWithParam<vidx> {};

TEST_P(SplitCapSweep, RespectsSizeCapWithSingletonSlack) {
  const vidx k = GetParam();
  const Graph g = gen::random_tree(300, gen::WeightSpec::uniform(1.0, 4.0), 7);
  const Decomposition d = split_forest_bounded(g, k);
  d.validate(g);
  // The greedy merge respects the cap k; singleton absorption can push a
  // cluster past it by at most the number of stranded neighbours, which is
  // bounded by the maximum degree.
  const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
  for (vidx c = 0; c < clusters.num_clusters(); ++c) {
    EXPECT_LE(static_cast<vidx>(clusters.members(c).size()),
              k + g.max_degree());
  }
  check_clusters_connected(g, d);
}

TEST_P(SplitCapSweep, NoSingletonsOnConnectedTree) {
  const vidx k = GetParam();
  const Graph g = gen::random_tree(300, gen::WeightSpec::uniform(1.0, 4.0), 9);
  const Decomposition d = split_forest_bounded(g, k);
  const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
  for (vidx c = 0; c < clusters.num_clusters(); ++c) {
    EXPECT_GE(clusters.members(c).size(), 2u);
  }
  // Reduction factor of 2 (the Section 3.1 claim).
  EXPECT_GE(d.reduction_factor(), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Caps, SplitCapSweep, testing::Values(2, 3, 4, 6, 10));

TEST(SplitForest, HeaviestEdgesMergeFirst) {
  // Path with one heavy edge: the heavy pair must share a cluster.
  std::vector<WeightedEdge> edges{
      {0, 1, 1.0}, {1, 2, 100.0}, {2, 3, 1.0}, {3, 4, 1.0}};
  const Graph g(5, edges);
  const Decomposition d = split_forest_bounded(g, 2);
  EXPECT_EQ(d.assignment[1], d.assignment[2]);
}

TEST(SplitForest, DisconnectedForestKeepsComponentsSeparate) {
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {2, 3, 1.0}};
  const Graph g(4, edges);
  const Decomposition d = split_forest_bounded(g, 4);
  EXPECT_EQ(d.num_clusters, 2);
  EXPECT_EQ(d.assignment[0], d.assignment[1]);
  EXPECT_EQ(d.assignment[2], d.assignment[3]);
  EXPECT_NE(d.assignment[0], d.assignment[2]);
}

TEST(SplitForest, IsolatedVerticesRemainSingletons) {
  std::vector<WeightedEdge> edges{{0, 1, 1.0}};
  const Graph g(3, edges);
  const Decomposition d = split_forest_bounded(g, 2);
  EXPECT_EQ(d.num_clusters, 2);
}

TEST(SplitForest, RejectsBadInput) {
  EXPECT_THROW((void)split_forest_bounded(gen::cycle(4), 3),
               invalid_argument_error);
  EXPECT_THROW((void)split_forest_bounded(gen::path(4), 1),
               invalid_argument_error);
}

TEST(SplitForest, CapTwoGivesMatchingLikeClusters) {
  const Graph g = gen::path(10);
  const Decomposition d = split_forest_bounded(g, 2);
  const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
  for (vidx c = 0; c < clusters.num_clusters(); ++c) {
    EXPECT_LE(clusters.members(c).size(), 3u);  // 2 + absorption slack
    EXPECT_GE(clusters.members(c).size(), 2u);
  }
}

}  // namespace
}  // namespace hicond
