#include "hicond/partition/spectral_partition.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/builder.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/partition/cluster_index.hpp"

namespace hicond {
namespace {

Graph planted(vidx k, vidx size, double bridge, Decomposition* truth) {
  GraphBuilder b(k * size);
  for (vidx c = 0; c < k; ++c) {
    for (vidx i = 0; i < size; ++i) {
      for (vidx j = i + 1; j < size; ++j) {
        b.add_edge(c * size + i, c * size + j, 1.0);
      }
    }
    b.add_edge(c * size, ((c + 1) % k) * size, bridge);
  }
  if (truth != nullptr) {
    truth->num_clusters = k;
    truth->assignment.resize(static_cast<std::size_t>(k * size));
    for (vidx v = 0; v < k * size; ++v) {
      truth->assignment[static_cast<std::size_t>(v)] = v / size;
    }
  }
  return b.build();
}

TEST(SpectralSweepCut, FindsThePlantedBottleneck) {
  Decomposition truth;
  const Graph g = planted(2, 8, 0.01, &truth);
  double sparsity = 0.0;
  const auto side = spectral_sweep_cut(g, &sparsity);
  // The cut must separate the two cliques exactly.
  for (vidx v = 0; v < 8; ++v) {
    EXPECT_EQ(side[static_cast<std::size_t>(v)], side[0]);
  }
  for (vidx v = 8; v < 16; ++v) {
    EXPECT_NE(side[static_cast<std::size_t>(v)], side[0]);
  }
  EXPECT_LT(sparsity, 0.01);
}

TEST(SpectralSweepCut, DisconnectedGraphZeroCut) {
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {2, 3, 1.0}};
  const Graph g(4, edges);
  double sparsity = 1.0;
  const auto side = spectral_sweep_cut(g, &sparsity);
  EXPECT_DOUBLE_EQ(sparsity, 0.0);
  EXPECT_EQ(side[0], side[1]);
  EXPECT_NE(side[0], side[2]);
}

TEST(SpectralSweepCut, BothSidesNonEmpty) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = gen::random_planar_triangulation(
        40, gen::WeightSpec::uniform(1.0, 3.0), seed);
    const auto side = spectral_sweep_cut(g, nullptr);
    int ones = 0;
    for (char c : side) ones += c;
    EXPECT_GT(ones, 0);
    EXPECT_LT(ones, 40);
  }
}

TEST(RecursiveSpectral, RecoversPlantedClusters) {
  Decomposition truth;
  const Graph g = planted(4, 10, 0.01, &truth);
  const Decomposition d = recursive_spectral_decomposition(
      g, {.phi_target = 0.3, .min_cluster_size = 4});
  d.validate(g);
  EXPECT_EQ(d.num_clusters, 4);
  // Same partition as planted (up to relabeling): vertices agree with their
  // clique-mates.
  for (vidx v = 0; v < 40; ++v) {
    EXPECT_EQ(d.assignment[static_cast<std::size_t>(v)],
              d.assignment[static_cast<std::size_t>((v / 10) * 10)]);
  }
}

TEST(RecursiveSpectral, ClustersAreConnected) {
  const Graph g = gen::grid2d(12, 12, gen::WeightSpec::uniform(1.0, 3.0), 7);
  const Decomposition d = recursive_spectral_decomposition(
      g, {.phi_target = 0.4, .min_cluster_size = 6});
  d.validate(g);
  const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
  for (vidx c = 0; c < clusters.num_clusters(); ++c) {
    EXPECT_TRUE(is_connected(induced_subgraph(g, clusters.members(c))));
  }
}

TEST(RecursiveSpectral, HigherTargetMeansMoreClusters) {
  const Graph g = gen::grid2d(10, 10, gen::WeightSpec::uniform(1.0, 2.0), 9);
  const Decomposition lo = recursive_spectral_decomposition(
      g, {.phi_target = 0.1, .min_cluster_size = 4});
  const Decomposition hi = recursive_spectral_decomposition(
      g, {.phi_target = 0.8, .min_cluster_size = 4});
  EXPECT_LE(lo.num_clusters, hi.num_clusters);
}

TEST(RecursiveSpectral, StopsAtMinClusterSize) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 11);
  const Decomposition d = recursive_spectral_decomposition(
      g, {.phi_target = 100.0, .min_cluster_size = 5});
  const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
  // With an unreachable target everything splits down to the size floor;
  // each split keeps both sides non-empty so clusters have size in
  // [1, min_cluster_size].
  for (vidx c = 0; c < clusters.num_clusters(); ++c) {
    EXPECT_LE(clusters.members(c).size(), 5u);
  }
}

TEST(RecursiveSpectral, WholeGraphWhenAlreadyExpanding) {
  const Graph g = gen::complete(12, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const Decomposition d = recursive_spectral_decomposition(
      g, {.phi_target = 0.3, .min_cluster_size = 2});
  EXPECT_EQ(d.num_clusters, 1);
}

TEST(RecursiveSpectral, RejectsBadOptions) {
  const Graph g = gen::path(4);
  EXPECT_THROW(
      (void)recursive_spectral_decomposition(g, {.phi_target = 0.0}),
      invalid_argument_error);
}

}  // namespace
}  // namespace hicond
