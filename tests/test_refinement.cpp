#include "hicond/partition/refinement.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/builder.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/partition/fixed_degree.hpp"

namespace hicond {
namespace {

TEST(Refinement, MovesMisassignedVertexHome) {
  // Two cliques, one vertex planted in the wrong cluster.
  GraphBuilder b(8);
  for (vidx c = 0; c < 2; ++c) {
    for (vidx i = 0; i < 4; ++i) {
      for (vidx j = i + 1; j < 4; ++j) b.add_edge(c * 4 + i, c * 4 + j, 1.0);
    }
  }
  b.add_edge(0, 4, 0.1);
  const Graph g = b.build();
  Decomposition bad;
  bad.num_clusters = 2;
  bad.assignment = {0, 0, 0, 1, 1, 1, 1, 1};  // vertex 3 misplaced
  const RefinementResult r = refine_decomposition(g, bad, {.gamma_floor = 0.5});
  r.decomposition.validate(g);
  EXPECT_GE(r.moves, 1);
  // Vertex 3 must rejoin its clique-mates.
  EXPECT_EQ(r.decomposition.assignment[3], r.decomposition.assignment[0]);
  EXPECT_NE(r.decomposition.assignment[3], r.decomposition.assignment[4]);
}

TEST(Refinement, FixedPointWhenAlreadyGood) {
  GraphBuilder b(12);
  for (vidx c = 0; c < 2; ++c) {
    for (vidx i = 0; i < 6; ++i) {
      for (vidx j = i + 1; j < 6; ++j) b.add_edge(c * 6 + i, c * 6 + j, 1.0);
    }
  }
  b.add_edge(0, 6, 0.01);
  const Graph g = b.build();
  Decomposition good;
  good.num_clusters = 2;
  good.assignment = {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1};
  const RefinementResult r = refine_decomposition(g, good);
  EXPECT_EQ(r.moves, 0);
  EXPECT_EQ(r.decomposition.assignment[0], r.decomposition.assignment[5]);
  EXPECT_EQ(r.decomposition.num_clusters, 2);
}

TEST(Refinement, NeverDecreasesMinGamma) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = gen::oct_volume(6, 6, 6, {}, seed);
    const auto fd = fixed_degree_decomposition(g, {.seed = seed});
    const auto before = evaluate_decomposition(g, fd.decomposition);
    const RefinementResult r =
        refine_decomposition(g, fd.decomposition, {.gamma_floor = 0.25});
    const auto after = evaluate_decomposition(g, r.decomposition);
    EXPECT_GE(after.min_gamma + 1e-12, std::min(before.min_gamma, 0.0))
        << "seed " << seed;
    // The headline property: total internal weight cannot drop.
    EXPECT_LE(cut_weight_fraction(g, r.decomposition),
              cut_weight_fraction(g, fd.decomposition) + 1e-12)
        << "seed " << seed;
    EXPECT_EQ(after.num_disconnected_clusters, 0);
  }
}

TEST(Refinement, OutputClustersAlwaysConnected) {
  // Force a split: a path clustered so refinement removes the middle.
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 2, 0.01}, {2, 3, 0.01},
                                  {3, 4, 1.0}};
  const Graph g(5, edges);
  Decomposition d;
  d.num_clusters = 2;
  d.assignment = {0, 0, 1, 0, 0};  // cluster 0 disconnected after any move
  const RefinementResult r = refine_decomposition(g, d, {.gamma_floor = 0.9});
  r.decomposition.validate(g);
  const auto stats = evaluate_decomposition(g, r.decomposition);
  EXPECT_EQ(stats.num_disconnected_clusters, 0);
}

TEST(Refinement, RespectsRoundCap) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const auto fd = fixed_degree_decomposition(g);
  const RefinementResult r = refine_decomposition(
      g, fd.decomposition, {.gamma_floor = 1.0, .max_rounds = 2});
  EXPECT_LE(r.rounds, 2);
}

TEST(Refinement, RejectsBadOptions) {
  const Graph g = gen::path(4);
  Decomposition d;
  d.num_clusters = 1;
  d.assignment = {0, 0, 0, 0};
  EXPECT_THROW((void)refine_decomposition(g, d, {.gamma_floor = 1.5}),
               invalid_argument_error);
  EXPECT_THROW((void)refine_decomposition(g, d, {.max_rounds = -1}),
               invalid_argument_error);
}

}  // namespace
}  // namespace hicond
