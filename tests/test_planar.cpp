#include "hicond/partition/planar.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"

namespace hicond {
namespace {

TEST(CutToForest, TreeInputPassesThrough) {
  const Graph t = gen::random_tree(60, gen::WeightSpec::uniform(1.0, 2.0), 3);
  vidx core = -1;
  vidx cuts = -1;
  const Graph f = cut_to_forest(t, &core, &cuts);
  EXPECT_EQ(core, 0);
  EXPECT_EQ(cuts, 0);
  EXPECT_EQ(f.num_edges(), t.num_edges());
}

TEST(CutToForest, CycleGetsOneCut) {
  std::vector<WeightedEdge> edges;
  for (vidx v = 0; v < 8; ++v) {
    edges.push_back({v, static_cast<vidx>((v + 1) % 8),
                     v == 3 ? 0.5 : 1.0});  // unique lightest edge
  }
  const Graph g(8, edges);
  vidx cuts = -1;
  const Graph f = cut_to_forest(g, nullptr, &cuts);
  EXPECT_EQ(cuts, 1);
  EXPECT_TRUE(is_forest(f));
  EXPECT_FALSE(f.has_edge(3, 4));  // the lightest edge was cut
}

TEST(CutToForest, ThetaGraphCutsEveryPath) {
  // Two degree-3 vertices joined by three paths: all three paths must be
  // cut, leaving each W vertex in its own tree.
  std::vector<WeightedEdge> edges{
      {0, 2, 1.0}, {2, 1, 2.0},   // path A through 2
      {0, 3, 3.0}, {3, 1, 4.0},   // path B through 3
      {0, 4, 5.0}, {4, 1, 6.0},   // path C through 4
  };
  const Graph g(5, edges);
  vidx core = -1;
  vidx cuts = -1;
  const Graph f = cut_to_forest(g, &core, &cuts);
  EXPECT_EQ(core, 2);
  EXPECT_EQ(cuts, 3);
  EXPECT_TRUE(is_forest(f));
  // Vertices 0 and 1 end in different components.
  const auto comp = connected_components(f);
  EXPECT_NE(comp[0], comp[1]);
}

TEST(CutToForest, GridProducesForest) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g =
        gen::grid2d(9, 9, gen::WeightSpec::uniform(1.0, 3.0), seed);
    vidx core = -1;
    const Graph f = cut_to_forest(g, &core);
    EXPECT_TRUE(is_forest(f)) << "seed " << seed;
    EXPECT_GT(core, 0) << "seed " << seed;
  }
}

TEST(CutToForest, HangingTreesSurvive) {
  // Cycle with a pendant path: the path must stay attached.
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 0.5},
                                  {1, 3, 1.0}, {3, 4, 1.0}};
  const Graph g(5, edges);
  const Graph f = cut_to_forest(g);
  EXPECT_TRUE(is_forest(f));
  EXPECT_TRUE(f.has_edge(1, 3));
  EXPECT_TRUE(f.has_edge(3, 4));
}

class PlanarPipeline : public testing::TestWithParam<SpanningTreeKind> {};

TEST_P(PlanarPipeline, ProducesValidDecomposition) {
  const Graph a = gen::random_planar_triangulation(
      150, gen::WeightSpec::uniform(1.0, 4.0), 5);
  PlanarDecompOptions opt;
  opt.tree_kind = GetParam();
  opt.measure_k = false;
  const PlanarDecompResult result = planar_decomposition(a, opt);
  result.decomposition.validate(a);
  const auto stats = evaluate_decomposition(a, result.decomposition);
  EXPECT_EQ(stats.num_disconnected_clusters, 0);
  EXPECT_GT(stats.reduction_factor, 1.1);
  EXPECT_GT(stats.min_phi_lower, 0.0);
}

INSTANTIATE_TEST_SUITE_P(TreeKinds, PlanarPipeline,
                         testing::Values(SpanningTreeKind::max_weight,
                                         SpanningTreeKind::low_stretch));

TEST(PlanarPipeline, MeasuredKIsAtLeastOne) {
  // B is a subgraph of A, so lambda_max(A, B) >= 1.
  const Graph a = gen::grid2d(10, 10, gen::WeightSpec::uniform(1.0, 2.0), 7);
  PlanarDecompOptions opt;
  opt.off_tree_fraction = 0.05;
  const PlanarDecompResult result = planar_decomposition(a, opt);
  EXPECT_GE(result.measured_k, 1.0 - 1e-6);
}

TEST(PlanarPipeline, MoreOffTreeEdgesLowerK) {
  const Graph a = gen::grid2d(12, 12, gen::WeightSpec::uniform(1.0, 3.0), 9);
  PlanarDecompOptions sparse;
  sparse.off_tree_fraction = 0.01;
  PlanarDecompOptions dense;
  dense.off_tree_fraction = 0.25;
  const double k_sparse = planar_decomposition(a, sparse).measured_k;
  const double k_dense = planar_decomposition(a, dense).measured_k;
  EXPECT_LE(k_dense, k_sparse * 1.2 + 1e-9);
}

TEST(PlanarPipeline, PhiTransferBound) {
  // Theorem 2.2's transfer: phi_A >= phi_B / (2k) in our accounting
  // (cut edges cost <= 2, preconditioning k). Validate the measured chain:
  // evaluate phi of the decomposition in B and in A and compare through the
  // measured k.
  const Graph a = gen::random_planar_triangulation(
      100, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const PlanarDecompResult result = planar_decomposition(a, {});
  const auto stats_a = evaluate_decomposition(a, result.decomposition);
  const auto stats_b =
      evaluate_decomposition(result.subgraph_b, result.decomposition);
  ASSERT_GT(result.measured_k, 0.0);
  EXPECT_GE(stats_a.min_phi_upper * result.measured_k * 2.0 + 1e-9,
            stats_b.min_phi_lower);
}

TEST(PlanarPipeline, PureTreeFractionZero) {
  const Graph a = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 11);
  PlanarDecompOptions opt;
  opt.off_tree_fraction = 0.0;
  opt.measure_k = false;
  const PlanarDecompResult result = planar_decomposition(a, opt);
  EXPECT_TRUE(is_forest(result.subgraph_b));
  EXPECT_EQ(result.cut_edges, 0);
  result.decomposition.validate(a);
}

}  // namespace
}  // namespace hicond
