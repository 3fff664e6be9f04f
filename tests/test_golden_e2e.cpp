// Golden end-to-end regression fixtures: decompose -> Steiner hierarchy ->
// PCG solve on three fixed instances (2D grid, 3D grid, random tree), with
// the observable outputs pinned to exact values. Any change to cluster
// counts, hierarchy shape, operator complexity, or iteration counts is a
// behavioral change to the pipeline and must show up here -- the parallel
// code paths are run-to-run and thread-count deterministic, so these values
// are stable by design (see docs/PARALLELISM.md). If an intentional
// algorithm change shifts them, re-harvest the constants below from the
// actual values printed in the failure output.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "hicond/certify/certify.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/graph.hpp"
#include "hicond/la/cg.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/multilevel.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/tree/tree_decomposition.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

std::vector<double> mean_free_rhs(vidx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  return b;
}

struct GoldenOutcome {
  vidx clusters_l0 = 0;        ///< level-0 cluster count
  int levels = 0;              ///< hierarchy depth
  double op_complexity = 0.0;  ///< sum of level sizes / n
  int iterations = 0;          ///< flexible PCG iterations to 1e-9
};

GoldenOutcome run_multilevel_pipeline(const Graph& g, std::uint64_t rhs_seed) {
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 64});
  GoldenOutcome out;
  out.levels = h.num_levels();
  out.clusters_l0 = h.levels.empty()
                        ? 0
                        : h.levels.front().decomposition.num_clusters;
  const MultilevelSteinerSolver s = MultilevelSteinerSolver::build(h);
  out.op_complexity = s.operator_complexity();
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  const auto b = mean_free_rhs(g.num_vertices(), rhs_seed);
  std::vector<double> x(b.size(), 0.0);
  const auto stats = flexible_pcg_solve(
      a, s.as_operator(), b, x,
      {.max_iterations = 2000, .rel_tolerance = 1e-9,
       .project_constant = true});
  EXPECT_TRUE(stats.converged);
  out.iterations = stats.iterations;
  return out;
}

TEST(GoldenE2E, Grid2dPipeline) {
  const Graph g = gen::grid2d(20, 20, gen::WeightSpec::uniform(1.0, 4.0), 101);
  const GoldenOutcome out = run_multilevel_pipeline(g, 1001);
  EXPECT_EQ(out.clusters_l0, 125);  // 400 vertices / ~3.2 per cluster
  EXPECT_EQ(out.levels, 2);
  EXPECT_NEAR(out.op_complexity, 1.405, 1e-9);
  EXPECT_EQ(out.iterations, 20);
}

TEST(GoldenE2E, Grid3dPipeline) {
  const Graph g =
      gen::grid3d(8, 8, 8, gen::WeightSpec::uniform(1.0, 2.0), 102);
  const GoldenOutcome out = run_multilevel_pipeline(g, 1002);
  EXPECT_EQ(out.clusters_l0, 157);
  EXPECT_EQ(out.levels, 2);
  EXPECT_NEAR(out.op_complexity, 1.388671875, 1e-9);
  EXPECT_EQ(out.iterations, 18);
}

TEST(GoldenE2E, RandomTreePipeline) {
  // Trees take the Theorem 2.1 decomposition and the flat (two-level)
  // Steiner preconditioner; the decomposition is certify-checked so the
  // pinned cluster count is known to satisfy the theorem, not just to be
  // reproducible.
  const Graph tree =
      gen::random_tree(1500, gen::WeightSpec::uniform(0.5, 2.0), 103);
  const Decomposition d = tree_decomposition(tree);
  const certify::Certificate cert =
      certify::certify_tree_decomposition(tree, d);
  EXPECT_TRUE(cert.pass) << cert.to_text();
  EXPECT_EQ(d.num_clusters, 666);  // rho = 1500/666 > 6/5 (Theorem 2.1)
  const SteinerPreconditioner sp = SteinerPreconditioner::build(tree, d);
  auto a = [&tree](std::span<const double> x, std::span<double> y) {
    tree.laplacian_apply(x, y);
  };
  const auto b = mean_free_rhs(tree.num_vertices(), 1003);
  std::vector<double> x(b.size(), 0.0);
  const auto stats =
      pcg_solve(a, sp.as_operator(), b, x,
                {.max_iterations = 2000, .rel_tolerance = 1e-9,
                 .project_constant = true});
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 31);
}

}  // namespace
}  // namespace hicond
