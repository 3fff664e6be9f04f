// Robustness and failure-injection tests: extreme weight ranges, thread
// count independence, near-degenerate structures, and the documented error
// paths of the public API.
#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>

#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/precond/support.hpp"
#include "hicond/solver.hpp"
#include "hicond/tree/low_stretch.hpp"
#include "hicond/tree/mst.hpp"
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

TEST(Robustness, ExtremeWeightRatiosStillSolve) {
  // 12 orders of magnitude of weight variation.
  const Graph g = gen::grid2d(12, 12, gen::WeightSpec::lognormal(0.0, 4.5), 3);
  double w_min = 1e300;
  double w_max = 0.0;
  for (const auto& e : g.edge_list()) {
    w_min = std::min(w_min, e.weight);
    w_max = std::max(w_max, e.weight);
  }
  ASSERT_GT(w_max / w_min, 1e8);
  const LaplacianSolver solver(g);
  const auto b = mean_free_rhs(144, 1);
  const auto x = solver.solve(b);
  std::vector<double> check(144);
  g.laplacian_apply(x, check);
  // Relative accuracy against the rhs scale.
  EXPECT_LT(la::max_abs_diff(check, b), 1e-6 * la::norm2(b));
}

TEST(Robustness, TinyAbsoluteWeights) {
  std::vector<WeightedEdge> edges;
  for (vidx v = 0; v + 1 < 20; ++v) {
    edges.push_back({v, static_cast<vidx>(v + 1), 1e-30 * (1.0 + v)});
  }
  const Graph g(20, edges);
  const auto fd = fixed_degree_decomposition(g);
  fd.decomposition.validate(g);
  const auto stats = evaluate_decomposition(g, fd.decomposition);
  EXPECT_GT(stats.min_phi_lower, 0.0);
}

TEST(Robustness, DecompositionDeterministicAcrossThreadCounts) {
  // The counter-based per-edge randomness must make the Section 3.1 passes
  // thread-count independent.
  const Graph g = gen::oct_volume(8, 8, 8, {}, 5);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto fd1 = fixed_degree_decomposition(g, {.seed = 3});
  omp_set_num_threads(4);
  const auto fd4 = fixed_degree_decomposition(g, {.seed = 3});
  omp_set_num_threads(saved);
  EXPECT_EQ(fd1.decomposition.assignment, fd4.decomposition.assignment);
  EXPECT_EQ(fd1.perturbed_forest.edge_list(),
            fd4.perturbed_forest.edge_list());
}

TEST(Robustness, SolveDeterministicAcrossThreadCounts) {
  const Graph g = gen::grid2d(10, 10, gen::WeightSpec::uniform(1.0, 2.0), 7);
  const auto b = mean_free_rhs(100, 2);
  const int saved = omp_get_max_threads();
  auto run = [&]() {
    const LaplacianSolver solver(g);
    return solver.solve(b);
  };
  omp_set_num_threads(1);
  const auto x1 = run();
  omp_set_num_threads(3);
  const auto x3 = run();
  omp_set_num_threads(saved);
  // Identical up to floating-point reduction-order noise.
  EXPECT_LT(la::max_abs_diff(x1, x3), 1e-9);
}

TEST(Robustness, NearDisconnectedBridge) {
  // Two dense blocks joined by a 1e-12 bridge: conductance ~ 0 but the
  // graph is connected -- everything must still run.
  std::vector<WeightedEdge> edges;
  for (vidx c = 0; c < 2; ++c) {
    for (vidx i = 0; i < 8; ++i) {
      for (vidx j = i + 1; j < 8; ++j) {
        edges.push_back({static_cast<vidx>(c * 8 + i),
                         static_cast<vidx>(c * 8 + j), 1.0});
      }
    }
  }
  edges.push_back({0, 8, 1e-12});
  const Graph g(16, edges);
  const auto fd = fixed_degree_decomposition(g);
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(g, fd.decomposition);
  const auto b = mean_free_rhs(16, 3);
  std::vector<double> z(16);
  sp.apply(b, z);
  for (double v : z) EXPECT_TRUE(std::isfinite(v));
}

TEST(Robustness, StarWithMillionToOneWeights) {
  std::vector<WeightedEdge> edges;
  for (vidx v = 1; v < 30; ++v) {
    edges.push_back({0, v, v % 2 == 0 ? 1e6 : 1.0});
  }
  const Graph g(30, edges);
  const LaplacianSolver solver(g);
  const auto b = mean_free_rhs(30, 4);
  const auto x = solver.solve(b);
  std::vector<double> check(30);
  g.laplacian_apply(x, check);
  EXPECT_LT(la::max_abs_diff(check, b), 1e-6 * la::norm2(b));
}

TEST(Robustness, EffectiveResistanceMatchesSeriesParallelRules) {
  // Path: resistances add. Two parallel unit edges... use a cycle of 4 unit
  // edges: R_eff over opposite corners = (2 in series) || (2 in series) = 1.
  const Graph cyc = gen::cycle(4);
  const LaplacianSolver s1(cyc);
  EXPECT_NEAR(s1.effective_resistance(0, 2), 1.0, 1e-8);
  // Path of 3 unit edges: R_eff(end, end) = 3.
  const Graph p = gen::path(4);
  const LaplacianSolver s2(p);
  EXPECT_NEAR(s2.effective_resistance(0, 3), 3.0, 1e-8);
  EXPECT_THROW((void)s2.effective_resistance(1, 1), invalid_argument_error);
}

TEST(Robustness, TreeSupportBoundedByTotalStretch) {
  // [Spielman-Woo]: lambda_max(L_T^+ L_G) <= total stretch of G w.r.t. T.
  // Our average_stretch * m gives the total; the exact support must sit
  // below it.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = gen::random_planar_triangulation(
        24, gen::WeightSpec::uniform(1.0, 3.0), seed);
    const Graph t = max_spanning_forest_kruskal(g);
    const double total_stretch =
        average_stretch(g, t) * static_cast<double>(g.num_edges());
    EXPECT_LE(support_sigma_dense(g, t), total_stretch + 1e-9)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace hicond
