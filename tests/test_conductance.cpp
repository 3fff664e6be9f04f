#include "hicond/graph/conductance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "hicond/graph/closure.hpp"
#include "hicond/graph/generators.hpp"

namespace hicond {
namespace {

/// conductance_bounds(g), asserted exact.
double exact_conductance(const Graph& g) {
  const ConductanceBounds b = conductance_bounds(g);
  EXPECT_TRUE(b.exact);
  EXPECT_EQ(b.lower, b.upper);
  return b.lower;
}

/// closure_conductance_bounds(g, cluster), asserted exact.
double exact_closure_conductance(const Graph& g,
                                 std::span<const vidx> cluster) {
  const ConductanceBounds b = closure_conductance_bounds(g, cluster);
  EXPECT_TRUE(b.exact);
  EXPECT_EQ(b.lower, b.upper);
  return b.lower;
}

TEST(CutSparsity, SingleVertexCut) {
  const Graph g = gen::path(3);  // unit weights
  std::vector<char> s{1, 0, 0};
  EXPECT_DOUBLE_EQ(cut_sparsity(g, s), 1.0);  // cap 1 / vol 1
}

TEST(CutSparsity, MiddleCutOfPath) {
  const Graph g = gen::path(4);
  std::vector<char> s{1, 1, 0, 0};
  // cap = 1, vol each side = 3.
  EXPECT_DOUBLE_EQ(cut_sparsity(g, s), 1.0 / 3.0);
}

TEST(CutSparsity, DegenerateCutIsInfinite) {
  const Graph g = gen::path(3);
  std::vector<char> all{1, 1, 1};
  EXPECT_EQ(cut_sparsity(g, all), kInfiniteConductance);
  std::vector<char> none{0, 0, 0};
  EXPECT_EQ(cut_sparsity(g, none), kInfiniteConductance);
}

TEST(ConductanceExact, CompleteGraphIsWellConnected) {
  // K_4 unit: conductance = min over cuts; balanced cut: cap 4 / vol 6 = 2/3.
  const Graph g = gen::complete(4);
  EXPECT_NEAR(exact_conductance(g), 2.0 / 3.0, 1e-12);
}

TEST(ConductanceExact, StarIsOne) {
  const Graph g = gen::star(7, gen::WeightSpec::uniform(0.5, 4.0), 3);
  EXPECT_NEAR(exact_conductance(g), 1.0, 1e-12);
}

TEST(ConductanceExact, UnitPathMiddleCut) {
  const Graph g = gen::path(6);
  // Balanced middle cut: cap 1, each side vol 5.
  EXPECT_NEAR(exact_conductance(g), 1.0 / 5.0, 1e-12);
}

TEST(ConductanceExact, DisconnectedIsZero) {
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {2, 3, 1.0}};
  const Graph g(4, edges);
  EXPECT_DOUBLE_EQ(exact_conductance(g), 0.0);
}

TEST(ConductanceExact, TinyGraphsAreInfinite) {
  EXPECT_EQ(exact_conductance(Graph(1)), kInfiniteConductance);
  EXPECT_EQ(exact_conductance(Graph(0)), kInfiniteConductance);
}

TEST(ConductanceExact, TwoVertexGraphIsOne) {
  std::vector<WeightedEdge> edges{{0, 1, 5.0}};
  EXPECT_DOUBLE_EQ(exact_conductance(Graph(2, edges)), 1.0);
}

TEST(ConductanceExact, WeightedBottleneck) {
  // Two unit triangles joined by a light edge: conductance set by the
  // bottleneck cut, cap = eps over one triangle's volume 6 + eps.
  const double eps = 0.01;
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0},
                                  {3, 4, 1.0}, {4, 5, 1.0}, {3, 5, 1.0},
                                  {2, 3, eps}};
  const Graph g(6, edges);
  EXPECT_NEAR(exact_conductance(g), eps / (6.0 + eps), 1e-12);
}

TEST(ConductanceExact, RejectsTooLarge) {
  // The exact evaluator enumerates 2^(k-1) bipartitions and stops at 24
  // members; a 25-member cluster is refused rather than enumerated.
  const Graph g = gen::grid2d(5, 5);
  std::vector<vidx> all(25);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<vidx>(i);
  EXPECT_THROW((void)closure_conductance(g, all), invalid_argument_error);
  // The bounds fall back to Cheeger and the sweep instead.
  EXPECT_FALSE(closure_conductance_bounds(g, all).exact);
}

TEST(ConductanceSweep, IsUpperBoundOfExact) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = gen::random_planar_triangulation(
        14, gen::WeightSpec::uniform(0.2, 5.0), seed);
    const double exact = exact_conductance(g);
    // Sweep by vertex id (arbitrary order): still an upper bound.
    std::vector<double> score(14);
    for (std::size_t i = 0; i < score.size(); ++i) {
      score[i] = static_cast<double>(i);
    }
    EXPECT_GE(conductance_sweep(g, score) + 1e-12, exact) << "seed " << seed;
  }
}

TEST(ConductanceSpectralSweep, NearExactOnDumbbell) {
  const double eps = 0.05;
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0},
                                  {3, 4, 1.0}, {4, 5, 1.0}, {3, 5, 1.0},
                                  {2, 3, eps}};
  const Graph g(6, edges);
  const double exact = exact_conductance(g);
  const double sweep = conductance_spectral_upper(g);
  EXPECT_GE(sweep + 1e-12, exact);
  EXPECT_NEAR(sweep, exact, 1e-9);  // the Fiedler sweep finds this cut
}

TEST(CheegerBound, SandwichesExactConductance) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g =
        gen::grid2d(4, 4, gen::WeightSpec::uniform(0.5, 2.0), seed);
    const double exact = exact_conductance(g);
    const double lower = cheeger_lower_bound(g);
    const double upper = conductance_spectral_upper(g);
    EXPECT_LE(lower, exact + 1e-12) << "seed " << seed;
    EXPECT_GE(upper + 1e-12, exact) << "seed " << seed;
  }
}

TEST(Lambda2, PathAsymptoticallySmall) {
  const double l2_short = lambda2_normalized(gen::path(8));
  const double l2_long = lambda2_normalized(gen::path(64));
  EXPECT_GT(l2_short, l2_long);
  EXPECT_GT(l2_long, 0.0);
}

TEST(Lambda2, CompleteGraphValue) {
  // Normalized Laplacian of K_n has eigenvalue n/(n-1) with multiplicity n-1.
  const Graph g = gen::complete(6);
  EXPECT_NEAR(lambda2_normalized(g), 6.0 / 5.0, 1e-9);
}

TEST(Lambda2, LargeGraphEstimateClose) {
  // Compare the power-iteration path (n > 600) against the dense value on a
  // torus where both are computable: build 26x26 = 676 vertices.
  const Graph g = gen::torus2d(26, 26);
  const double approx = lambda2_normalized(g);  // uses power iteration
  // Dense reference on the same graph via a forced small computation is not
  // possible here; check against the known 2D torus value
  // lambda_2 = (2 - 2 cos(2 pi / n)) / 4 per dimension on unit weights.
  const double expected = (2.0 - 2.0 * std::cos(2.0 * std::numbers::pi / 26)) / 4.0;
  EXPECT_NEAR(approx, expected, expected * 0.2);
}

TEST(ConductanceBounds, ExactForSmall) {
  const Graph g = gen::complete(5);
  const auto b = conductance_bounds(g);
  EXPECT_TRUE(b.exact);
  EXPECT_DOUBLE_EQ(b.lower, b.upper);
}

TEST(ConductanceBounds, BracketsForLarge) {
  const Graph g = gen::grid2d(10, 10, gen::WeightSpec::uniform(1.0, 2.0), 4);
  const auto b = conductance_bounds(g);
  EXPECT_FALSE(b.exact);
  EXPECT_LE(b.lower, b.upper);
  EXPECT_GT(b.lower, 0.0);
}

TEST(ConductanceBounds, DisconnectedIsZero) {
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {2, 3, 1.0}};
  const Graph g(4, edges);
  const auto b = conductance_bounds(g);
  EXPECT_TRUE(b.exact);
  EXPECT_DOUBLE_EQ(b.lower, 0.0);
}

// Closure conductance values used throughout the paper's case analyses.
TEST(ClosureConductance, PairWithOneSidedBoundaryIsOne) {
  // Cluster {b, c} of path a-b-c: closure has conductance 1.
  const Graph g = gen::path(3);
  const std::vector<vidx> cluster{1, 2};
  EXPECT_NEAR(exact_closure_conductance(g, cluster), 1.0, 1e-12);
}

TEST(ClosureConductance, PairWithTwoSidedBoundary) {
  // Path a-b-c-d, cluster {b, c}: closure conductance = w/(w + 2 min(a,b)).
  std::vector<WeightedEdge> edges{{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 1.0}};
  const Graph g(4, edges);
  const std::vector<vidx> cluster{1, 2};
  EXPECT_NEAR(exact_closure_conductance(g, cluster),
              3.0 / (3.0 + 2.0 * 1.0), 1e-12);
}

TEST(ClosureConductance, SpiderWithEqualWeights) {
  // Critical-cluster shape: center with two 2-paths, unit weights. The cut
  // isolating one path has sparsity 1/3 (see Theorem 2.1 discussion).
  const Graph g = gen::spider(2, 2);
  const std::vector<vidx> cluster{0, 1, 3};  // center + inner legs
  EXPECT_NEAR(exact_closure_conductance(g, cluster), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace hicond
