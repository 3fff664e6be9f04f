// Cross-validation tests: identities that tie several modules together
// against closed-form theory (CG convergence bounds, spectral expansions of
// random walks, pipeline-level guarantees).
#include <gtest/gtest.h>

#include <cmath>

#include "hicond/graph/generators.hpp"
#include "hicond/la/cg.hpp"
#include "hicond/la/dense_eigen.hpp"
#include "hicond/la/lanczos.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/planar.hpp"
#include "hicond/precond/schur.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/spectral/normalized.hpp"
#include "hicond/spectral/random_walk.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

TEST(CrossValidation, PcgIterationsRespectConditionNumberBound) {
  // Classic CG bound: after k iterations the energy-norm error shrinks by
  // 2 ((sqrt(kappa)-1)/(sqrt(kappa)+1))^k; the residual-based iteration
  // count must therefore stay below sqrt(kappa)/2 * ln(2/tol) + slack.
  const Graph g = gen::oct_volume(8, 8, 8, {.field_orders = 2.5}, 3);
  const vidx n = g.num_vertices();
  const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 4});
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(g, fd.decomposition);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  const double kappa =
      condition_number_estimate(a, sp.as_operator(), n, 40, 7);
  const double tol = 1e-8;
  Rng rng(5);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const auto stats = pcg_solve(a, sp.as_operator(), b, x,
                               {.max_iterations = 5000, .rel_tolerance = tol,
                                .project_constant = true});
  ASSERT_TRUE(stats.converged);
  // Residual-based stopping adds a sqrt(kappa) factor over the energy-norm
  // bound in the worst case; fold it into the log term plus slack.
  const double bound =
      0.5 * std::sqrt(kappa) *
          std::log(2.0 / tol * std::sqrt(std::max(kappa, 1.0))) + 5.0;
  EXPECT_LE(stats.iterations, bound);
}

TEST(CrossValidation, RandomWalkMatchesSpectralExpansion) {
  // P^t = D^{1/2} (I - A_hat)^t D^{-1/2}: reconstruct a 6-step distribution
  // from the dense normalized-Laplacian eigendecomposition.
  const Graph g = gen::random_planar_triangulation(
      15, gen::WeightSpec::uniform(1.0, 3.0), 7);
  const vidx n = 15;
  const int t = 6;
  const vidx source = 4;
  const auto walk = random_walk_distribution(g, source, t);
  const auto eig = normalized_spectrum(g);
  std::vector<double> reconstructed(static_cast<std::size_t>(n), 0.0);
  for (vidx j = 0; j < n; ++j) {
    const double mu = 1.0 - eig.values[static_cast<std::size_t>(j)];
    const double mu_t = std::pow(mu, t);
    // coefficient of eigenvector j in D^{-1/2} e_source.
    const double coef =
        eig.vectors(source, j) / std::sqrt(g.vol(source));
    for (vidx v = 0; v < n; ++v) {
      reconstructed[static_cast<std::size_t>(v)] +=
          mu_t * coef * eig.vectors(v, j) * std::sqrt(g.vol(v));
    }
  }
  for (vidx v = 0; v < n; ++v) {
    EXPECT_NEAR(walk[static_cast<std::size_t>(v)],
                reconstructed[static_cast<std::size_t>(v)], 1e-9);
  }
}

class PlanarSeedSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanarSeedSweep, PhiRhoProductBoundedBelow) {
  // Theorem 2.2's phi * rho = Theta(1): across random planar instances the
  // product stays above a fixed floor.
  const Graph a = gen::random_planar_triangulation(
      250, gen::WeightSpec::uniform(1.0, 3.0), GetParam());
  PlanarDecompOptions opt;
  opt.measure_k = false;
  const auto result = planar_decomposition(a, opt);
  const auto stats = evaluate_decomposition(a, result.decomposition);
  EXPECT_GT(stats.min_phi_lower * stats.reduction_factor, 0.02)
      << "seed " << GetParam();
  EXPECT_GT(stats.reduction_factor, 1.5) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanarSeedSweep,
                         testing::Values(11, 12, 13, 14, 15, 16));

TEST(CrossValidation, SteinerSupportSandwich) {
  // 1/3 <= lambda(B_S, A) <= 3(1 + 2/phi^3): both Theorem 3.5 directions on
  // one pencil, with everything measured.
  const Graph a = gen::grid2d(5, 4, gen::WeightSpec::lognormal(0.0, 1.0), 13);
  const auto fd = fixed_degree_decomposition(a, {.max_cluster_size = 3});
  const auto eig = generalized_eigen_laplacian(
      steiner_schur_complement_dense(a, fd.decomposition),
      dense_laplacian(a));
  EXPECT_GE(eig.values.front(), 1.0 / 3.0 - 1e-9);
  EXPECT_GT(eig.values.back(), eig.values.front());
}

}  // namespace
}  // namespace hicond
