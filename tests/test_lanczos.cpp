#include "hicond/la/lanczos.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/generators.hpp"
#include "hicond/la/dense.hpp"
#include "hicond/la/dense_eigen.hpp"
#include "hicond/la/sparse_cholesky.hpp"

namespace hicond {
namespace {

LinearOperator laplacian_op(const Graph& g) {
  return [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
}

TEST(PencilExtremes, SelfPencilIsOne) {
  const Graph g = gen::grid2d(5, 5, gen::WeightSpec::uniform(1.0, 2.0), 2);
  const LaplacianDirectSolver solver(g);
  auto solve = [&solver](std::span<const double> r, std::span<double> z) {
    solver.apply(r, z);
  };
  const auto ext = lanczos_pencil_extremes(laplacian_op(g), solve, 25, 20);
  EXPECT_NEAR(ext.lambda_max, 1.0, 1e-8);
  EXPECT_NEAR(ext.lambda_min, 1.0, 1e-8);
}

TEST(PencilExtremes, ScaledPencil) {
  const Graph ga = gen::grid2d(5, 4, gen::WeightSpec::uniform(1.0, 2.0), 3);
  // B = A / 3 -> lambda(A, B) = 3 everywhere.
  std::vector<WeightedEdge> scaled;
  for (const auto& e : ga.edge_list()) {
    scaled.push_back({e.u, e.v, e.weight / 3.0});
  }
  const Graph gb(20, scaled);
  const LaplacianDirectSolver solver(gb);
  auto solve = [&solver](std::span<const double> r, std::span<double> z) {
    solver.apply(r, z);
  };
  const auto ext = lanczos_pencil_extremes(laplacian_op(ga), solve, 20, 19);
  EXPECT_NEAR(ext.lambda_max, 3.0, 1e-7);
  EXPECT_NEAR(ext.lambda_min, 3.0, 1e-7);
}

TEST(PencilExtremes, MatchesDenseGeneralizedEigen) {
  const Graph a =
      gen::random_planar_triangulation(24, gen::WeightSpec::uniform(1, 4), 9);
  // B = maximum spanning tree skeleton: every A-edge supported by B paths.
  std::vector<WeightedEdge> tree_edges;
  {
    // Greedy: keep the first spanning set in edge order (BFS tree).
    std::vector<char> seen(24, 0);
    seen[0] = 1;
    bool progress = true;
    while (progress) {
      progress = false;
      for (const auto& e : a.edge_list()) {
        if (seen[static_cast<std::size_t>(e.u)] !=
            seen[static_cast<std::size_t>(e.v)]) {
          tree_edges.push_back(e);
          seen[static_cast<std::size_t>(e.u)] = 1;
          seen[static_cast<std::size_t>(e.v)] = 1;
          progress = true;
        }
      }
    }
  }
  const Graph b(24, tree_edges);
  const LaplacianDirectSolver solver(b);
  auto solve = [&solver](std::span<const double> r, std::span<double> z) {
    solver.apply(r, z);
  };
  const auto ext = lanczos_pencil_extremes(laplacian_op(a), solve, 24, 23);
  const auto eig =
      generalized_eigen_laplacian(dense_laplacian(a), dense_laplacian(b));
  EXPECT_NEAR(ext.lambda_max, eig.values.back(),
              eig.values.back() * 1e-5);
  EXPECT_NEAR(ext.lambda_min, eig.values.front(), 1e-5);
}

double dense_sigma(const Graph& a, const Graph& b) {
  return lambda_max_laplacian_pencil(dense_laplacian(a), dense_laplacian(b));
}

TEST(ConditionNumber, SubgraphPencilAtLeastOneSided) {
  // For a subgraph B of A: lambda_min(A,B) >= 1, so kappa >= lambda_max.
  const Graph a = gen::grid2d(5, 5, gen::WeightSpec::uniform(1.0, 2.0), 8);
  std::vector<WeightedEdge> tree_edges;
  std::vector<char> seen(25, 0);
  seen[0] = 1;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& e : a.edge_list()) {
      if (seen[static_cast<std::size_t>(e.u)] !=
          seen[static_cast<std::size_t>(e.v)]) {
        tree_edges.push_back(e);
        seen[static_cast<std::size_t>(e.u)] = 1;
        seen[static_cast<std::size_t>(e.v)] = 1;
        progress = true;
      }
    }
  }
  const Graph b(25, tree_edges);
  const LaplacianDirectSolver solver(b);
  auto solve = [&solver](std::span<const double> r, std::span<double> z) {
    solver.apply(r, z);
  };
  const double kappa =
      condition_number_estimate(laplacian_op(a), solve, 25, 24);
  const double sigma = dense_sigma(a, b);
  EXPECT_GE(kappa, sigma * (1.0 - 1e-6));
}

}  // namespace
}  // namespace hicond
