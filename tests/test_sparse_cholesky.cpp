#include "hicond/la/sparse_cholesky.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

CsrMatrix spd_from_graph(const Graph& g, double shift) {
  // Laplacian + shift * I is SPD.
  CsrMatrix m = csr_laplacian(g);
  for (vidx i = 0; i < m.rows; ++i) {
    for (eidx k = m.offsets[static_cast<std::size_t>(i)];
         k < m.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      if (m.col_idx[static_cast<std::size_t>(k)] == i) {
        m.values[static_cast<std::size_t>(k)] += shift;
      }
    }
  }
  return m;
}

TEST(SparseLdl, SolvesShiftedLaplacian) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 3.0), 3);
  const CsrMatrix a = spd_from_graph(g, 0.5);
  const SparseLDL f = SparseLDL::factor(a);
  Rng rng(7);
  std::vector<double> x_true(64);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  std::vector<double> b(64);
  a.multiply(x_true, b);
  const auto x = f.solve(b);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(SparseLdl, RejectsIndefinite) {
  // Pure Laplacian is singular: last pivot hits zero (or negative).
  const Graph g = gen::path(5);
  const CsrMatrix a = csr_laplacian(g);
  EXPECT_THROW((void)SparseLDL::factor(a), numeric_error);
}

TEST(ComputeOrdering, IsAPermutation) {
  const Graph g = gen::random_planar_triangulation(60, gen::WeightSpec::unit(), 2);
  const CsrMatrix a = spd_from_graph(g, 1.0);
  auto p = compute_ordering(a);
  std::sort(p.begin(), p.end());
  for (vidx i = 0; i < 60; ++i) {
    EXPECT_EQ(p[static_cast<std::size_t>(i)], i);
  }
}

TEST(LaplacianDirectSolver, SolvesPseudoSystem) {
  const Graph g = gen::grid3d(4, 4, 3, gen::WeightSpec::uniform(0.5, 5.0), 9);
  const vidx n = g.num_vertices();
  const LaplacianDirectSolver solver(g);
  Rng rng(5);
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(x_true);
  std::vector<double> b(static_cast<std::size_t>(n));
  g.laplacian_apply(x_true, b);
  const auto x = solver.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(LaplacianDirectSolver, OutputIsMeanFree) {
  const Graph g = gen::random_tree(40, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const LaplacianDirectSolver solver(g);
  Rng rng(11);
  std::vector<double> b(40);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  const auto x = solver.solve(b);
  double sum = 0.0;
  for (double v : x) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(LaplacianDirectSolver, SingleVertexGraph) {
  const Graph g(1);
  const LaplacianDirectSolver solver(g);
  const std::vector<double> b{0.0};
  EXPECT_EQ(solver.solve(b), std::vector<double>{0.0});
}

TEST(LaplacianDirectSolver, LargeGridAccuracy) {
  const Graph g = gen::grid2d(30, 30, gen::WeightSpec::uniform(1.0, 10.0), 17);
  const LaplacianDirectSolver solver(g);
  Rng rng(3);
  std::vector<double> x_true(900);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(x_true);
  std::vector<double> b(900);
  g.laplacian_apply(x_true, b);
  std::vector<double> x(900);
  solver.apply(b, x);
  EXPECT_LT(la::max_abs_diff(x, x_true), 1e-7);
}

}  // namespace
}  // namespace hicond
