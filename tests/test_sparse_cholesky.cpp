#include "hicond/la/sparse_cholesky.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "hicond/graph/builder.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

/// g plus one ground vertex, the last, joined to every vertex of g with
/// weight `shift`: its Laplacian grounded there is exactly L(g) + shift I.
Graph with_shift_ground(const Graph& g, double shift) {
  GraphBuilder b(g.num_vertices() + 1);
  for (const auto& e : g.edge_list()) b.add_edge(e.u, e.v, e.weight);
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    b.add_edge(v, g.num_vertices(), shift);
  }
  return b.build();
}

TEST(SparseLdl, SolvesShiftedLaplacian) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 3.0), 3);
  const SparseLDL f = SparseLDL::factor(with_shift_ground(g, 0.5), 64);
  ASSERT_EQ(f.dim(), 64);
  Rng rng(7);
  std::vector<double> x_true(64);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  std::vector<double> b(64);
  g.laplacian_apply(x_true, b);
  for (std::size_t i = 0; i < 64; ++i) b[i] += 0.5 * x_true[i];
  const auto x = f.solve(b);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(SparseLdl, RejectsIndefinite) {
  // Grounding one of two unit-weight components leaves the other's
  // Laplacian singular: its last pivot is exactly 0.
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 2, 1.0}, {3, 4, 1.0}};
  const Graph g(5, edges);
  EXPECT_THROW((void)SparseLDL::factor(g, 0), numeric_error);
}

TEST(ComputeOrdering, IsAPermutation) {
  const Graph g = gen::random_planar_triangulation(60, gen::WeightSpec::unit(), 2);
  auto p = compute_ordering(g, 17);
  ASSERT_EQ(p.size(), 59u);
  std::sort(p.begin(), p.end());
  for (vidx i = 0; i < 59; ++i) {
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

/// FNV-1a 64 of the length and the bytes of `values`, folded into `h`.
std::uint64_t fnv_fold(std::uint64_t h, const std::vector<double>& values) {
  const auto n = static_cast<std::uint64_t>(values.size());
  const auto fold = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  fold(&n, sizeof n);
  fold(values.data(), values.size() * sizeof(double));
  return h;
}

std::vector<double> mean_free_rhs(vidx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  return b;
}

TEST(LaplacianDirectSolver, SolveBitsMatchPinnedConstants) {
  // Pinned constants: a change to the ordering or to the factorization must
  // reproduce these bits exactly. Three inputs: a weighted OCT volume, whose
  // equal-degree rows give RCM many ties; a grid whose maximum-volume
  // vertex, the grounded one, is a hub adjacent to most rows; and a
  // Steiner preconditioner apply, which runs its quotient solve.
  const Graph oct = gen::oct_volume(16, 16, 12, {}, 5);
  const LaplacianDirectSolver oct_solver(oct);
  const Graph grid = gen::grid2d(20, 20, gen::WeightSpec::uniform(1.0, 4.0), 7);
  GraphBuilder hub_builder(grid.num_vertices() + 1);
  for (const auto& e : grid.edge_list()) hub_builder.add_edge(e.u, e.v, e.weight);
  for (vidx v = 0; v < grid.num_vertices(); ++v) {
    if (v % 5 != 0) {
      hub_builder.add_edge(grid.num_vertices(), v,
                           0.5 + 0.25 * static_cast<double>(v % 7));
    }
  }
  const Graph hub = hub_builder.build();
  const LaplacianDirectSolver hub_solver(hub);
  const Graph a = gen::oct_volume(12, 12, 10, {}, 9);
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(a, fixed_degree_decomposition(a).decomposition);
  constexpr std::uint64_t kOct = 0xb21f4e37cf94bc04ULL;
  constexpr std::uint64_t kHub = 0x7cb413ddc38e7fc6ULL;
  constexpr std::uint64_t kSteiner = 0x9099286126042794ULL;
  const int ambient = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    const std::uint64_t oct_hash =
        fnv_fold(0xcbf29ce484222325ULL,
                 oct_solver.solve(mean_free_rhs(oct.num_vertices(), 11)));
    const std::uint64_t hub_hash =
        fnv_fold(0xcbf29ce484222325ULL,
                 hub_solver.solve(mean_free_rhs(hub.num_vertices(), 13)));
    std::vector<double> z(static_cast<std::size_t>(a.num_vertices()));
    sp.apply(mean_free_rhs(a.num_vertices(), 17), z);
    const std::uint64_t steiner_hash = fnv_fold(0xcbf29ce484222325ULL, z);
    EXPECT_EQ(oct_hash, kOct) << std::hex << oct_hash
                              << " threads=" << std::dec << threads;
    EXPECT_EQ(hub_hash, kHub) << std::hex << hub_hash
                              << " threads=" << std::dec << threads;
    EXPECT_EQ(steiner_hash, kSteiner) << std::hex << steiner_hash
                                      << " threads=" << std::dec << threads;
  }
  omp_set_num_threads(ambient);
}

}  // namespace
}  // namespace hicond
