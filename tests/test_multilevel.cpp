#include "hicond/precond/multilevel.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <cstring>

#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/solver.hpp"
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

/// The V-cycle written out from public pieces, one column at a time, in the
/// arithmetic order apply_block has always used: a damped-Jacobi sweep
/// (omega = 0.7) from z = 0, residual r - A z, restriction by
/// ascending-member cluster sums, the recursive coarse correction,
/// prolongation z += zc[assign], and a second sweep; a mean projection per
/// column. apply_block must match it bit for bit.
class ReferenceCycle {
 public:
  explicit ReferenceCycle(const LaminarHierarchy& h) : h_(h) {
    for (const auto& lv : h.levels) {
      const Graph& a = lv.graph;
      std::vector<double> inv(static_cast<std::size_t>(a.num_vertices()));
      for (vidx v = 0; v < a.num_vertices(); ++v) {
        inv[static_cast<std::size_t>(v)] = a.vol(v) > 0.0 ? 1.0 / a.vol(v)
                                                          : 0.0;
      }
      inv_.push_back(std::move(inv));
      index_.push_back(ClusterIndex::build(lv.decomposition.assignment,
                                           lv.decomposition.num_clusters));
    }
    if (h.coarsest.num_vertices() > 1) {
      direct_ = std::make_unique<LaplacianDirectSolver>(h.coarsest);
    }
  }

  [[nodiscard]] std::vector<double> apply(const std::vector<double>& r,
                                          int k) const {
    const std::size_t n = r.size() / static_cast<std::size_t>(k);
    std::vector<double> z(r.size());
    for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j) {
      const std::vector<double> rj(r.begin() + static_cast<long>(j * n),
                                   r.begin() + static_cast<long>((j + 1) * n));
      std::vector<double> zj = cycle(0, rj);
      la::remove_mean(zj);
      std::copy(zj.begin(), zj.end(), z.begin() + static_cast<long>(j * n));
    }
    return z;
  }

 private:
  static std::vector<double> residual(const Graph& a,
                                      const std::vector<double>& r,
                                      const std::vector<double>& z) {
    std::vector<double> az(z.size());
    a.laplacian_apply_block(z, az, 1);
    for (std::size_t i = 0; i < z.size(); ++i) az[i] = r[i] - az[i];
    return az;
  }

  void smooth(int level, const std::vector<double>& r,
              std::vector<double>& z) const {
    const auto l = static_cast<std::size_t>(level);
    std::vector<double> az(z.size());
    h_.levels[l].graph.laplacian_apply_block(z, az, 1);
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] += 0.7 * inv_[l][i] * (r[i] - az[i]);
    }
  }

  [[nodiscard]] std::vector<double> cycle(int level,
                                          const std::vector<double>& r) const {
    std::vector<double> z(r.size(), 0.0);
    if (level == h_.num_levels()) {
      if (direct_ != nullptr) direct_->apply(r, z);
      return z;
    }
    const auto l = static_cast<std::size_t>(level);
    const HierarchyLevel& lv = h_.levels[l];
    smooth(level, r, z);
    const std::vector<double> res = residual(lv.graph, r, z);
    std::vector<double> rc(
        static_cast<std::size_t>(lv.decomposition.num_clusters));
    index_[l].restrict_sum(res, rc);
    const std::vector<double> zc = cycle(level + 1, rc);
    for (std::size_t v = 0; v < z.size(); ++v) {
      z[v] += zc[static_cast<std::size_t>(lv.decomposition.assignment[v])];
    }
    smooth(level, r, z);
    return z;
  }

  const LaminarHierarchy& h_;
  std::vector<std::vector<double>> inv_;
  std::vector<ClusterIndex> index_;
  std::unique_ptr<LaplacianDirectSolver> direct_;
};

/// k random columns of length n, column-major, not mean-free.
std::vector<double> random_block(vidx n, int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(k));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Multilevel, ApplyBlockMatchesReferenceCycleBitwise) {
  const Graph g = gen::grid2d(20, 20, gen::WeightSpec::uniform(1.0, 4.0), 13);
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 24});
  ASSERT_GE(h.num_levels(), 2);
  const int ambient = omp_get_max_threads();
  const MultilevelSteinerSolver s = MultilevelSteinerSolver::build(h);
  const ReferenceCycle reference(h);
  for (const int k : {1, 3, 9}) {
    const auto r = random_block(g.num_vertices(), k,
                                static_cast<std::uint64_t>(100 + k));
    const std::vector<double> expected = reference.apply(r, k);
    for (const int threads : {1, 4}) {
      omp_set_num_threads(threads);
      std::vector<double> z(r.size());
      s.apply_block(r, z, k);
      EXPECT_TRUE(bitwise_equal(z, expected))
          << "k=" << k << " threads=" << threads;
    }
    omp_set_num_threads(ambient);
  }
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

TEST(Multilevel, DefaultCycleBitsMatchPinnedConstants) {
  // Pinned constants, not a comparison against ReferenceCycle: a change to
  // the cycle or to its reference must reproduce these bits exactly. One
  // hash folds apply_block at k = 1 and 3 on the 20x20 grid; the other a
  // full solve on a grid with a two-level hierarchy.
  const Graph g = gen::grid2d(20, 20, gen::WeightSpec::uniform(1.0, 4.0), 13);
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 24}));
  ASSERT_GE(s.num_levels(), 2);
  const Graph small =
      gen::grid2d(16, 16, gen::WeightSpec::uniform(1.0, 4.0), 29);
  const LaplacianSolver solver(small, {.hierarchy = {.coarsest_size = 40}});
  ASSERT_EQ(solver.num_levels(), 2);
  const std::vector<double> b = mean_free_rhs(small.num_vertices(), 31);
  constexpr std::uint64_t kApply = 0x2429bae4abefae9dULL;
  constexpr std::uint64_t kSolve = 0xe8947bf670d31f1bULL;
  const int ambient = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    std::uint64_t apply_hash = 0xcbf29ce484222325ULL;
    for (const int k : {1, 3}) {
      const auto r = random_block(g.num_vertices(), k,
                                  static_cast<std::uint64_t>(100 + k));
      std::vector<double> z(r.size());
      s.apply_block(r, z, k);
      apply_hash = fnv_fold(apply_hash, z);
    }
    const std::uint64_t solve_hash =
        fnv_fold(0xcbf29ce484222325ULL, solver.solve(b));
    EXPECT_EQ(apply_hash, kApply) << std::hex << apply_hash
                                  << " threads=" << std::dec << threads;
    EXPECT_EQ(solve_hash, kSolve) << std::hex << solve_hash
                                  << " threads=" << std::dec << threads;
  }
  omp_set_num_threads(ambient);
}

TEST(Multilevel, OperatorWorkspaceReuseMatchesFreshApply) {
  const Graph g = gen::grid2d(18, 18, gen::WeightSpec::uniform(1.0, 3.0), 19);
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 24});
  ASSERT_GE(h.num_levels(), 2);
  const vidx n = g.num_vertices();
  const MultilevelSteinerSolver s = MultilevelSteinerSolver::build(h);
  // One block operator across changing widths: buffers sized for k = 8
  // then reused (shrunk views) at 3, grown at 9, reused at 1.
  const BlockOperator op = s.as_block_operator();
  std::uint64_t seed = 200;
  for (const int k : {8, 3, 9, 1}) {
    const auto r = random_block(n, k, ++seed);
    std::vector<double> fresh(r.size());
    s.apply_block(r, fresh, k);
    std::vector<double> reused(r.size());
    op(r, reused, k);
    EXPECT_TRUE(bitwise_equal(reused, fresh)) << "k=" << k;
  }
  // A single-vector operator, copied after it has grown its workspace;
  // both the original and the copy keep matching a fresh apply.
  const LinearOperator single = s.as_operator();
  std::vector<double> scratch(static_cast<std::size_t>(n));
  single(random_block(n, 1, ++seed), scratch);
  // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
  const LinearOperator copy = single;
  for (const LinearOperator* m : {&single, &copy, &single}) {
    const auto r = random_block(n, 1, ++seed);
    std::vector<double> fresh(r.size());
    s.apply(r, fresh);
    std::vector<double> reused(r.size());
    (*m)(r, reused);
    EXPECT_TRUE(bitwise_equal(reused, fresh));
  }
}

TEST(Multilevel, BuildsOnHierarchy) {
  const Graph g = gen::grid2d(16, 16, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 32}));
  EXPECT_GE(s.num_levels(), 1);
  EXPECT_GT(s.operator_complexity(), 1.0);
  EXPECT_LT(s.operator_complexity(), 2.5);  // geometric level shrinkage
}

TEST(Multilevel, ApplyIsLinearSymmetric) {
  const Graph g = gen::grid2d(10, 10, gen::WeightSpec::uniform(1.0, 3.0), 5);
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 16}));
  const auto r1 = mean_free_rhs(100, 1);
  const auto r2 = mean_free_rhs(100, 2);
  std::vector<double> z1(100);
  std::vector<double> z2(100);
  s.apply(r1, z1);
  s.apply(r2, z2);
  // Symmetry of the V-cycle operator.
  EXPECT_NEAR(la::dot(r2, z1), la::dot(r1, z2), 1e-8);
  // Linearity: apply(r1 + r2) = apply(r1) + apply(r2).
  std::vector<double> r12(100);
  for (std::size_t i = 0; i < 100; ++i) r12[i] = r1[i] + r2[i];
  std::vector<double> z12(100);
  s.apply(r12, z12);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(z12[i], z1[i] + z2[i], 1e-9);
  }
}

TEST(Multilevel, PreconditionsPcgOnGrid) {
  const Graph g = gen::grid2d(20, 20, gen::WeightSpec::uniform(1.0, 2.0), 7);
  const vidx n = 400;
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 32}));
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  const auto b = mean_free_rhs(n, 3);
  std::vector<double> x_plain(static_cast<std::size_t>(n), 0.0);
  const auto plain =
      cg_solve(a, b, x_plain,
               {.max_iterations = 2000, .rel_tolerance = 1e-8,
                .project_constant = true});
  std::vector<double> x_ml(static_cast<std::size_t>(n), 0.0);
  const auto ml = flexible_pcg_solve(
      a, s.as_operator(), b, x_ml,
      {.max_iterations = 2000, .rel_tolerance = 1e-8, .project_constant = true});
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(ml.converged);
  EXPECT_LT(ml.iterations, plain.iterations);
}

TEST(Multilevel, SolvesOctVolumeSystem) {
  const Graph g = gen::oct_volume(8, 8, 8, {.field_orders = 2.0}, 9);
  const vidx n = g.num_vertices();
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 64}));
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  const auto b = mean_free_rhs(n, 5);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const auto stats = flexible_pcg_solve(
      a, s.as_operator(), b, x,
      {.max_iterations = 400, .rel_tolerance = 1e-8, .project_constant = true});
  EXPECT_TRUE(stats.converged);
  std::vector<double> check(static_cast<std::size_t>(n));
  g.laplacian_apply(x, check);
  double err = 0.0;
  for (std::size_t i = 0; i < check.size(); ++i) {
    err = std::max(err, std::abs(check[i] - b[i]));
  }
  EXPECT_LT(err, 1e-5);
}

TEST(Multilevel, TrivialHierarchyFallsBackToDirect) {
  const Graph g = gen::path(6, gen::WeightSpec::uniform(1.0, 2.0), 2);
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 10}));
  EXPECT_EQ(s.num_levels(), 0);
  const auto b = mean_free_rhs(6, 9);
  std::vector<double> x(6);
  s.apply(b, x);
  std::vector<double> check(6);
  g.laplacian_apply(x, check);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(check[i], b[i], 1e-9);
}

}  // namespace
}  // namespace hicond
