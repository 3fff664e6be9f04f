#include "hicond/la/cg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "hicond/graph/generators.hpp"
#include "hicond/la/cg_block.hpp"
#include "hicond/la/vector_ops.hpp"

namespace hicond {
namespace {

/// rhs with zero mean for Laplacian systems.
std::vector<double> mean_free_rhs(vidx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  return b;
}

TEST(Cg, SolvesSpdDiagonalSystem) {
  const std::size_t n = 10;
  auto a = [](std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      y[i] = (2.0 + static_cast<double>(i)) * x[i];
    }
  };
  std::vector<double> b(n, 1.0);
  std::vector<double> x(n, 0.0);
  const auto stats = cg_solve(a, b, x, {.max_iterations = 50});
  EXPECT_TRUE(stats.converged);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], 1.0 / (2.0 + static_cast<double>(i)), 1e-8);
  }
}

TEST(Cg, SolvesLaplacianWithProjection) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 3.0), 3);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  const auto b = mean_free_rhs(64, 5);
  std::vector<double> x(64, 0.0);
  const auto stats =
      cg_solve(a, b, x, {.max_iterations = 500, .rel_tolerance = 1e-10,
                         .project_constant = true});
  EXPECT_TRUE(stats.converged);
  std::vector<double> check(64);
  g.laplacian_apply(x, check);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(check[i], b[i], 1e-6);
}

TEST(Cg, ConvergesInAtMostNSteps) {
  // Exact-arithmetic CG terminates in n steps; allow some slack.
  const Graph g = gen::complete(12, gen::WeightSpec::uniform(1.0, 2.0), 7);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  const auto b = mean_free_rhs(12, 9);
  std::vector<double> x(12, 0.0);
  const auto stats =
      cg_solve(a, b, x, {.max_iterations = 30, .rel_tolerance = 1e-12,
                         .project_constant = true});
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(stats.iterations, 15);
}

TEST(Cg, RecordsMonotonicallyUsefulHistory) {
  const Graph g = gen::grid2d(6, 6, gen::WeightSpec::unit(), 1);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  const auto b = mean_free_rhs(36, 2);
  std::vector<double> x(36, 0.0);
  const auto stats =
      cg_solve(a, b, x, {.max_iterations = 200, .rel_tolerance = 1e-10,
                         .record_history = true, .project_constant = true});
  ASSERT_GE(stats.residual_history.size(), 2u);
  EXPECT_LT(stats.residual_history.back(),
            stats.residual_history.front() * 1e-8);
}

TEST(Pcg, JacobiPreconditionerReducesIterations) {
  // Strongly varying weights: Jacobi helps.
  const Graph g = gen::oct_volume(6, 6, 6, {.field_orders = 3.0}, 5);
  const vidx n = g.num_vertices();
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  auto jacobi = [&g](std::span<const double> r, std::span<double> z) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      z[i] = r[i] / g.vol(static_cast<vidx>(i));
    }
  };
  const auto b = mean_free_rhs(n, 3);
  CgOptions opt{.max_iterations = 3000, .rel_tolerance = 1e-8,
                .project_constant = true};
  std::vector<double> x_plain(static_cast<std::size_t>(n), 0.0);
  const auto plain = cg_solve(a, b, x_plain, opt);
  std::vector<double> x_pcg(static_cast<std::size_t>(n), 0.0);
  const auto pcg = pcg_solve(a, jacobi, b, x_pcg, opt);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pcg.converged);
  EXPECT_LT(pcg.iterations, plain.iterations);
}

TEST(Pcg, ExactPreconditionerConvergesInOneIteration) {
  // M = A (via dense pseudo-solve on a path): PCG should converge instantly.
  const Graph g = gen::path(10, gen::WeightSpec::uniform(1.0, 4.0), 6);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  // Exact inverse via CG itself at tight tolerance (small system).
  auto m_inv = [&g, &a](std::span<const double> r, std::span<double> z) {
    std::vector<double> tmp(r.size(), 0.0);
    std::vector<double> rr(r.begin(), r.end());
    la::remove_mean(rr);
    (void)cg_solve(a, rr, tmp, {.max_iterations = 200, .rel_tolerance = 1e-14,
                                .project_constant = true});
    std::copy(tmp.begin(), tmp.end(), z.begin());
    (void)g;
  };
  const auto b = mean_free_rhs(10, 8);
  std::vector<double> x(10, 0.0);
  const auto stats =
      pcg_solve(a, m_inv, b, x, {.max_iterations = 10, .rel_tolerance = 1e-8,
                                 .project_constant = true});
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(stats.iterations, 2);
}

TEST(FlexiblePcg, HandlesMildlyVaryingPreconditioner) {
  const Graph g = gen::grid2d(7, 7, gen::WeightSpec::uniform(1.0, 2.0), 4);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  int call_count = 0;
  auto varying = [&g, &call_count](std::span<const double> r,
                                   std::span<double> z) {
    ++call_count;
    const double w = 1.0 + 0.01 * (call_count % 3);  // slightly inconsistent
    for (std::size_t i = 0; i < r.size(); ++i) {
      z[i] = w * r[i] / g.vol(static_cast<vidx>(i));
    }
  };
  const auto b = mean_free_rhs(49, 1);
  std::vector<double> x(49, 0.0);
  const auto stats = flexible_pcg_solve(
      a, varying, b, x,
      {.max_iterations = 500, .rel_tolerance = 1e-9, .project_constant = true});
  EXPECT_TRUE(stats.converged);
  std::vector<double> check(49);
  g.laplacian_apply(x, check);
  for (std::size_t i = 0; i < 49; ++i) EXPECT_NEAR(check[i], b[i], 1e-5);
}

TEST(Cg, ZeroRhsConvergesImmediately) {
  const Graph g = gen::path(5);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  std::vector<double> b(5, 0.0);
  std::vector<double> x(5, 0.0);
  const auto stats = cg_solve(a, b, x, {.project_constant = true});
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
}

/// FNV-1a 64 of x's bytes, the iteration count and the residual history.
std::uint64_t solve_hash(const std::vector<double>& x, const SolveStats& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  fold(x.data(), x.size() * sizeof(double));
  fold(&s.iterations, sizeof s.iterations);
  fold(s.residual_history.data(), s.residual_history.size() * sizeof(double));
  return h;
}

TEST(Cg, SingleVectorBitsMatchPinnedConstants) {
  // Plain CG (z = r), fixed-preconditioner CG (Fletcher-Reeves) and
  // flexible PCG (Polak-Ribiere) on one projected Laplacian system.
  const Graph g = gen::oct_volume(6, 6, 6, {.field_orders = 3.0}, 5);
  const vidx n = g.num_vertices();
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  auto jacobi = [&g](std::span<const double> r, std::span<double> z) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      z[i] = r[i] / g.vol(static_cast<vidx>(i));
    }
  };
  const auto b = mean_free_rhs(n, 3);
  const CgOptions opt{.max_iterations = 3000, .rel_tolerance = 1e-8,
                      .record_history = true, .project_constant = true};
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const SolveStats plain = cg_solve(a, b, x, opt);
  EXPECT_EQ(solve_hash(x, plain), 0xe05e355ccd99c076ULL)
      << std::hex << solve_hash(x, plain);
  std::fill(x.begin(), x.end(), 0.0);
  const SolveStats pcg = pcg_solve(a, jacobi, b, x, opt);
  EXPECT_EQ(solve_hash(x, pcg), 0x8d7090a9671cce35ULL)
      << std::hex << solve_hash(x, pcg);
  std::fill(x.begin(), x.end(), 0.0);
  const SolveStats flexible = flexible_pcg_solve(a, jacobi, b, x, opt);
  EXPECT_EQ(solve_hash(x, flexible), 0xae29add695fb3f7aULL)
      << std::hex << solve_hash(x, flexible);
}

// --- the two freeze paths of the batched kernel ----------------------------

/// diag(d) on a vertex-major k-column block: row v of every column is
/// scaled by d[v].
BlockOperator diagonal_block(const std::vector<double>& d) {
  return [&d](std::span<const double> in, std::span<double> out, int k) {
    const auto uk = static_cast<std::size_t>(k);
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = d[i / uk] * in[i];
  };
}

LinearOperator diagonal(const std::vector<double>& d) {
  return [&d](std::span<const double> in, std::span<double> out) {
    for (std::size_t v = 0; v < d.size(); ++v) out[v] = d[v] * in[v];
  };
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// `k` right-hand sides of length n, column-major; entry 0 is zero in every
/// column but `odd`, where it is `odd_value`.
std::vector<double> freeze_rhs(std::size_t n, int k, int odd,
                               double odd_value) {
  std::vector<double> b;
  for (int j = 0; j < k; ++j) {
    Rng rng(static_cast<std::uint64_t>(40 + j));
    std::vector<double> col(n);
    for (auto& v : col) v = rng.uniform(-1.0, 1.0);
    col[0] = j == odd ? odd_value : 0.0;
    b.insert(b.end(), col.begin(), col.end());
  }
  return b;
}

/// Column j of `stats`/`x` must equal the standalone flexible PCG solve of
/// column j with the single-vector operators.
void expect_standalone(const LinearOperator& a, const LinearOperator& m,
                       const std::vector<double>& b,
                       const std::vector<double>& x,
                       const std::vector<SolveStats>& stats,
                       std::size_t n, int j, const CgOptions& opt) {
  const auto col = [&](const std::vector<double>& block) {
    return std::span<const double>(block).subspan(
        static_cast<std::size_t>(j) * n, n);
  };
  std::vector<double> xj(n, 0.0);
  const SolveStats alone = flexible_pcg_solve(a, m, col(b), xj, opt);
  const auto& s = stats[static_cast<std::size_t>(j)];
  EXPECT_TRUE(alone.converged) << "column " << j;
  EXPECT_EQ(s.converged, alone.converged) << "column " << j;
  EXPECT_EQ(s.iterations, alone.iterations) << "column " << j;
  EXPECT_EQ(s.residual_history, alone.residual_history) << "column " << j;
  EXPECT_TRUE(same_bits(col(x), xj)) << "column " << j;
}

/// Operator and preconditioner of both freeze tests: A = diag(d) is positive
/// on every entry but the first, M^-1 = diag(m) is positive. A column whose
/// entry 0 starts at zero keeps it zero and sees an SPD system.
struct FreezeSystem {
  static constexpr std::size_t n = 64;
  static constexpr int k = 5;
  std::vector<double> d;
  std::vector<double> m;
  CgOptions opt{.max_iterations = 200, .rel_tolerance = 1e-12,
                .record_history = true};

  FreezeSystem() : d(n), m(n) {
    for (std::size_t v = 0; v < n; ++v) {
      d[v] = 1.0 + static_cast<double>(v % 9);
      m[v] = 1.0 / (1.0 + static_cast<double>(v % 2));
    }
    d[0] = -1.0;
  }
};

TEST(BatchedPcg, IndefiniteColumnFreezesAloneOthersMatchStandalone) {
  // Column 2's entry 0 meets the negative diagonal entry: after six
  // iterations p'Ap is no longer positive and the column freezes
  // unconverged; the others never see entry 0.
  const FreezeSystem sys;
  constexpr int kOdd = 2;
  const std::vector<double> b = freeze_rhs(sys.n, sys.k, kOdd, 0.05);
  std::vector<double> x(b.size(), 0.0);
  const std::vector<SolveStats> stats = batched_flexible_pcg_solve(
      diagonal_block(sys.d), diagonal_block(sys.m), b, x, sys.k, sys.opt);
  EXPECT_FALSE(stats[kOdd].converged);
  EXPECT_EQ(stats[kOdd].iterations, 6);
  for (int j = 0; j < sys.k; ++j) {
    if (j == kOdd) continue;
    expect_standalone(diagonal(sys.d), diagonal(sys.m), b, x, stats, sys.n, j,
                      sys.opt);
  }
}

TEST(BatchedPcg, ZeroedPreconditionerColumnFreezesAloneOthersMatchStandalone) {
  // The preconditioner zeroes column 3 of every full-width application after
  // the first: r'z becomes 0 there and the column freezes unconverged after
  // one iteration. Once it is frozen the block is narrower and untouched.
  FreezeSystem sys;
  sys.d[0] = 1.0;
  constexpr int kOdd = 3;
  const std::vector<double> b = freeze_rhs(sys.n, sys.k, -1, 0.0);
  const BlockOperator m = diagonal_block(sys.m);
  int calls = 0;
  const BlockOperator zeroing = [&](std::span<const double> in,
                                    std::span<double> out, int k) {
    m(in, out, k);
    if (++calls > 1 && k == sys.k) {
      for (std::size_t v = 0; v < sys.n; ++v) out[v * sys.k + kOdd] = 0.0;
    }
  };
  std::vector<double> x(b.size(), 0.0);
  const std::vector<SolveStats> stats = batched_flexible_pcg_solve(
      diagonal_block(sys.d), zeroing, b, x, sys.k, sys.opt);
  EXPECT_FALSE(stats[kOdd].converged);
  EXPECT_EQ(stats[kOdd].iterations, 1);
  for (int j = 0; j < sys.k; ++j) {
    if (j == kOdd) continue;
    expect_standalone(diagonal(sys.d), diagonal(sys.m), b, x, stats, sys.n, j,
                      sys.opt);
  }
}

}  // namespace
}  // namespace hicond
