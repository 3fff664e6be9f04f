#include "hicond/precond/steiner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/precond/schur.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

Decomposition halves(vidx n) {
  Decomposition d;
  d.num_clusters = 2;
  d.assignment.resize(static_cast<std::size_t>(n));
  for (vidx v = 0; v < n; ++v) {
    d.assignment[static_cast<std::size_t>(v)] = v < n / 2 ? 0 : 1;
  }
  return d;
}

TEST(SteinerGraph, Definition31Structure) {
  const Graph a = gen::grid2d(4, 4, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const Decomposition p = halves(16);
  const Graph s = build_steiner_graph(a, p);
  EXPECT_EQ(s.num_vertices(), 18);  // 16 leaves + 2 roots
  // Leaves connect only to their root with weight vol_A(u).
  for (vidx v = 0; v < 16; ++v) {
    EXPECT_EQ(s.degree(v), 1);
    const vidx root = 16 + p.assignment[static_cast<std::size_t>(v)];
    EXPECT_DOUBLE_EQ(s.edge_weight(v, root), a.vol(v));
  }
  // Root-root edge carries cap(V_0, V_1).
  const Graph q = quotient_graph(a, p.assignment);
  EXPECT_DOUBLE_EQ(s.edge_weight(16, 17), q.edge_weight(0, 1));
}

TEST(SteinerPreconditioner, ApplyMatchesExplicitFormula) {
  // M^{-1} r = D^{-1} r + R Q^+ R' r: check against a dense computation.
  const Graph a = gen::grid2d(4, 3, gen::WeightSpec::uniform(1.0, 3.0), 5);
  const Decomposition p = halves(12);
  const SteinerPreconditioner sp = SteinerPreconditioner::build(a, p);
  Rng rng(2);
  std::vector<double> r(12);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(r);
  std::vector<double> z(12);
  sp.apply(r, z);
  // Dense path: rq = R'r; solve quotient; broadcast.
  const Graph q = quotient_graph(a, p.assignment);
  std::vector<double> rq(2, 0.0);
  for (vidx v = 0; v < 12; ++v) {
    rq[static_cast<std::size_t>(p.assignment[static_cast<std::size_t>(v)])] +=
        r[static_cast<std::size_t>(v)];
  }
  // Q is a single edge: pseudo-solve by hand. Q = [[w,-w],[-w,w]].
  const double w = q.edge_weight(0, 1);
  // Solve Q y = rq with mean-free y: y0 - y1 = rq[0] / w; y0 + y1 = 0.
  const double y0 = rq[0] / (2.0 * w);
  const double y1 = -y0;
  for (vidx v = 0; v < 12; ++v) {
    const double expected =
        r[static_cast<std::size_t>(v)] / a.vol(v) +
        (p.assignment[static_cast<std::size_t>(v)] == 0 ? y0 : y1);
    EXPECT_NEAR(z[static_cast<std::size_t>(v)], expected, 1e-10);
  }
}

TEST(SteinerPreconditioner, OperatorEqualsApply) {
  const Graph a = gen::grid2d(5, 5, gen::WeightSpec::uniform(1.0, 2.0), 7);
  const auto fd = fixed_degree_decomposition(a);
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(a, fd.decomposition);
  const LinearOperator op = sp.as_operator();
  Rng rng(3);
  std::vector<double> r(25);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  std::vector<double> z1(25);
  std::vector<double> z2(25);
  sp.apply(r, z1);
  op(r, z2);
  EXPECT_LT(la::max_abs_diff(z1, z2), 1e-14);
}

TEST(SteinerPreconditioner, ApplyIsSymmetric) {
  // M^{-1} = D^{-1} + R Q^+ R' is symmetric: check r1' M^{-1} r2 = r2' M^{-1} r1.
  const Graph a = gen::grid2d(6, 4, gen::WeightSpec::uniform(1.0, 2.0), 9);
  const auto fd = fixed_degree_decomposition(a);
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(a, fd.decomposition);
  Rng rng(5);
  std::vector<double> r1(24);
  std::vector<double> r2(24);
  for (auto& v : r1) v = rng.uniform(-1.0, 1.0);
  for (auto& v : r2) v = rng.uniform(-1.0, 1.0);
  std::vector<double> z1(24);
  std::vector<double> z2(24);
  sp.apply(r1, z1);
  sp.apply(r2, z2);
  EXPECT_NEAR(la::dot(r2, z1), la::dot(r1, z2), 1e-9);
}

// Solving S_P [x; y] = [r; 0] exactly must give x = apply(r) up to a
// constant shift: the closed-form apply is the Gremban reduction of the
// extended Steiner system (Definition 3.1, Lemma 3.2). Checked against a
// dense pseudo-solve of the explicit Steiner graph.
void expect_apply_matches_steiner_solve(const Graph& a, const Decomposition& p,
                                        std::uint64_t seed, int trials) {
  const SteinerPreconditioner sp = SteinerPreconditioner::build(a, p);
  const Graph s = sp.steiner_graph();
  ASSERT_TRUE(is_connected(s));
  ASSERT_EQ(s.num_vertices(), a.num_vertices() + sp.num_steiner_vertices());
  const DenseMatrix ls = dense_laplacian(s);
  const auto n = static_cast<std::size_t>(a.num_vertices());
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> r(n);
    for (auto& v : r) v = rng.uniform(-1.0, 1.0);
    la::remove_mean(r);
    std::vector<double> padded(static_cast<std::size_t>(s.num_vertices()),
                               0.0);
    std::copy(r.begin(), r.end(), padded.begin());
    const auto full = laplacian_pseudo_solve_dense(ls, padded);
    std::vector<double> z(n);
    sp.apply(r, z);
    const double shift = full[0] - z[0];
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(full[i] - z[i], shift, 1e-8) << "trial " << trial;
    }
  }
}

TEST(SteinerPreconditioner, GrembanReductionConsistency) {
  const Graph halves_graph =
      gen::grid2d(3, 3, gen::WeightSpec::uniform(1.0, 2.0), 11);
  expect_apply_matches_steiner_solve(halves_graph, halves(9), 7, 1);
  // A fixed-degree decomposition with many clusters.
  const Graph a = gen::grid2d(6, 5, gen::WeightSpec::uniform(1.0, 3.0), 3);
  const auto fd = fixed_degree_decomposition(a, {.max_cluster_size = 4});
  expect_apply_matches_steiner_solve(a, fd.decomposition, 5, 5);
}

TEST(SteinerPreconditioner, SchurComplementConsistentWithEliminationIdentity) {
  // B = D - D R (Q + D_Q)^{-1} R' D must equal the dense Schur complement of
  // S_P with respect to the Steiner vertices.
  const Graph a =
      gen::random_planar_triangulation(10, gen::WeightSpec::uniform(1, 2), 3);
  const Decomposition p = halves(10);
  const DenseMatrix b_formula = steiner_schur_complement_dense(a, p);
  const Graph s = build_steiner_graph(a, p);
  std::vector<vidx> eliminate{10, 11};
  const DenseMatrix b_elim = schur_complement_dense(s, eliminate);
  EXPECT_LT(b_formula.frobenius_distance(b_elim), 1e-9);
}

TEST(SteinerPreconditioner, RejectsDisconnectedGraph) {
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {2, 3, 1.0}};
  const Graph a(4, edges);
  Decomposition p;
  p.num_clusters = 2;
  p.assignment = {0, 0, 1, 1};
  EXPECT_THROW((void)SteinerPreconditioner::build(a, p),
               invalid_argument_error);
}

TEST(SteinerPreconditioner, SingleClusterWorks) {
  const Graph a = gen::grid2d(3, 3, gen::WeightSpec::uniform(1.0, 2.0), 5);
  Decomposition p;
  p.num_clusters = 1;
  p.assignment.assign(9, 0);
  const SteinerPreconditioner sp = SteinerPreconditioner::build(a, p);
  // Quotient is a single vertex: M^{-1} degenerates to the Jacobi scale
  // plus a constant shift.
  Rng rng(7);
  std::vector<double> r(9);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(r);
  std::vector<double> z(9);
  sp.apply(r, z);
  for (vidx v = 0; v < 9; ++v) {
    EXPECT_NEAR(z[static_cast<std::size_t>(v)],
                r[static_cast<std::size_t>(v)] / a.vol(v), 1e-12);
  }
}

TEST(SteinerPreconditioner, QuotientMatchesDecompositionSize) {
  const Graph a = gen::grid3d(4, 4, 4, gen::WeightSpec::uniform(1.0, 2.0), 13);
  const auto fd = fixed_degree_decomposition(a);
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(a, fd.decomposition);
  EXPECT_EQ(sp.num_steiner_vertices(), fd.decomposition.num_clusters);
  EXPECT_LE(sp.num_steiner_vertices(), a.num_vertices() / 2);
}

}  // namespace
}  // namespace hicond
