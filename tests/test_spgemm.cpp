#include "hicond/la/spgemm.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/generators.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/la/dense.hpp"

namespace hicond {
namespace {

DenseMatrix to_dense(const CsrMatrix& m) {
  DenseMatrix d(m.rows, m.cols);
  for (vidx i = 0; i < m.rows; ++i) {
    for (eidx k = m.offsets[static_cast<std::size_t>(i)];
         k < m.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      d(i, m.col_idx[static_cast<std::size_t>(k)]) +=
          m.values[static_cast<std::size_t>(k)];
    }
  }
  return d;
}

TEST(Spgemm, MatchesDenseProduct) {
  const Graph g = gen::grid2d(3, 3, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const CsrMatrix a = csr_laplacian(g);
  const CsrMatrix b = csr_normalized_laplacian(g);
  const CsrMatrix c = spgemm(a, b);
  c.validate();
  const DenseMatrix expected = to_dense(a) * to_dense(b);
  EXPECT_LT(to_dense(c).frobenius_distance(expected), 1e-10);
}

TEST(Spgemm, RectangularProduct) {
  std::vector<vidx> assignment{0, 0, 1, 1, 2, 2};
  const CsrMatrix r = membership_matrix(assignment, 3);
  const CsrMatrix rt = csr_transpose(r);
  const CsrMatrix rtr = spgemm(rt, r);  // diag of cluster sizes
  rtr.validate();
  EXPECT_EQ(rtr.rows, 3);
  EXPECT_EQ(rtr.cols, 3);
  for (vidx c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(rtr.at(c, c), 2.0);
}

TEST(Spgemm, RejectsDimensionMismatch) {
  std::vector<vidx> assignment{0, 1};
  const CsrMatrix r = membership_matrix(assignment, 2);  // 2x2
  std::vector<vidx> a3{0, 1, 2};
  const CsrMatrix r3 = membership_matrix(a3, 3);  // 3x3
  EXPECT_THROW((void)spgemm(r, r3), invalid_argument_error);
}

/// Q = R' A R through two general SpGEMMs: Remark 1's algebraic quotient,
/// the reference quotient_graph is held to.
CsrMatrix algebraic_quotient(const CsrMatrix& a,
                             std::span<const vidx> assignment, vidx m) {
  const CsrMatrix r = membership_matrix(assignment, m);
  return spgemm(spgemm(csr_transpose(r), a), r);
}

TEST(QuotientTripleProduct, EqualsRtAR) {
  // The quotient graph's Laplacian is R' A R entry for entry: off-diagonal
  // -cap(V_i, V_j), diagonal cap(V_i, V - V_i).
  const Graph g =
      gen::grid2d(4, 4, gen::WeightSpec::uniform(0.5, 2.5), 11);
  std::vector<vidx> assignment(16);
  for (vidx v = 0; v < 16; ++v) {
    assignment[static_cast<std::size_t>(v)] = (v % 4) / 2 + 2 * (v / 8);
  }
  const CsrMatrix q = algebraic_quotient(csr_laplacian(g), assignment, 4);
  q.validate();
  const CsrMatrix direct = csr_laplacian(quotient_graph(g, assignment));
  EXPECT_LT(to_dense(direct).frobenius_distance(to_dense(q)), 1e-10);
}

TEST(QuotientTripleProduct, OffDiagonalMatchesQuotientGraph) {
  // Remark 1: Q = R' A R algebraically equals the quotient graph's
  // Laplacian... its off-diagonal equals -cap(V_i, V_j).
  const Graph g = gen::grid3d(3, 3, 3, gen::WeightSpec::uniform(1.0, 2.0), 7);
  std::vector<vidx> assignment(27);
  for (vidx v = 0; v < 27; ++v) assignment[static_cast<std::size_t>(v)] = v / 9;
  const CsrMatrix q_alg = algebraic_quotient(csr_laplacian(g), assignment, 3);
  const Graph q_graph = quotient_graph(g, assignment);
  for (vidx i = 0; i < 3; ++i) {
    for (vidx j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_NEAR(q_alg.at(i, j), -q_graph.edge_weight(i, j), 1e-10);
    }
  }
}

TEST(QuotientTripleProduct, DiagonalIsClusterBoundary) {
  // Row sums of R'AR are zero, so diagonal = cap(V_i, everything else).
  const Graph g = gen::grid2d(4, 2, gen::WeightSpec::unit(), 1);
  std::vector<vidx> assignment{0, 0, 1, 1, 0, 0, 1, 1};
  const CsrMatrix q = algebraic_quotient(csr_laplacian(g), assignment, 2);
  EXPECT_NEAR(q.at(0, 0), -q.at(0, 1), 1e-12);
  EXPECT_NEAR(q.at(1, 1), -q.at(1, 0), 1e-12);
  EXPECT_DOUBLE_EQ(q.at(0, 1), -2.0);  // two crossing unit edges
}

}  // namespace
}  // namespace hicond
