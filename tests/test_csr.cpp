#include "hicond/la/csr.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "hicond/graph/generators.hpp"
#include "hicond/la/dense.hpp"

namespace hicond {
namespace {

TEST(CsrFromTriplets, SortsAndMergesDuplicates) {
  std::vector<std::tuple<vidx, vidx, double>> t{
      {1, 0, 2.0}, {0, 1, 1.0}, {0, 1, 3.0}, {1, 1, 5.0}};
  const CsrMatrix m = csr_from_triplets(2, 2, t);
  m.validate();
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(CsrFromTriplets, RejectsOutOfRange) {
  std::vector<std::tuple<vidx, vidx, double>> t{{0, 5, 1.0}};
  EXPECT_THROW((void)csr_from_triplets(2, 2, t), invalid_argument_error);
}

TEST(CsrLaplacian, MatchesDense) {
  const Graph g = gen::grid2d(4, 3, gen::WeightSpec::uniform(0.5, 3.0), 6);
  const CsrMatrix sp = csr_laplacian(g);
  sp.validate();
  const DenseMatrix d = dense_laplacian(g);
  for (vidx i = 0; i < g.num_vertices(); ++i) {
    for (vidx j = 0; j < g.num_vertices(); ++j) {
      EXPECT_NEAR(sp.at(i, j), d(i, j), 1e-12);
    }
  }
}

TEST(CsrLaplacian, MultiplyMatchesGraphApply) {
  const Graph g = gen::grid3d(3, 3, 2, gen::WeightSpec::uniform(1.0, 2.0), 2);
  const CsrMatrix sp = csr_laplacian(g);
  std::vector<double> x(18);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.3 * static_cast<double>(i) - 2.0;
  std::vector<double> y1(18);
  std::vector<double> y2(18);
  sp.multiply(x, y1);
  g.laplacian_apply(x, y2);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-10);
}

}  // namespace
}  // namespace hicond
