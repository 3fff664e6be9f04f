#include "hicond/graph/quotient.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/generators.hpp"
#include "hicond/la/dense.hpp"
#include "hicond/partition/cluster_index.hpp"

namespace hicond {
namespace {

/// Q = R' L R with R the dense 0-1 membership matrix: Remark 1's algebraic
/// quotient, the reference quotient_graph is held to.
DenseMatrix algebraic_quotient(const Graph& g,
                               std::span<const vidx> assignment, vidx m) {
  DenseMatrix r(g.num_vertices(), m);
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    r(v, assignment[static_cast<std::size_t>(v)]) = 1.0;
  }
  return r.transpose() * dense_laplacian(g) * r;
}

TEST(Quotient, PathContractsToPath) {
  const Graph g = gen::path(6);  // unit weights
  std::vector<vidx> assignment{0, 0, 1, 1, 2, 2};
  const Graph q = quotient_graph(g, assignment);
  EXPECT_EQ(q.num_vertices(), 3);
  EXPECT_EQ(q.num_edges(), 2);
  EXPECT_DOUBLE_EQ(q.edge_weight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(q.edge_weight(1, 2), 1.0);
}

TEST(Quotient, CapSumsParallelEdges) {
  const Graph g = gen::grid2d(2, 2, gen::WeightSpec::unit(), 1);
  // Left column cluster 0, right column cluster 1: 2 crossing unit edges.
  std::vector<vidx> assignment{0, 1, 0, 1};
  const Graph q = quotient_graph(g, assignment);
  EXPECT_EQ(q.num_vertices(), 2);
  EXPECT_DOUBLE_EQ(q.edge_weight(0, 1), 2.0);
}

TEST(Quotient, InternalEdgesVanish) {
  const Graph g = gen::complete(4, gen::WeightSpec::unit(), 1);
  std::vector<vidx> assignment{0, 0, 0, 0};
  const Graph q = quotient_graph(g, assignment);
  EXPECT_EQ(q.num_vertices(), 1);
  EXPECT_EQ(q.num_edges(), 0);
}

TEST(Quotient, VolumeOfQuotientEqualsBoundaryWeight) {
  const Graph g = gen::grid2d(4, 4, gen::WeightSpec::uniform(1.0, 3.0), 9);
  std::vector<vidx> assignment(16);
  for (vidx v = 0; v < 16; ++v) assignment[static_cast<std::size_t>(v)] = v / 4;
  const Graph q = quotient_graph(g, assignment);
  // Total quotient volume = 2 * weight crossing between clusters.
  double crossing = 0.0;
  for (const auto& e : g.edge_list()) {
    if (assignment[static_cast<std::size_t>(e.u)] !=
        assignment[static_cast<std::size_t>(e.v)]) {
      crossing += e.weight;
    }
  }
  EXPECT_NEAR(q.total_volume(), 2.0 * crossing, 1e-12);
}

TEST(Quotient, NumClustersAndMembers) {
  std::vector<vidx> assignment{2, 0, 1, 0, 2};
  EXPECT_EQ(num_clusters(assignment), 3);
  const auto clusters = ClusterIndex::build(assignment, 3);
  const auto members = [&](vidx c) {
    const auto span = clusters.members(c);
    return std::vector<vidx>(span.begin(), span.end());
  };
  EXPECT_EQ(members(0), (std::vector<vidx>{1, 3}));
  EXPECT_EQ(members(1), (std::vector<vidx>{2}));
  EXPECT_EQ(members(2), (std::vector<vidx>{0, 4}));
}

TEST(Quotient, RejectsUnassigned) {
  const Graph g = gen::path(3);
  std::vector<vidx> assignment{0, -1, 1};
  EXPECT_THROW((void)quotient_graph(g, assignment), invalid_argument_error);
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
  const DenseMatrix q = algebraic_quotient(g, assignment, 4);
  const DenseMatrix direct = dense_laplacian(quotient_graph(g, assignment));
  EXPECT_LT(direct.frobenius_distance(q), 1e-10);
}

TEST(QuotientTripleProduct, OffDiagonalMatchesQuotientGraph) {
  const Graph g = gen::grid3d(3, 3, 3, gen::WeightSpec::uniform(1.0, 2.0), 7);
  std::vector<vidx> assignment(27);
  for (vidx v = 0; v < 27; ++v) assignment[static_cast<std::size_t>(v)] = v / 9;
  const DenseMatrix q_alg = algebraic_quotient(g, assignment, 3);
  const Graph q_graph = quotient_graph(g, assignment);
  for (vidx i = 0; i < 3; ++i) {
    for (vidx j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_NEAR(q_alg(i, j), -q_graph.edge_weight(i, j), 1e-10);
    }
  }
}

TEST(QuotientTripleProduct, DiagonalIsClusterBoundary) {
  // Row sums of R'AR are zero, so diagonal = cap(V_i, everything else).
  const Graph g = gen::grid2d(4, 2, gen::WeightSpec::unit(), 1);
  std::vector<vidx> assignment{0, 0, 1, 1, 0, 0, 1, 1};
  const DenseMatrix q = algebraic_quotient(g, assignment, 2);
  EXPECT_NEAR(q(0, 0), -q(0, 1), 1e-12);
  EXPECT_NEAR(q(1, 1), -q(1, 0), 1e-12);
  EXPECT_DOUBLE_EQ(q(0, 1), -2.0);  // two crossing unit edges
}

}  // namespace
}  // namespace hicond
