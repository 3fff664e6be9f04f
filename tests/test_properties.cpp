// Cross-module property tests: invariants that must hold for *every* graph
// and every decomposition the library produces, swept over random instances
// with parameterized seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "hicond/certify/oracle.hpp"
#include "hicond/graph/closure.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/la/dense.hpp"
#include "hicond/la/dense_eigen.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/schur.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/precond/support.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

class SeedSweep : public testing::TestWithParam<std::uint64_t> {};

Graph random_connected_graph(std::uint64_t seed, vidx n) {
  // A tree plus extra random edges: always connected, varied topology.
  Graph tree = gen::random_tree(n, gen::WeightSpec::uniform(0.5, 4.0), seed);
  auto edges = tree.edge_list();
  Rng rng(seed * 77 + 1);
  const int extras = static_cast<int>(n / 2);
  for (int i = 0; i < extras; ++i) {
    const vidx u = static_cast<vidx>(rng.uniform_index(
        static_cast<std::uint64_t>(n)));
    const vidx v = static_cast<vidx>(rng.uniform_index(
        static_cast<std::uint64_t>(n)));
    if (u != v) edges.push_back({u, v, rng.uniform(0.5, 4.0)});
  }
  return Graph(n, edges);
}

TEST_P(SeedSweep, LaplacianQuadraticIsNonnegativeAndKillsConstants) {
  const Graph g = random_connected_graph(GetParam(), 40);
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x(40);
    for (auto& v : x) v = rng.uniform(-3.0, 3.0);
    EXPECT_GE(g.laplacian_quadratic(x), -1e-12);
    std::vector<double> ones(40, rng.uniform(-5.0, 5.0));
    EXPECT_NEAR(g.laplacian_quadratic(ones), 0.0, 1e-10);
  }
}

TEST_P(SeedSweep, ClosureConductanceNeverExceedsInduced) {
  // The paper's observation: pendants only make cuts sparser, so
  // phi(closure) <= phi(induced subgraph).
  const Graph g = random_connected_graph(GetParam(), 30);
  const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 4});
  const auto clusters = ClusterIndex::build(fd.decomposition.assignment,
                                            fd.decomposition.num_clusters);
  for (vidx c = 0; c < clusters.num_clusters(); ++c) {
    const auto cluster = clusters.members(c);
    if (cluster.size() < 2) continue;
    const Graph induced = induced_subgraph(g, cluster);
    const ClosureGraph closure = closure_graph(g, cluster);
    if (closure.graph.num_vertices() > 16) continue;
    EXPECT_LE(certify::oracle_conductance_bruteforce(closure.graph),
              certify::oracle_conductance_bruteforce(induced) + 1e-12);
  }
}

TEST_P(SeedSweep, QuotientGraphMatchesAlgebraicTripleProduct) {
  // Remark 1: Q = R' L R with R the 0-1 membership matrix. Every entry is
  // compared, the diagonal and the structural zeros included.
  const vidx n = 50;
  const Graph g = random_connected_graph(GetParam(), n);
  const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 3});
  const vidx m = fd.decomposition.num_clusters;
  const Graph q = quotient_graph(g, fd.decomposition.assignment);
  ASSERT_EQ(q.num_vertices(), m);
  DenseMatrix r(n, m);
  for (vidx v = 0; v < n; ++v) {
    r(v, fd.decomposition.assignment[static_cast<std::size_t>(v)]) = 1.0;
  }
  const DenseMatrix q_alg = r.transpose() * dense_laplacian(g) * r;
  const DenseMatrix q_dense = dense_laplacian(q);
  for (vidx i = 0; i < m; ++i) {
    for (vidx j = 0; j < m; ++j) {
      EXPECT_NEAR(q_alg(i, j), q_dense(i, j), 1e-10) << i << "," << j;
    }
  }
}

TEST_P(SeedSweep, SteinerSupportsWithinDilationThree) {
  // Both directions of Theorem 3.5's routing argument: 1/3 <= lambda(B_S, A)
  // and sigma(B_S, A) <= the [phi,rho] bound with measured phi.
  const std::uint64_t seed = GetParam();
  const Graph g = random_connected_graph(seed, 18);
  const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 3});
  const DenseMatrix bs = steiner_schur_complement_dense(g, fd.decomposition);
  const auto eig = generalized_eigen_laplacian(bs, dense_laplacian(g));
  EXPECT_GE(eig.values.front(), 1.0 / 3.0 - 1e-9);
  double phi = kInfiniteConductance;
  const auto clusters = ClusterIndex::build(fd.decomposition.assignment,
                                            fd.decomposition.num_clusters);
  for (vidx k = 0; k < clusters.num_clusters(); ++k) {
    const ClosureGraph c = closure_graph(g, clusters.members(k));
    phi = std::min(phi, conductance_bounds(c.graph).lower);
  }
  EXPECT_LE(eig.values.back(), steiner_support_bound_phi_rho(phi) + 1e-6);
}

TEST_P(SeedSweep, DecompositionStatsAreInternallyConsistent) {
  const Graph g = random_connected_graph(GetParam(), 60);
  const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 4});
  const auto stats = evaluate_decomposition(g, fd.decomposition);
  EXPECT_LE(stats.min_phi_lower, stats.min_phi_upper + 1e-12);
  EXPECT_GE(stats.min_gamma, 0.0);
  EXPECT_LE(stats.min_gamma, 1.0 + 1e-12);
  EXPECT_NEAR(stats.mean_cluster_size * stats.num_clusters,
              static_cast<double>(g.num_vertices()), 1e-9);
  EXPECT_NEAR(average_gamma(g, fd.decomposition),
              1.0 - cut_weight_fraction(g, fd.decomposition), 1e-9);
  EXPECT_EQ(stats.num_disconnected_clusters, 0);
}

TEST_P(SeedSweep, SteinerPcgSolutionMatchesPlainCg) {
  const Graph g = random_connected_graph(GetParam(), 50);
  const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 4});
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(g, fd.decomposition);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  Rng rng(GetParam() + 5);
  std::vector<double> b(50);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  const CgOptions opt{.max_iterations = 2000, .rel_tolerance = 1e-11,
                      .project_constant = true};
  std::vector<double> x1(50, 0.0);
  std::vector<double> x2(50, 0.0);
  EXPECT_TRUE(cg_solve(a, b, x1, opt).converged);
  EXPECT_TRUE(pcg_solve(a, sp.as_operator(), b, x2, opt).converged);
  EXPECT_LT(la::max_abs_diff(x1, x2), 1e-6);
}

TEST_P(SeedSweep, CompositionOfLevelAssignmentsIsValid) {
  const Graph g = random_connected_graph(GetParam(), 120);
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 10});
  if (h.num_levels() == 0) return;
  const Decomposition flat = h.flatten();
  flat.validate(g);
  // Composite clusters refine correctly: any two vertices sharing a level-0
  // cluster share the flattened cluster.
  const auto& level0 = h.levels.front().decomposition;
  for (vidx v = 1; v < g.num_vertices(); ++v) {
    if (level0.assignment[static_cast<std::size_t>(v)] ==
        level0.assignment[0]) {
      EXPECT_EQ(flat.assignment[static_cast<std::size_t>(v)],
                flat.assignment[0]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace hicond
