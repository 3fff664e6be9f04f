#include "hicond/precond/support.hpp"

#include <gtest/gtest.h>

#include "hicond/certify/oracle.hpp"
#include "hicond/graph/closure.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/partition/decomposition.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/precond/schur.hpp"

namespace hicond {
namespace {

TEST(SupportSigma, SelfSupportIsOne) {
  const Graph g = gen::grid2d(4, 4, gen::WeightSpec::uniform(1.0, 2.0), 3);
  EXPECT_NEAR(support_sigma_dense(g, g), 1.0, 1e-9);
}

TEST(SupportSigma, ScalingLaw) {
  const Graph a = gen::random_planar_triangulation(
      12, gen::WeightSpec::uniform(1.0, 2.0), 5);
  std::vector<WeightedEdge> halved;
  for (const auto& e : a.edge_list()) halved.push_back({e.u, e.v, e.weight / 2});
  const Graph b(12, halved);
  EXPECT_NEAR(support_sigma_dense(a, b), 2.0, 1e-9);
  EXPECT_NEAR(support_sigma_dense(b, a), 0.5, 1e-9);
}

TEST(SupportSigma, SubgraphSupportAtLeastOne) {
  const Graph a = gen::grid2d(5, 4, gen::WeightSpec::uniform(1.0, 3.0), 7);
  std::vector<WeightedEdge> tree_edges;
  std::vector<char> seen(20, 0);
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
  const Graph b(20, tree_edges);
  EXPECT_GE(support_sigma_dense(a, b), 1.0 - 1e-9);
  EXPECT_LE(support_sigma_dense(b, a), 1.0 + 1e-9);
}

TEST(SupportBounds, FormulasMatchPaper) {
  EXPECT_DOUBLE_EQ(steiner_support_bound(0.5, 0.5),
                   3.0 * (1.0 + 2.0 / (0.5 * 0.25)));
  EXPECT_DOUBLE_EQ(steiner_support_bound_phi_rho(0.5),
                   3.0 * (1.0 + 2.0 / 0.125));
  EXPECT_DOUBLE_EQ(star_complement_support_bound(1.0, 0.5), 8.0);
  EXPECT_THROW((void)steiner_support_bound(0.0, 1.0), invalid_argument_error);
}

TEST(Lemma34, StarComplementSupportRespectsBound) {
  // Star S with c_v = vol_A(v) (gamma = 1): sigma(B_star, A) <= 2/phi_A^2.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph a = gen::random_planar_triangulation(
        10, gen::WeightSpec::uniform(1.0, 3.0), seed);
    const Graph star = matched_star(a);
    const Graph b = star_schur_complement(star, a.num_vertices());
    // b lives on n+1 vertices with the root isolated; restrict to 0..n-1.
    std::vector<vidx> keep(static_cast<std::size_t>(a.num_vertices()));
    for (vidx v = 0; v < a.num_vertices(); ++v) {
      keep[static_cast<std::size_t>(v)] = v;
    }
    const Graph b_restricted = induced_subgraph(b, keep);
    const double sigma = support_sigma_dense(b_restricted, a);
    const double phi = certify::oracle_conductance_bruteforce(a);
    EXPECT_LE(sigma, star_complement_support_bound(1.0, phi) + 1e-9)
        << "seed " << seed;
  }
}

TEST(Theorem35, SteinerSupportRespectsBothBounds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph a =
        gen::grid2d(4, 4, gen::WeightSpec::uniform(1.0, 2.0), seed);
    const auto fd = fixed_degree_decomposition(a, {.seed = seed});
    const Decomposition& p = fd.decomposition;
    const double sigma = steiner_support_dense(a, p);
    // Measure the decomposition parameters.
    const auto clusters = ClusterIndex::build(p.assignment, p.num_clusters);
    double phi_closure = kInfiniteConductance;
    for (vidx k = 0; k < clusters.num_clusters(); ++k) {
      const ClosureGraph c = closure_graph(a, clusters.members(k));
      phi_closure = std::min(phi_closure,
                             certify::oracle_conductance_bruteforce(c.graph));
    }
    const auto gammas = per_vertex_gamma(a, p);
    double gamma = 1.0;
    for (double gv : gammas) gamma = std::min(gamma, gv);
    if (gamma > 0.0) {
      // (phi, gamma) bound with measured parameters.
      const double phi_induced_floor = phi_closure;  // closure <= induced
      EXPECT_LE(sigma,
                steiner_support_bound(phi_induced_floor, gamma) + 1e-6)
          << "seed " << seed;
    }
    // [phi, rho] bound.
    EXPECT_LE(sigma, steiner_support_bound_phi_rho(phi_closure) + 1e-6)
        << "seed " << seed;
  }
}

TEST(MatchedStar, StructureAndWeights) {
  const Graph a = gen::grid2d(3, 3, gen::WeightSpec::uniform(1.0, 2.0), 4);
  const Graph s = matched_star(a, 2.0);
  EXPECT_EQ(s.num_vertices(), 10);
  EXPECT_EQ(s.degree(9), 9);
  for (vidx v = 0; v < 9; ++v) {
    EXPECT_DOUBLE_EQ(s.edge_weight(v, 9), 2.0 * a.vol(v));
  }
}

}  // namespace
}  // namespace hicond
