// The theorem-certificate checker: the deliberately-slow oracle layer must
// confirm the paper's guarantees on honest decompositions and reject the
// corrupt fixtures of test_validate.cpp with a failing (not throwing)
// certificate. Suite names are lowercase so `ctest -R certify` selects them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hicond/certify/certify.hpp"
#include "hicond/certify/oracle.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/graph.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/partition/decomposition.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/planar.hpp"
#include "hicond/tree/tree_decomposition.hpp"

namespace hicond {
namespace {

using certify::Certificate;
using certify::certify_decomposition;
using certify::certify_steiner_support;
using certify::certify_tree_decomposition;
using certify::Check;
using certify::CheckStatus;

void expect_check(const Certificate& cert, const std::string& name,
                  CheckStatus status) {
  const Check* c = cert.find_check(name);
  ASSERT_NE(c, nullptr) << "missing check \"" << name << "\" in\n"
                        << cert.to_text();
  EXPECT_EQ(c->status, status) << cert.to_text();
}

// --- oracle cross-checks --------------------------------------------------

TEST(certify_oracle, BruteForceMatchesLibraryOnSmallGraphs) {
  const Graph graphs[] = {
      gen::path(6), gen::cycle(7), gen::star(8), gen::complete(5),
      gen::grid2d(3, 3, gen::WeightSpec::uniform(0.5, 2.0), 11)};
  for (const Graph& g : graphs) {
    const ConductanceBounds b = conductance_bounds(g);
    EXPECT_TRUE(b.exact);
    EXPECT_NEAR(certify::oracle_conductance_bruteforce(g), b.lower, 1e-12);
  }
}

TEST(certify_oracle, Lambda2MatchesKnownCompleteGraphValue) {
  // lambda_2 of the normalized Laplacian of K_n is n / (n - 1).
  const Graph g = gen::complete(8);
  EXPECT_NEAR(certify::oracle_lambda2_normalized(g), 8.0 / 7.0, 1e-9);
}

TEST(certify_oracle, SpectralLowerBoundIsBelowExactConductance) {
  const Graph g = gen::grid2d(5, 4, gen::WeightSpec::uniform(1.0, 3.0), 3);
  const double exact = certify::oracle_conductance_bruteforce(g);
  const certify::OracleConductance oc =
      certify::oracle_conductance(g, /*exact_limit=*/4);
  EXPECT_FALSE(oc.exact);
  EXPECT_LE(oc.lower, exact + 1e-9);
  EXPECT_GE(oc.upper, exact - 1e-9);
}

// --- Theorem 2.1 on random trees ------------------------------------------

TEST(certify, ConfirmsTreeTheoremOnHundredRandomTrees) {
  int certified = 0;
  for (int i = 0; i < 100; ++i) {
    const vidx n = 2 + (i * 7) % 40;
    const Graph tree = (i % 2 == 0)
                           ? gen::random_tree(n, {}, 1000 + i)
                           : gen::random_pruefer_tree(n, {}, 2000 + i);
    const Decomposition d = tree_decomposition(tree);
    const Certificate cert = certify_tree_decomposition(tree, d);
    EXPECT_TRUE(cert.pass) << "tree " << i << " (n=" << n << "):\n"
                           << cert.to_text();
    expect_check(cert, "forest-input", CheckStatus::pass);
    expect_check(cert, "cluster-count", CheckStatus::pass);
    expect_check(cert, "closure-conductance", CheckStatus::pass);
    // Theorem 2.1's rho >= 6/5 is meaningful from 6 vertices up.
    if (n >= 6) {
      EXPECT_GE(d.reduction_factor(), 6.0 / 5.0 - 1e-9) << "n=" << n;
    }
    if (cert.pass) ++certified;
  }
  EXPECT_EQ(certified, 100);
}

TEST(certify, TreeCertifierAcceptsMultiComponentForests) {
  // Two disjoint random trees as one forest: the per-component cluster-count
  // budget and the isolation check must both hold.
  const Graph t1 = gen::random_tree(17, {}, 5);
  const Graph t2 = gen::random_tree(9, {}, 6);
  std::vector<WeightedEdge> edges;
  for (vidx u = 0; u < t1.num_vertices(); ++u) {
    for (std::size_t i = 0; i < t1.neighbors(u).size(); ++i) {
      const vidx v = t1.neighbors(u)[i];
      if (u < v) edges.push_back({u, v, t1.weights(u)[i]});
    }
  }
  const vidx off = t1.num_vertices();
  for (vidx u = 0; u < t2.num_vertices(); ++u) {
    for (std::size_t i = 0; i < t2.neighbors(u).size(); ++i) {
      const vidx v = t2.neighbors(u)[i];
      if (u < v) edges.push_back({u + off, v + off, t2.weights(u)[i]});
    }
  }
  const Graph forest(off + t2.num_vertices(), edges);
  const Decomposition d = tree_decomposition(forest);
  const Certificate cert = certify_tree_decomposition(forest, d);
  EXPECT_TRUE(cert.pass) << cert.to_text();
  expect_check(cert, "component-isolation", CheckStatus::pass);
}

TEST(certify, TreeCertifierRejectsCyclicInput) {
  const Graph cyc = gen::cycle(8);
  Decomposition d;
  d.assignment = {0, 0, 0, 0, 1, 1, 1, 1};
  d.num_clusters = 2;
  const Certificate cert = certify_tree_decomposition(cyc, d);
  EXPECT_FALSE(cert.pass);
  expect_check(cert, "forest-input", CheckStatus::fail);
}

// --- Theorem 3.5 support bound --------------------------------------------

TEST(certify, ConfirmsSupportBoundOnFixedDegreeInstances) {
  const Graph graphs[] = {
      gen::torus2d(6, 6, gen::WeightSpec::uniform(1.0, 4.0), 21),
      gen::random_regular(40, 4, gen::WeightSpec::uniform(0.5, 2.0), 22),
      gen::grid2d(7, 6, gen::WeightSpec::lognormal(0.0, 1.0), 23)};
  for (const Graph& g : graphs) {
    const FixedDegreeResult fd = fixed_degree_decomposition(g);
    const Certificate cert = certify_steiner_support(g, fd.decomposition);
    EXPECT_TRUE(cert.pass) << cert.to_text();
    expect_check(cert, "certified-phi", CheckStatus::pass);
    expect_check(cert, "support-bound", CheckStatus::pass);
    const Check* support = cert.find_check("support-bound");
    ASSERT_NE(support, nullptr);
    EXPECT_EQ(support->method, "dense-pencil");  // small instances: exact
    EXPECT_GE(support->measured, 1.0 - 1e-9);    // sigma >= 1 always
  }
}

TEST(certify, ConfirmsSupportBoundOnPlanarishInstances) {
  const Graph g =
      gen::random_planar_triangulation(60, gen::WeightSpec::uniform(1.0, 2.0),
                                       31);
  const PlanarDecompResult pd = planar_decomposition(g);
  const Certificate cert = certify_steiner_support(g, pd.decomposition);
  EXPECT_TRUE(cert.pass) << cert.to_text();
  expect_check(cert, "support-bound", CheckStatus::pass);
}

TEST(certify, SupportBoundLanczosPathOnLargerInstance) {
  // 306 vertices exceeds the dense pencil limit, forcing the matrix-free
  // Lanczos estimate through the Steiner preconditioner application.
  const Graph g = gen::grid2d(18, 17, gen::WeightSpec::uniform(1.0, 2.0), 41);
  const FixedDegreeResult fd = fixed_degree_decomposition(g);
  const Certificate cert = certify_steiner_support(g, fd.decomposition);
  EXPECT_TRUE(cert.pass) << cert.to_text();
  const Check* support = cert.find_check("support-bound");
  ASSERT_NE(support, nullptr);
  EXPECT_EQ(support->method, "lanczos-pencil");
  EXPECT_GE(support->measured, 1.0 - 1e-9);
}

TEST(certify, SupportCertifierRespectsCallerSuppliedPhi) {
  const Graph g = gen::torus2d(5, 5);
  const FixedDegreeResult fd = fixed_degree_decomposition(g);
  const Certificate cert =
      certify_steiner_support(g, fd.decomposition, /*phi=*/0.05);
  EXPECT_TRUE(cert.pass) << cert.to_text();
  // phi was given, so no certified-phi check is emitted.
  EXPECT_EQ(cert.find_check("certified-phi"), nullptr);
  EXPECT_DOUBLE_EQ(cert.phi_target, 0.05);
}

// --- rejection of the corrupt fixtures from test_validate.cpp -------------

TEST(certify, RejectsOrphanVertexPartition) {
  const Graph g = gen::path(4);
  Decomposition d;
  d.assignment = {0, 0, 1};  // vertex 3 orphaned
  d.num_clusters = 2;
  const Certificate cert = certify_decomposition(g, d, 0.1, 1.0);
  EXPECT_FALSE(cert.pass);
  const Check* s = cert.find_check("structure");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->status, CheckStatus::fail);
  EXPECT_NE(s->detail.find("orphan or surplus vertices"), std::string::npos);
}

TEST(certify, RejectsOutOfRangeClusterId) {
  const Graph g = gen::path(3);
  Decomposition d;
  d.assignment = {0, -1, 1};
  d.num_clusters = 2;
  const Certificate cert = certify_decomposition(g, d, 0.1, 1.0);
  EXPECT_FALSE(cert.pass);
  const Check* s = cert.find_check("structure");
  ASSERT_NE(s, nullptr);
  EXPECT_NE(s->detail.find("cluster id out of range"), std::string::npos);
}

TEST(certify, RejectsEmptyClusterId) {
  const Graph g = gen::path(3);
  Decomposition d;
  d.assignment = {0, 0, 2};  // id 1 unused
  d.num_clusters = 3;
  const Certificate cert = certify_decomposition(g, d, 0.1, 1.0);
  EXPECT_FALSE(cert.pass);
  const Check* s = cert.find_check("structure");
  ASSERT_NE(s, nullptr);
  EXPECT_NE(s->detail.find("empty cluster id"), std::string::npos);
}

TEST(certify, RejectsTooManyClusters) {
  const Graph g = gen::path(4);
  Decomposition d;
  d.assignment = {0, 1, 2, 3};
  d.num_clusters = 4;
  const Certificate cert = certify_decomposition(g, d, 0.01, /*rho=*/2.0);
  EXPECT_FALSE(cert.pass);
  expect_check(cert, "cluster-count", CheckStatus::fail);
}

TEST(certify, RejectsLowConductanceCluster) {
  // Two 4-cliques joined by one light edge as a single cluster cannot meet
  // phi = 0.9; the oracle brute-forces the 8-vertex closure exactly.
  std::vector<WeightedEdge> edges;
  for (vidx u = 0; u < 4; ++u) {
    for (vidx v = u + 1; v < 4; ++v) {
      edges.push_back({u, v, 1.0});
      edges.push_back({u + 4, v + 4, 1.0});
    }
  }
  edges.push_back({0, 4, 0.01});
  const Graph g(8, edges);
  Decomposition d;
  d.assignment.assign(8, 0);
  d.num_clusters = 1;
  const Certificate cert = certify_decomposition(g, d, /*phi=*/0.9, 1.0);
  EXPECT_FALSE(cert.pass);
  expect_check(cert, "closure-conductance", CheckStatus::fail);
  ASSERT_EQ(cert.clusters.size(), 1u);
  EXPECT_TRUE(cert.clusters[0].exact);
  EXPECT_LT(cert.clusters[0].phi_lower, 0.9);
}

TEST(certify, RejectsDisconnectedCluster) {
  // {0, 2} vs {1, 3} on a path: both clusters are disconnected, which
  // Decomposition::validate does not catch but the certifier must.
  const Graph g = gen::path(4);
  Decomposition d;
  d.assignment = {0, 1, 0, 1};
  d.num_clusters = 2;
  const Certificate cert = certify_decomposition(g, d, 0.0, 1.0);
  EXPECT_FALSE(cert.pass);
  expect_check(cert, "cluster-connectivity", CheckStatus::fail);
}

TEST(certify, AcceptsHonestDecomposition) {
  const Graph g = gen::grid2d(6, 6);
  const FixedDegreeResult fd = fixed_degree_decomposition(g);
  // Certify against the quality the instance actually has.
  const Certificate cert =
      certify_decomposition(g, fd.decomposition, /*phi=*/1e-3, /*rho=*/1.0);
  EXPECT_TRUE(cert.pass) << cert.to_text();
}

// --- certificate serialization --------------------------------------------

TEST(certify, CertificateJsonIsWellFormed) {
  const Graph tree = gen::random_tree(20, {}, 77);
  const Decomposition d = tree_decomposition(tree);
  const Certificate cert = certify_tree_decomposition(tree, d);
  const obs::JsonValue doc = obs::parse_json(cert.to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("kind").string, "tree");
  EXPECT_TRUE(doc.at("pass").boolean);
  EXPECT_EQ(doc.at("instance").at("vertices").number, 20.0);
  ASSERT_TRUE(doc.at("checks").is_array());
  EXPECT_EQ(doc.at("checks").array.size(), cert.checks.size());
  ASSERT_TRUE(doc.at("cluster_evidence").is_array());
  EXPECT_EQ(doc.at("cluster_evidence").array.size(), cert.clusters.size());
  // Infinite phi bounds on singleton closures must serialize as null, never
  // as bare Inf tokens.
  EXPECT_EQ(cert.to_json().find("inf"), std::string::npos);
}

TEST(certify, CertificateTextNamesEveryCheck) {
  const Graph g = gen::path(4);
  Decomposition d;
  d.assignment = {0, 0, 1, 1};
  d.num_clusters = 2;
  const Certificate cert = certify_decomposition(g, d, 0.0, 1.0);
  const std::string text = cert.to_text();
  for (const Check& c : cert.checks) {
    EXPECT_NE(text.find(c.name), std::string::npos) << text;
  }
}

TEST(certify, FinalizeRequiresANonSkippedCheck) {
  Certificate cert;
  cert.kind = "empty";
  cert.finalize();
  EXPECT_FALSE(cert.pass);  // vacuous certificates never pass
}

}  // namespace
}  // namespace hicond
