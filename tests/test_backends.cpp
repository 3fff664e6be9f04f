// Partitioner-backend registry tests: lookup and canonical options, the
// fixed-degree backend's bitwise equivalence with the direct Section 3.1
// call, validity and connectivity of the Louvain and low-diameter outputs,
// seed determinism of the random-shift construction, the boundary check
// that rejects malformed backend output, and end-to-end hierarchy builds
// with every registered backend.

#include <gtest/gtest.h>
#include <omp.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hicond/graph/closure.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/backends/backend.hpp"
#include "hicond/partition/backends/fixed_degree_backend.hpp"
#include "hicond/partition/backends/louvain.hpp"
#include "hicond/partition/backends/low_diameter.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/solver.hpp"
#include "hicond/util/common.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

Graph test_graph() {
  return gen::grid2d(14, 14, gen::WeightSpec::uniform(0.5, 2.0), 11);
}

void expect_connected_clusters(const Graph& g, const Decomposition& d) {
  d.validate(g);
  const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
  for (vidx c = 0; c < d.num_clusters; ++c) {
    const ClosureGraph closure = closure_graph(g, clusters.members(c));
    EXPECT_TRUE(is_connected(closure.graph)) << "cluster " << c;
  }
}

// --- registry -------------------------------------------------------------

TEST(BackendRegistry, BuiltinsAreRegisteredAndLookupsResolve) {
  std::set<std::string> names;
  for (const partition::PartitionerBackend* b :
       partition::registered_backends()) {
    names.insert(std::string(b->name()));
    EXPECT_EQ(partition::find_backend(b->name()), b);
    EXPECT_EQ(&partition::get_backend(b->name()), b);
  }
  EXPECT_TRUE(names.contains("fixed_degree"));
  EXPECT_TRUE(names.contains("louvain"));
  EXPECT_TRUE(names.contains("lowdiam"));
}

TEST(BackendRegistry, UnknownNameIsNullOrThrows) {
  EXPECT_EQ(partition::find_backend("no_such_backend"), nullptr);
  EXPECT_THROW(static_cast<void>(partition::get_backend("no_such_backend")),
               invalid_argument_error);
  partition::BackendOptions bo;
  bo.backend = "no_such_backend";
  EXPECT_THROW(
      static_cast<void>(partition::checked_decompose(test_graph(), bo)),
      invalid_argument_error);
}

TEST(BackendRegistry, OnlyFixedDegreeSupportsRepair) {
  EXPECT_TRUE(partition::get_backend("fixed_degree").supports_repair());
  EXPECT_FALSE(partition::get_backend("louvain").supports_repair());
  EXPECT_FALSE(partition::get_backend("lowdiam").supports_repair());
}

TEST(BackendRegistry, OptionsKeysCarryTheBackendDiscriminator) {
  const partition::BackendOptions bo;  // identical knobs for every backend
  std::set<std::string> keys;
  for (const partition::PartitionerBackend* b :
       partition::registered_backends()) {
    partition::BackendOptions named = bo;
    named.backend = std::string(b->name());
    const std::string key = partition::backend_options_key(named);
    EXPECT_TRUE(key.starts_with("backend=" + named.backend + ";")) << key;
    keys.insert(key);
  }
  // Same knobs, different backends: every canonical rendering is distinct.
  EXPECT_EQ(keys.size(), partition::registered_backends().size());
}

// --- fixed_degree: the refactor must not change a single bit --------------

TEST(FixedDegreeBackend, BitwiseIdenticalToDirectCall) {
  const Graph g = test_graph();
  partition::BackendOptions bo;
  bo.max_cluster_size = 5;
  bo.seed = 42;
  const Decomposition via_registry = partition::checked_decompose(g, bo);
  const FixedDegreeResult direct = fixed_degree_decomposition(
      g, {.max_cluster_size = 5, .seed = 42});
  EXPECT_EQ(via_registry.assignment, direct.decomposition.assignment);
  EXPECT_EQ(via_registry.num_clusters, direct.decomposition.num_clusters);
  // A standalone instance (bypassing the registry) agrees too.
  const partition::FixedDegreeBackend standalone;
  const Decomposition via_instance = standalone.decompose(g, bo);
  EXPECT_EQ(via_instance.assignment, direct.decomposition.assignment);
}

// --- louvain --------------------------------------------------------------

TEST(LouvainBackend, ProducesValidConnectedNontrivialClusters) {
  const Graph g = test_graph();
  partition::BackendOptions bo;
  bo.backend = "louvain";
  bo.max_cluster_size = 8;
  const Decomposition d = partition::checked_decompose(g, bo);
  expect_connected_clusters(g, d);
  // A grid must actually coarsen under modularity clustering.
  EXPECT_LT(d.num_clusters, g.num_vertices() / 2);
  EXPECT_GT(d.num_clusters, 1);
}

TEST(LouvainBackend, IsDeterministicAndSeedFreeInItsKey) {
  const Graph g = test_graph();
  partition::BackendOptions a;
  a.backend = "louvain";
  partition::BackendOptions b = a;
  b.seed = 999;  // not consumed; must not change the key or the output
  EXPECT_EQ(partition::backend_options_key(a),
            partition::backend_options_key(b));
  const Decomposition da = partition::louvain_decomposition(g, a);
  const Decomposition db = partition::louvain_decomposition(g, b);
  EXPECT_EQ(da.assignment, db.assignment);
}

TEST(LouvainBackend, RejectsBadKnobs) {
  const Graph g = test_graph();
  partition::BackendOptions bo;
  bo.backend = "louvain";
  bo.resolution = 0.0;
  EXPECT_THROW(static_cast<void>(partition::checked_decompose(g, bo)),
               invalid_argument_error);
  bo.resolution = 1.0;
  bo.rounds = 0;
  EXPECT_THROW(static_cast<void>(partition::checked_decompose(g, bo)),
               invalid_argument_error);
}

// --- lowdiam --------------------------------------------------------------

TEST(LowDiameterBackend, ProducesValidConnectedClusters) {
  const Graph g = test_graph();
  partition::BackendOptions bo;
  bo.backend = "lowdiam";
  const Decomposition d = partition::checked_decompose(g, bo);
  expect_connected_clusters(g, d);
  EXPECT_GT(d.num_clusters, 1);
  EXPECT_LT(d.num_clusters, g.num_vertices());
}

TEST(LowDiameterBackend, SameSeedSameBitsDifferentSeedDifferentKey) {
  const Graph g = test_graph();
  partition::BackendOptions a;
  a.backend = "lowdiam";
  a.seed = 7;
  partition::BackendOptions b = a;
  b.seed = 8;
  const Decomposition a1 = partition::checked_decompose(g, a);
  const Decomposition a2 = partition::checked_decompose(g, a);
  EXPECT_EQ(a1.assignment, a2.assignment);
  EXPECT_EQ(a1.num_clusters, a2.num_clusters);
  // Different seed => different canonical options => different cache key,
  // whether or not the sampled shifts happen to produce the same partition.
  EXPECT_NE(partition::backend_options_key(a),
            partition::backend_options_key(b));
}

TEST(LowDiameterBackend, BetaControlsClusterCount) {
  const Graph g = test_graph();
  partition::BackendOptions fine;
  fine.backend = "lowdiam";
  fine.beta = 1.5;
  partition::BackendOptions coarse = fine;
  coarse.beta = 0.1;
  const Decomposition df = partition::checked_decompose(g, fine);
  const Decomposition dc = partition::checked_decompose(g, coarse);
  EXPECT_GT(df.num_clusters, dc.num_clusters);
}

// --- boundary check -------------------------------------------------------

TEST(BackendBoundary, RejectsDisconnectedClusters) {
  // Path a-b-c-d with {a, d} in one cluster: structurally valid but
  // internally disconnected, which the boundary check must reject.
  const Graph g = gen::grid2d(4, 1, gen::WeightSpec::unit(), 1);
  Decomposition d;
  d.assignment = {0, 1, 1, 0};
  d.num_clusters = 2;
  EXPECT_THROW(partition::validate_backend_output(g, d, "test"),
               invalid_argument_error);
}

/// The what() of the invalid_argument_error validate_backend_output throws
/// on (g, d) with the OpenMP thread count set to `threads`; empty when the
/// output is accepted.
std::string boundary_rejection_at(int threads, const Graph& g,
                                  const Decomposition& d) {
  const int ambient = omp_get_max_threads();
  omp_set_num_threads(threads);
  std::string what;
  try {
    partition::validate_backend_output(g, d, "test");
  } catch (const invalid_argument_error& e) {
    what = e.what();
  }
  omp_set_num_threads(ambient);
  return what;
}

TEST(BackendBoundary, SameRejectionAtOneAndFourThreads) {
  // A 64 x 64 grid clustered by rows (each row a connected path), with one
  // defect per case in the last quarter of the vertices and clusters.
  constexpr vidx kSide = 64;
  const Graph g = gen::grid2d(kSide, kSide, gen::WeightSpec::unit(), 1);
  Decomposition rows;
  for (vidx v = 0; v < g.num_vertices(); ++v) rows.assignment.push_back(v / kSide);
  rows.num_clusters = kSide;
  ASSERT_EQ(boundary_rejection_at(4, g, rows), "");
  struct Case {
    const char* needle;
    Decomposition d;
  };
  Decomposition out_of_range = rows;
  out_of_range.assignment[3500] = kSide;
  // The last vertex of row 50 moves to row 52: row 50 stays a path, row 52
  // gains a member it cannot reach.
  Decomposition disconnected = rows;
  disconnected.assignment[50 * kSide + kSide - 1] = 52;
  Decomposition empty_id = rows;
  empty_id.num_clusters = kSide + 1;
  const Case cases[] = {
      {"cluster id out of range", out_of_range},
      {"internally disconnected cluster", disconnected},
      {"empty cluster id", empty_id},
  };
  for (const Case& tc : cases) {
    const std::string serial = boundary_rejection_at(1, g, tc.d);
    EXPECT_NE(serial.find(tc.needle), std::string::npos)
        << "message was: " << serial;
    EXPECT_EQ(boundary_rejection_at(4, g, tc.d), serial) << tc.needle;
  }
}

TEST(BackendBoundary, CheckedDecomposeRejectsAMalformedBackend) {
  // A deliberately broken backend: every vertex with an even id in cluster
  // 0, odd ids in cluster 1 -- disconnected on any 1xN path of length >= 4.
  class ParityBackend final : public partition::PartitionerBackend {
   public:
    [[nodiscard]] std::string_view name() const noexcept override {
      return "test_parity";
    }
    [[nodiscard]] std::string options_key(
        const partition::BackendOptions&) const override {
      return {};
    }
    [[nodiscard]] Decomposition decompose(
        const Graph& g, const partition::BackendOptions&) const override {
      Decomposition d;
      d.assignment.resize(static_cast<std::size_t>(g.num_vertices()));
      for (vidx v = 0; v < g.num_vertices(); ++v) {
        d.assignment[static_cast<std::size_t>(v)] = v % 2;
      }
      d.num_clusters = 2;
      return d;
    }
  };
  partition::register_backend(std::make_unique<ParityBackend>());
  const Graph path = gen::grid2d(6, 1, gen::WeightSpec::unit(), 1);
  partition::BackendOptions bo;
  bo.backend = "test_parity";
  EXPECT_THROW(static_cast<void>(partition::checked_decompose(path, bo)),
               invalid_argument_error);
}

// --- end-to-end: hierarchy and solver with each backend -------------------

TEST(BackendHierarchy, EveryBuiltinBackendBuildsAndSolves) {
  const Graph g = test_graph();
  const vidx n = g.num_vertices();
  Rng rng(3);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  for (const std::string name : {"fixed_degree", "louvain", "lowdiam"}) {
    LaplacianSolverOptions options;
    options.hierarchy.contraction.backend = name;
    options.hierarchy.coarsest_size = 16;
    const LaplacianSolver solver(g, options);
    EXPECT_GE(solver.multilevel().hierarchy().num_levels(), 1) << name;
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    const SolveStats stats = solver.solve(b, x);
    EXPECT_TRUE(stats.converged) << name;
  }
}

}  // namespace
}  // namespace hicond
