// Unit tests for the dynamic subsystem: edge-update batches over immutable
// CSR graphs (dynamic/update.hpp) and local hierarchy repair
// (dynamic/repair.hpp), plus the HierarchyCache update-in-place path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dipole.hpp"
#include "hicond/certify/certify.hpp"
#include "hicond/certify/oracle.hpp"
#include "hicond/dynamic/repair.hpp"
#include "hicond/dynamic/update.hpp"
#include "hicond/graph/builder.hpp"
#include "hicond/graph/closure.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/graph.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/serve/cache.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/solver.hpp"
#include "hicond/util/common.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

using dynamic::EdgeUpdate;
using dynamic::UpdateKind;

Graph path3() {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  return b.build();
}

/// std::span cannot bind a braced list; funnel literals through a vector.
Graph apply(const Graph& g, std::vector<EdgeUpdate> ups) {
  return dynamic::apply_updates(g, ups);
}

// ---------------------------------------------------------------------------
// apply_updates semantics
// ---------------------------------------------------------------------------

TEST(ApplyUpdates, InsertAddsEdgeAndKeepsBaseUntouched) {
  const Graph g = path3();
  const std::vector<EdgeUpdate> batch{
      {UpdateKind::insert, 2, 0, 1.5}};  // unordered endpoints
  const Graph h = dynamic::apply_updates(g, batch);
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_TRUE(h.has_edge(0, 2));
  EXPECT_DOUBLE_EQ(h.edge_weight(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(h.edge_weight(0, 1), 1.0);
  EXPECT_FALSE(g.has_edge(0, 2)) << "base graph must be immutable";
  h.validate();
}

TEST(ApplyUpdates, DeleteLastEdgeOfVertexLeavesItIsolated) {
  const Graph g = path3();
  const Graph h =
      apply(g, {{UpdateKind::remove, 0, 1, 0.0}});
  EXPECT_EQ(h.num_edges(), 1);
  EXPECT_EQ(h.degree(0), 0);
  EXPECT_DOUBLE_EQ(h.vol(0), 0.0);
  EXPECT_FALSE(is_connected(h));
  h.validate();
}

TEST(ApplyUpdates, ReweightReplacesWeight) {
  const Graph g = path3();
  const Graph h =
      apply(g, {{UpdateKind::reweight, 1, 2, 0.25}});
  EXPECT_DOUBLE_EQ(h.edge_weight(1, 2), 0.25);
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(ApplyUpdates, ValidatesAgainstRunningBatchState) {
  const Graph g = path3();
  // Insert of a present edge -- present in the base graph...
  EXPECT_THROW((void)apply(
                   g, {{UpdateKind::insert, 0, 1, 1.0}}),
               invalid_argument_error);
  // ...or present because an earlier update in the same batch added it.
  EXPECT_THROW((void)apply(
                   g, {{UpdateKind::insert, 0, 2, 1.0},
                        {UpdateKind::insert, 2, 0, 1.0}}),
               invalid_argument_error);
  // Delete/reweight of an absent edge.
  EXPECT_THROW((void)apply(
                   g, {{UpdateKind::remove, 0, 2, 0.0}}),
               invalid_argument_error);
  EXPECT_THROW((void)apply(
                   g, {{UpdateKind::reweight, 0, 2, 1.0}}),
               invalid_argument_error);
  // Delete-then-reweight of the same edge: absent at that point in the batch.
  EXPECT_THROW((void)apply(
                   g, {{UpdateKind::remove, 0, 1, 0.0},
                        {UpdateKind::reweight, 0, 1, 2.0}}),
               invalid_argument_error);
}

TEST(ApplyUpdates, RejectsBadWeightsAndEndpoints) {
  const Graph g = path3();
  EXPECT_THROW((void)apply(
                   g, {{UpdateKind::reweight, 0, 1, 0.0}}),
               invalid_argument_error)
      << "reweight-to-zero must be rejected (deletion is a separate op)";
  EXPECT_THROW((void)apply(
                   g, {{UpdateKind::insert, 0, 2, -1.0}}),
               invalid_argument_error);
  EXPECT_THROW((void)apply(
                   g, {{UpdateKind::insert, 1, 1, 1.0}}),
               invalid_argument_error);
  EXPECT_THROW((void)apply(
                   g, {{UpdateKind::insert, 0, 3, 1.0}}),
               invalid_argument_error);
}

TEST(ApplyUpdates, EmptyBatchPreservesFingerprint) {
  const Graph g = gen::grid2d(5, 5, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const Graph h = dynamic::apply_updates(g, {});
  EXPECT_TRUE(h.identical_to(g));
  EXPECT_EQ(serve::graph_fingerprint(h), serve::graph_fingerprint(g));
}

TEST(ApplyUpdates, NetNoOpBatchPreservesFingerprint) {
  const Graph g = path3();
  const std::uint64_t fp = serve::graph_fingerprint(g);
  // Insert + delete of the same edge inside one batch cancels exactly.
  const Graph h = apply(
      g, {{UpdateKind::insert, 0, 2, 1.0}, {UpdateKind::remove, 0, 2, 0.0}});
  EXPECT_EQ(serve::graph_fingerprint(h), fp);
  EXPECT_TRUE(h.identical_to(g));
}

// The regression the serving stack depends on: because apply_updates
// re-emits rows in canonical sorted order, an insert followed by the
// matching delete in a *later* batch restores the fingerprint bit for bit.
TEST(ApplyUpdates, InsertDeleteRoundTripRestoresFingerprint) {
  const Graph g = gen::grid2d(6, 6, gen::WeightSpec::uniform(1.0, 4.0), 11);
  const std::uint64_t fp = serve::graph_fingerprint(g);
  const std::vector<EdgeUpdate> inserts{{UpdateKind::insert, 0, 35, 2.5},
                                        {UpdateKind::insert, 3, 20, 0.75}};
  const Graph mid = dynamic::apply_updates(g, inserts);
  EXPECT_NE(serve::graph_fingerprint(mid), fp);
  const Graph back = apply(
      mid, {{UpdateKind::remove, 0, 35, 0.0},
             {UpdateKind::remove, 3, 20, 0.0}});
  EXPECT_EQ(serve::graph_fingerprint(back), fp);
  EXPECT_TRUE(back.identical_to(g));
}

TEST(ApplyUpdates, ReweightRoundTripRestoresFingerprint) {
  const Graph g = path3();
  const std::uint64_t fp = serve::graph_fingerprint(g);
  const Graph mid =
      apply(g, {{UpdateKind::reweight, 0, 1, 9.0}});
  const Graph back =
      apply(mid, {{UpdateKind::reweight, 0, 1, 1.0}});
  EXPECT_EQ(serve::graph_fingerprint(back), fp);
}

TEST(TouchedVertices, SortedAndDeduplicated) {
  const std::vector<EdgeUpdate> batch{{UpdateKind::insert, 4, 2, 1.0},
                                      {UpdateKind::remove, 2, 0, 0.0},
                                      {UpdateKind::reweight, 4, 0, 2.0}};
  const std::vector<vidx> touched = dynamic::touched_vertices(batch);
  EXPECT_EQ(touched, (std::vector<vidx>{0, 2, 4}));
}

TEST(ParseUpdates, WireFormRoundTrip) {
  const obs::JsonValue doc = obs::parse_json(
      R"([{"kind":"insert","u":0,"v":2,"weight":1.5},)"
      R"({"kind":"delete","u":1,"v":2},)"
      R"({"kind":"reweight","u":0,"v":1,"weight":3.0}])");
  const std::vector<EdgeUpdate> batch = dynamic::parse_updates(doc, 16);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], (EdgeUpdate{UpdateKind::insert, 0, 2, 1.5}));
  EXPECT_EQ(batch[1].kind, UpdateKind::remove);
  EXPECT_EQ(batch[2], (EdgeUpdate{UpdateKind::reweight, 0, 1, 3.0}));
}

TEST(ParseUpdates, RejectsMalformedInput) {
  EXPECT_THROW((void)dynamic::parse_updates(
                   obs::parse_json(R"([{"kind":"nope","u":0,"v":1}])"), 16),
               invalid_argument_error);
  EXPECT_THROW((void)dynamic::parse_updates(
                   obs::parse_json(R"([{"kind":"insert","u":0,"v":1}])"), 16),
               invalid_argument_error)
      << "insert without a weight";
  EXPECT_THROW((void)dynamic::parse_updates(
                   obs::parse_json(R"([1, 2])"), 16),
               invalid_argument_error);
  EXPECT_THROW((void)dynamic::parse_updates(
                   obs::parse_json(R"([{"kind":"delete","u":0,"v":1}])"), 0),
               invalid_argument_error)
      << "max_updates cap";
}

// ---------------------------------------------------------------------------
// repair_decomposition
// ---------------------------------------------------------------------------

HierarchyOptions small_hierarchy_options() {
  HierarchyOptions ho;
  ho.coarsest_size = 8;
  return ho;
}

/// First intra-cluster edge of the level-0 decomposition (u < v).
std::pair<vidx, vidx> intra_cluster_edge(const Graph& g,
                                         const Decomposition& d) {
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    for (const vidx v : g.neighbors(u)) {
      if (u < v && d.assignment[static_cast<std::size_t>(u)] ==
                       d.assignment[static_cast<std::size_t>(v)]) {
        return {u, v};
      }
    }
  }
  ADD_FAILURE() << "no intra-cluster edge found";
  return {0, 0};
}

TEST(RepairDecomposition, ReweightCollapseDirtiesOnlyLocalClusters) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 5);
  const HierarchyOptions ho = small_hierarchy_options();
  const LaminarHierarchy old = build_hierarchy(g, ho);
  ASSERT_FALSE(old.levels.empty());
  const Decomposition& d0 = old.levels.front().decomposition;

  // Collapse one intra-cluster edge to epsilon: that cluster's closure
  // conductance drops below any reasonable floor -> dirty.
  const auto [u, v] = intra_cluster_edge(g, d0);
  const std::vector<EdgeUpdate> batch{{UpdateKind::reweight, u, v, 1e-9}};
  const Graph h = dynamic::apply_updates(g, batch);

  const dynamic::RepairResult rr =
      dynamic::repair_decomposition(h, batch, old, ho);
  ASSERT_TRUE(rr.repaired) << rr.decline_reason;
  EXPECT_GE(rr.clusters_dirty, 1);
  EXPECT_GE(rr.clusters_touched, rr.clusters_dirty);
  // Locality: the dissolved set is the dirty clusters plus a 1-hop halo,
  // a small fraction of the decomposition, not a global rebuild.
  EXPECT_LT(rr.clusters_touched, d0.num_clusters);
  EXPECT_LE(rr.dirty_volume_fraction, 0.25);

  // The repaired level-0 decomposition is a valid decomposition of the new
  // graph and preserves the partition of every untouched cluster.
  ASSERT_FALSE(rr.hierarchy.levels.empty());
  const Decomposition& d_new = rr.hierarchy.levels.front().decomposition;
  d_new.validate(h);
  std::vector<char> dissolved_flag(
      static_cast<std::size_t>(d0.num_clusters), 0);
  for (const vidx c : rr.dissolved) {
    dissolved_flag[static_cast<std::size_t>(c)] = 1;
  }
  const auto old_clusters = ClusterIndex::build(d0.assignment, d0.num_clusters);
  for (vidx c = 0; c < d0.num_clusters; ++c) {
    if (dissolved_flag[static_cast<std::size_t>(c)]) continue;
    const auto mem = old_clusters.members(c);
    for (std::size_t i = 1; i < mem.size(); ++i) {
      EXPECT_EQ(d_new.assignment[static_cast<std::size_t>(mem[i])],
                d_new.assignment[static_cast<std::size_t>(mem[0])])
          << "untouched cluster " << c << " was split by the repair";
    }
  }

  // Independent oracle: the repaired decomposition certifies structurally.
  const certify::Certificate cert =
      certify::certify_decomposition(h, d_new, 0.0, 1.0);
  EXPECT_TRUE(cert.pass) << cert.to_text();

  // The hierarchy is consumable end to end: a solver built from it solves.
  const LaplacianSolver solver(h, rr.hierarchy);
  const std::vector<double> b = test::dipole(h);
  std::vector<double> x(b.size(), 0.0);
  EXPECT_TRUE(solver.solve(b, x).converged);
}

TEST(RepairDecomposition, InternallyDisconnectedClusterIsDirty) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 5);
  const HierarchyOptions ho = small_hierarchy_options();
  const LaminarHierarchy old = build_hierarchy(g, ho);
  ASSERT_FALSE(old.levels.empty());
  const Decomposition& d0 = old.levels.front().decomposition;
  const auto clusters = ClusterIndex::build(d0.assignment, d0.num_clusters);

  // Find an intra-cluster edge whose removal disconnects the cluster's
  // induced subgraph while the grid as a whole stays connected. Fixed-degree
  // clusters are mostly trees, so such a bridge edge exists.
  vidx bu = -1;
  vidx bv = -1;
  for (vidx u = 0; u < g.num_vertices() && bu < 0; ++u) {
    for (const vidx v : g.neighbors(u)) {
      if (u >= v) continue;
      const vidx c = d0.assignment[static_cast<std::size_t>(u)];
      if (c != d0.assignment[static_cast<std::size_t>(v)]) continue;
      if (clusters.members(c).size() < 2) continue;
      const std::vector<EdgeUpdate> probe{{UpdateKind::remove, u, v, 0.0}};
      const Graph h = dynamic::apply_updates(g, probe);
      const Graph cluster_sub = induced_subgraph(h, clusters.members(c));
      if (!is_connected(cluster_sub) && is_connected(h)) {
        bu = u;
        bv = v;
        break;
      }
    }
  }
  ASSERT_GE(bu, 0) << "no cluster-internal bridge edge in the 8x8 grid";

  const std::vector<EdgeUpdate> batch{{UpdateKind::remove, bu, bv, 0.0}};
  const Graph h = dynamic::apply_updates(g, batch);
  const dynamic::RepairResult rr =
      dynamic::repair_decomposition(h, batch, old, ho);
  ASSERT_TRUE(rr.repaired) << rr.decline_reason;
  EXPECT_GE(rr.clusters_dirty, 1)
      << "a disconnected cluster must be marked dirty";
  rr.hierarchy.levels.front().decomposition.validate(h);
  const certify::Certificate cert = certify::certify_decomposition(
      h, rr.hierarchy.levels.front().decomposition, 0.0, 1.0);
  EXPECT_TRUE(cert.pass) << cert.to_text();
}

TEST(RepairDecomposition, CleanReweightKeepsUpperHierarchy) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 5);
  const HierarchyOptions ho = small_hierarchy_options();
  const LaminarHierarchy old = build_hierarchy(g, ho);
  ASSERT_GE(old.levels.size(), 2u);
  const Decomposition& d0 = old.levels.front().decomposition;

  // A modest *increase* of an intra-cluster weight keeps every conductance
  // above the floor and leaves the quotient (crossing weights only)
  // bitwise unchanged -> no cluster dissolves, upper levels are reused.
  const auto [u, v] = intra_cluster_edge(g, d0);
  const std::vector<EdgeUpdate> batch{
      {UpdateKind::reweight, u, v, g.edge_weight(u, v) * 2.0}};
  const Graph h = dynamic::apply_updates(g, batch);
  const dynamic::RepairResult rr =
      dynamic::repair_decomposition(h, batch, old, ho);
  ASSERT_TRUE(rr.repaired) << rr.decline_reason;
  EXPECT_EQ(rr.clusters_dirty, 0);
  EXPECT_EQ(rr.clusters_touched, 0);
  EXPECT_TRUE(rr.dissolved.empty());
  EXPECT_FALSE(rr.upper_rebuilt);
  ASSERT_EQ(rr.hierarchy.levels.size(), old.levels.size());
  EXPECT_TRUE(rr.hierarchy.coarsest.identical_to(old.coarsest));
  for (std::size_t l = 1; l < old.levels.size(); ++l) {
    EXPECT_TRUE(rr.hierarchy.levels[l].graph.identical_to(old.levels[l].graph));
  }
}

TEST(RepairDecomposition, CrossingReweightRebuildsUpperOnly) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 5);
  const HierarchyOptions ho = small_hierarchy_options();
  const LaminarHierarchy old = build_hierarchy(g, ho);
  ASSERT_FALSE(old.levels.empty());
  const Decomposition& d0 = old.levels.front().decomposition;

  // Find a crossing edge and raise its weight: the level-0 partition can
  // survive (no closure got worse for the incident clusters' floors), but
  // the quotient weight changes, so the upper hierarchy must be rebuilt.
  vidx cu = -1;
  vidx cv = -1;
  for (vidx u = 0; u < g.num_vertices() && cu < 0; ++u) {
    for (const vidx v : g.neighbors(u)) {
      if (u < v && d0.assignment[static_cast<std::size_t>(u)] !=
                       d0.assignment[static_cast<std::size_t>(v)]) {
        cu = u;
        cv = v;
        break;
      }
    }
  }
  ASSERT_GE(cu, 0);
  const std::vector<EdgeUpdate> batch{
      {UpdateKind::reweight, cu, cv, g.edge_weight(cu, cv) * 1.5}};
  const Graph h = dynamic::apply_updates(g, batch);
  const dynamic::RepairResult rr =
      dynamic::repair_decomposition(h, batch, old, ho);
  ASSERT_TRUE(rr.repaired) << rr.decline_reason;
  EXPECT_TRUE(rr.upper_rebuilt);
  // And the rebuilt hierarchy matches what a from-scratch build of the
  // quotient (with the same seed schedule) produces at its base.
  const Graph quotient = quotient_graph(
      h, rr.hierarchy.levels.front().decomposition.assignment);
  ASSERT_GE(rr.hierarchy.levels.size(), 2u);
  EXPECT_TRUE(rr.hierarchy.levels[1].graph.identical_to(quotient));
}

TEST(RepairDecomposition, DeclinesWhenDirtyRegionTooLarge) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 5);
  const HierarchyOptions ho = small_hierarchy_options();
  const LaminarHierarchy old = build_hierarchy(g, ho);
  const auto [u, v] =
      intra_cluster_edge(g, old.levels.front().decomposition);
  const std::vector<EdgeUpdate> batch{{UpdateKind::reweight, u, v, 1e-9}};
  const Graph h = dynamic::apply_updates(g, batch);
  dynamic::RepairOptions ro;
  ro.max_dirty_volume_fraction = 1e-9;  // any dirty region is "too large"
  const dynamic::RepairResult rr =
      dynamic::repair_decomposition(h, batch, old, ho, ro);
  EXPECT_FALSE(rr.repaired);
  EXPECT_EQ(rr.decline_reason, "dirty_volume_exceeded");
  EXPECT_GE(rr.clusters_dirty, 1);
}

TEST(RepairDecomposition, DirtyCountMatchesExactClosureOracle) {
  // A bulk stroke: 5% of the edges weakened to [1e-3, 0.1].
  const Graph g = gen::grid2d(24, 24, gen::WeightSpec::uniform(1.0, 2.0), 7);
  const HierarchyOptions ho;
  const LaminarHierarchy old = build_hierarchy(g, ho);
  ASSERT_FALSE(old.levels.empty());
  const Decomposition& d0 = old.levels.front().decomposition;
  const std::vector<WeightedEdge> edges = g.edge_list();
  Rng rng(2024);
  std::vector<EdgeUpdate> batch;
  for (const WeightedEdge& e : edges) {
    if (rng.uniform() < 0.05) {
      batch.push_back({UpdateKind::reweight, e.u, e.v, rng.uniform(1e-3, 0.1)});
    }
  }
  ASSERT_FALSE(batch.empty());
  const Graph h = dynamic::apply_updates(g, batch);
  dynamic::RepairOptions ro;
  ro.max_dirty_volume_fraction = 1.0;  // never decline: scan every candidate
  const dynamic::RepairResult rr =
      dynamic::repair_decomposition(h, batch, old, ho, ro);
  ASSERT_TRUE(rr.repaired) << rr.decline_reason;

  // Oracle: build each candidate's closure graph and score it against the
  // default floor 1 / (2 d^2 k). Brute force decides closures of up to 16
  // vertices; beyond that the oracle's certified bounds (Lanczos converges
  // exactly at this size) decide unless the floor falls between them.
  const double d = static_cast<double>(h.max_degree());
  const double floor =
      1.0 / (2.0 * d * d *
             static_cast<double>(ho.contraction.max_cluster_size));
  std::vector<vidx> candidates;
  for (const vidx v : dynamic::touched_vertices(batch)) {
    candidates.push_back(d0.assignment[static_cast<std::size_t>(v)]);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const auto clusters = ClusterIndex::build(d0.assignment, d0.num_clusters);
  vidx oracle_dirty = 0;
  for (const vidx c : candidates) {
    const Graph closure = closure_graph(h, clusters.members(c)).graph;
    ASSERT_LE(closure.num_vertices(), 24) << "cluster " << c;
    // A disconnected closure scores exactly 0, so it is always dirty.
    const certify::OracleConductance b =
        certify::oracle_conductance(closure, /*exact_limit=*/16);
    const bool decided = b.upper < floor || b.lower >= floor;
    const bool dirty =
        decided ? b.upper < floor
                : certify::oracle_conductance_bruteforce(closure) < floor;
    if (dirty) ++oracle_dirty;
  }
  EXPECT_GT(oracle_dirty, 0);
  EXPECT_EQ(rr.clusters_dirty, oracle_dirty);
}

TEST(RepairDecomposition, DeclinesFlatHierarchy) {
  const Graph g = gen::grid2d(2, 2, gen::WeightSpec::uniform(1.0, 2.0), 1);
  HierarchyOptions ho;
  ho.coarsest_size = 256;  // 4-vertex graph is already coarsest-sized
  const LaminarHierarchy old = build_hierarchy(g, ho);
  ASSERT_TRUE(old.levels.empty());
  const std::vector<EdgeUpdate> batch{{UpdateKind::insert, 0, 3, 1.0}};
  const Graph h = dynamic::apply_updates(g, batch);
  const dynamic::RepairResult rr =
      dynamic::repair_decomposition(h, batch, old, ho);
  EXPECT_FALSE(rr.repaired);
  EXPECT_EQ(rr.decline_reason, "flat_hierarchy");
}

TEST(RepairDecomposition, DeclinesNonFixedDegreeBackends) {
  // Repair's splice re-runs the Section 3.1 clustering on the dirty region;
  // for any other contraction backend it must step aside and let the cache
  // do the canonical cold rebuild.
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 5);
  for (const std::string backend : {"louvain", "lowdiam"}) {
    HierarchyOptions ho = small_hierarchy_options();
    ho.contraction.backend = backend;
    const LaminarHierarchy old = build_hierarchy(g, ho);
    ASSERT_FALSE(old.levels.empty()) << backend;
    const std::vector<EdgeUpdate> batch{{UpdateKind::insert, 0, 9, 1.0}};
    const Graph h = dynamic::apply_updates(g, batch);
    const dynamic::RepairResult rr =
        dynamic::repair_decomposition(h, batch, old, ho);
    EXPECT_FALSE(rr.repaired) << backend;
    EXPECT_EQ(rr.decline_reason, "backend_unsupported") << backend;
  }
}

// ---------------------------------------------------------------------------
// Solver reuse + cache update path
// ---------------------------------------------------------------------------

// The reuse overload's contract: sharing the coarsest factorization is an
// optimization only -- the solver behaves bitwise identically.
TEST(SolverReuse, PrebuiltHierarchyWithReuseIsBitwiseIdentical) {
  const Graph g = gen::grid2d(7, 7, gen::WeightSpec::uniform(1.0, 2.0), 9);
  LaplacianSolverOptions opt;
  opt.hierarchy = small_hierarchy_options();
  const LaplacianSolver cold(g, build_hierarchy(g, opt.hierarchy), opt);
  const LaplacianSolver reused(g, build_hierarchy(g, opt.hierarchy), opt,
                               &cold.multilevel());
  const std::vector<double> b = test::dipole(g);
  std::vector<double> x1(b.size(), 0.0);
  std::vector<double> x2(b.size(), 0.0);
  const SolveStats s1 = cold.solve(b, x1);
  const SolveStats s2 = reused.solve(b, x2);
  EXPECT_EQ(s1.iterations, s2.iterations);
  EXPECT_EQ(x1, x2) << "reuse changed the solve bit pattern";
}

TEST(HierarchyCacheUpdate, RepairsResidentEntryAndIsIdempotent) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 2.0), 5);
  const std::uint64_t fp = serve::graph_fingerprint(g);
  LaplacianSolverOptions opt;
  opt.hierarchy = small_hierarchy_options();
  serve::HierarchyCache cache(std::size_t{64} << 20);
  const auto warm = cache.get_or_build(fp, g, opt);
  ASSERT_NE(warm.solver, nullptr);

  const auto [u, v] = intra_cluster_edge(
      g, warm.solver->multilevel().hierarchy().levels.front().decomposition);
  const std::vector<EdgeUpdate> batch{{UpdateKind::reweight, u, v, 1e-9}};
  const Graph h = dynamic::apply_updates(g, batch);
  const std::uint64_t new_fp = serve::graph_fingerprint(h);
  ASSERT_NE(new_fp, fp);

  const auto first = cache.update_entry(fp, new_fp, h, batch, opt);
  ASSERT_NE(first.solver, nullptr);
  EXPECT_TRUE(first.repaired) << first.decline_reason;
  EXPECT_FALSE(first.already_cached);
  EXPECT_GE(first.clusters_touched, 1);
  EXPECT_TRUE(first.solver->graph().identical_to(h));

  // Retry (what a router replays after a worker death): lands exactly once.
  const auto retry = cache.update_entry(fp, new_fp, h, batch, opt);
  EXPECT_TRUE(retry.already_cached);
  EXPECT_EQ(retry.solver.get(), first.solver.get());

  // The new entry serves solves.
  const std::vector<double> b = test::dipole(h);
  std::vector<double> x(b.size(), 0.0);
  EXPECT_TRUE(first.solver->solve(b, x).converged);
}

TEST(HierarchyCacheUpdate, FallsBackToColdBuildWithAReason) {
  const Graph g = gen::grid2d(6, 6, gen::WeightSpec::uniform(1.0, 2.0), 7);
  const std::uint64_t fp = serve::graph_fingerprint(g);
  LaplacianSolverOptions opt;
  opt.hierarchy = small_hierarchy_options();
  const std::vector<EdgeUpdate> batch{{UpdateKind::insert, 0, 14, 1.0}};
  const Graph h = dynamic::apply_updates(g, batch);
  const std::uint64_t new_fp = serve::graph_fingerprint(h);

  {
    // Old fingerprint never loaded: decline, but still a working solver.
    serve::HierarchyCache cache(std::size_t{64} << 20);
    const auto out = cache.update_entry(fp, new_fp, h, batch, opt);
    ASSERT_NE(out.solver, nullptr);
    EXPECT_FALSE(out.repaired);
    EXPECT_EQ(out.decline_reason, "old_fingerprint_not_cached");
    EXPECT_TRUE(out.solver->graph().identical_to(h));
  }
  {
    // Repair disabled (the `update` op's "mode":"rebuild").
    serve::HierarchyCache cache(std::size_t{64} << 20);
    (void)cache.get_or_build(fp, g, opt);
    const auto out = cache.update_entry(fp, new_fp, h, batch, opt, {},
                                        /*allow_repair=*/false);
    EXPECT_FALSE(out.repaired);
    EXPECT_EQ(out.decline_reason, "repair_disabled");
    // The forced-rebuild entry is bitwise the cold-build solver: this is
    // what makes `mode:"rebuild"` comparable against a cold snapshot load.
    const LaplacianSolver cold(h, opt);
    const std::vector<double> b = test::dipole(h);
    std::vector<double> x1(b.size(), 0.0);
    std::vector<double> x2(b.size(), 0.0);
    (void)out.solver->solve(b, x1);
    (void)cold.solve(b, x2);
    EXPECT_EQ(x1, x2);
  }
}

TEST(HierarchyCacheUpdate, NonFixedDegreeBackendTakesColdRebuildFallback) {
  // An update against a louvain-built entry: repair declines with
  // "backend_unsupported" and the cache installs the cold-build solver for
  // the new fingerprint -- bitwise the same as a fresh load of the mutated
  // graph under the same options.
  const Graph g = gen::grid2d(6, 6, gen::WeightSpec::uniform(1.0, 2.0), 7);
  const std::uint64_t fp = serve::graph_fingerprint(g);
  LaplacianSolverOptions opt;
  opt.hierarchy = small_hierarchy_options();
  opt.hierarchy.contraction.backend = "louvain";
  const std::vector<EdgeUpdate> batch{{UpdateKind::insert, 0, 14, 1.0}};
  const Graph h = dynamic::apply_updates(g, batch);
  const std::uint64_t new_fp = serve::graph_fingerprint(h);

  serve::HierarchyCache cache(std::size_t{64} << 20);
  (void)cache.get_or_build(fp, g, opt);
  const auto out = cache.update_entry(fp, new_fp, h, batch, opt);
  ASSERT_NE(out.solver, nullptr);
  EXPECT_FALSE(out.repaired);
  EXPECT_EQ(out.decline_reason, "backend_unsupported");
  EXPECT_TRUE(out.solver->graph().identical_to(h));

  const LaplacianSolver cold(h, opt);
  const std::vector<double> b = test::dipole(h);
  std::vector<double> x1(b.size(), 0.0);
  std::vector<double> x2(b.size(), 0.0);
  (void)out.solver->solve(b, x1);
  (void)cold.solve(b, x2);
  EXPECT_EQ(x1, x2);
}

}  // namespace
}  // namespace hicond
