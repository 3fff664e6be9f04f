// Targeted edge-case tests for paths not exercised by the main suites:
// degenerate graphs, extreme values, and multi-component behaviour of the
// pipeline stages.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "hicond/certify/oracle.hpp"
#include "hicond/graph/closure.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/io.hpp"
#include "hicond/partition/planar.hpp"
#include "hicond/tree/low_stretch.hpp"
#include "hicond/tree/mst.hpp"

namespace hicond {
namespace {

TEST(ConductanceSweep, ConstantScoresStillValid) {
  const Graph g = gen::grid2d(3, 3);
  std::vector<double> score(9, 1.0);  // all ties: arbitrary but legal order
  const double s = conductance_sweep(g, score);
  EXPECT_GT(s, 0.0);
  EXPECT_GE(s + 1e-12, certify::oracle_conductance_bruteforce(g));
}

TEST(GraphIo, ExtremeWeightsRoundTrip) {
  std::vector<WeightedEdge> edges{{0, 1, 1e-300}, {1, 2, 1e300},
                                  {2, 3, 1.0000000000000002}};
  const Graph g(4, edges);
  std::stringstream ss;
  write_graph(ss, g);
  const Graph back = read_graph(ss);
  EXPECT_EQ(back.edge_list(), g.edge_list());
}

TEST(LowStretch, DisconnectedInputGivesSpanningForest) {
  std::vector<WeightedEdge> edges;
  // Two triangles, no connection.
  for (vidx base : {0, 3}) {
    edges.push_back({base, static_cast<vidx>(base + 1), 1.0});
    edges.push_back({static_cast<vidx>(base + 1), static_cast<vidx>(base + 2),
                     2.0});
    edges.push_back({base, static_cast<vidx>(base + 2), 3.0});
  }
  const Graph g(6, edges);
  const Graph t = low_stretch_tree_akpw(g);
  EXPECT_TRUE(is_forest(t));
  EXPECT_EQ(num_components(t), num_components(g));
  EXPECT_EQ(t.num_edges(), 4);
}

TEST(Mst, SingleVertexAndEmptyGraphs) {
  EXPECT_EQ(max_spanning_forest_kruskal(Graph(1)).num_edges(), 0);
  EXPECT_EQ(max_spanning_forest_boruvka(Graph(0)).num_vertices(), 0);
}

TEST(CutToForest, MultipleComponentsEachHandled) {
  // Component A: theta graph (needs cuts); component B: a tree (untouched).
  std::vector<WeightedEdge> edges{
      {0, 2, 1.0}, {2, 1, 2.0}, {0, 3, 3.0}, {3, 1, 4.0}, {0, 4, 5.0},
      {4, 1, 6.0},                    // theta on {0..4}
      {5, 6, 1.0}, {6, 7, 1.0},       // path component
  };
  const Graph g(8, edges);
  vidx cuts = 0;
  const Graph f = cut_to_forest(g, nullptr, &cuts);
  EXPECT_TRUE(is_forest(f));
  EXPECT_EQ(cuts, 3);
  EXPECT_TRUE(f.has_edge(5, 6));
  EXPECT_TRUE(f.has_edge(6, 7));
}

TEST(PlanarDecomposition, DisconnectedGraphStillDecomposes) {
  std::vector<WeightedEdge> edges;
  const Graph a = gen::grid2d(5, 5, gen::WeightSpec::uniform(1.0, 2.0), 3);
  auto base = a.edge_list();
  // Shift a copy by 25 to form a second component.
  for (const auto& e : base) {
    edges.push_back(e);
    edges.push_back({static_cast<vidx>(e.u + 25),
                     static_cast<vidx>(e.v + 25), e.weight});
  }
  const Graph g(50, edges);
  PlanarDecompOptions opt;
  opt.measure_k = false;
  const auto result = planar_decomposition(g, opt);
  result.decomposition.validate(g);
}

TEST(ConductanceExact, TwoIsolatedVerticesDegenerate) {
  const Graph g(2);
  // No edges: total volume 0; every cut has zero capacity AND zero volume,
  // and the graph is disconnected, so its conductance is exactly 0.
  const ConductanceBounds b = conductance_bounds(g);
  EXPECT_TRUE(b.exact);
  EXPECT_EQ(b.lower, 0.0);
  EXPECT_EQ(b.upper, 0.0);
}

TEST(EvaluateDecomposition, FourMemberGrid3dClusterIsScoredExactly) {
  // Four vertices in a column of a 3D grid, from a face inwards: 4 + 4 + 4
  // + 5 boundary edges give a 21-vertex closure, yet the cluster is scored
  // exactly from its 4 members. Every other vertex is a singleton.
  const Graph g = gen::grid3d(6, 6, 6, gen::WeightSpec::uniform(1.0, 2.0), 5);
  // (2, 2, z) for z = 0..3; vertex (x, y, z) is x + 6 (y + 6 z).
  const vidx base = 2 + 6 * 2;
  const std::vector<vidx> column{base, base + 36, base + 72, base + 108};
  Decomposition d;
  d.assignment.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (const vidx v : column) d.assignment[static_cast<std::size_t>(v)] = 0;
  d.num_clusters = 1;
  for (auto& c : d.assignment) {
    if (c == -1) c = d.num_clusters++;
  }
  const Graph closure = closure_graph(g, column).graph;
  ASSERT_EQ(closure.num_vertices(), 21);
  const DecompositionStats stats = evaluate_decomposition(g, d);
  EXPECT_TRUE(stats.phi_exact);
  EXPECT_EQ(stats.min_phi_lower, stats.min_phi_upper);
  // Singletons score 1, so the column is the minimum.
  const double want = certify::oracle_conductance_bruteforce(closure);
  EXPECT_LT(want, 1.0);
  EXPECT_LE(std::abs(stats.min_phi_lower - want), 1e-12 * want)
      << stats.min_phi_lower << " vs " << want;
}

}  // namespace
}  // namespace hicond
