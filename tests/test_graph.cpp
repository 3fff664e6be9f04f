#include "hicond/graph/graph.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "block_layout.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

Graph triangle() {
  const std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 3.0}};
  return Graph(3, edges);
}

TEST(Graph, EmptyGraph) {
  Graph g(5);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.total_volume(), 0.0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.num_arcs(), 6);
  EXPECT_DOUBLE_EQ(g.vol(0), 4.0);
  EXPECT_DOUBLE_EQ(g.vol(1), 3.0);
  EXPECT_DOUBLE_EQ(g.vol(2), 5.0);
  EXPECT_DOUBLE_EQ(g.total_volume(), 12.0);
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(Graph, EdgeWeightLookup) {
  const Graph g = triangle();
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 3.0);
}

TEST(Graph, HasEdge) {
  const std::vector<WeightedEdge> edges{{0, 1, 1.0}};
  const Graph g(3, edges);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(Graph, ParallelEdgesMerge) {
  const std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 0, 2.5}};
  const Graph g(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 3.5);
}

TEST(Graph, EdgeListRoundTrip) {
  const Graph g = triangle();
  const auto edges = g.edge_list();
  ASSERT_EQ(edges.size(), 3u);
  const Graph g2(3, edges);
  for (vidx u = 0; u < 3; ++u) {
    for (vidx v = 0; v < 3; ++v) {
      EXPECT_DOUBLE_EQ(g.edge_weight(u, v), g2.edge_weight(u, v));
    }
  }
}

TEST(Graph, NeighborsSortedAndAligned) {
  const Graph g = gen::grid2d(4, 4, gen::WeightSpec::uniform(1.0, 2.0), 3);
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    ASSERT_EQ(nbrs.size(), ws.size());
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1], nbrs[i]);
    }
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_DOUBLE_EQ(g.edge_weight(v, nbrs[i]), ws[i]);
    }
  }
}

TEST(Graph, LaplacianApplyKillsConstants) {
  const Graph g = gen::grid2d(5, 5, gen::WeightSpec::uniform(0.5, 3.0), 7);
  std::vector<double> x(25, 4.2);
  std::vector<double> y(25);
  g.laplacian_apply(x, y);
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Graph, LaplacianApplyMatchesQuadraticForm) {
  const Graph g = gen::grid3d(3, 3, 3, gen::WeightSpec::uniform(1.0, 5.0), 9);
  std::vector<double> x(27);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>((i * 7) % 11) - 5.0;
  }
  std::vector<double> y(27);
  g.laplacian_apply(x, y);
  double xty = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) xty += x[i] * y[i];
  EXPECT_NEAR(xty, g.laplacian_quadratic(x), 1e-9);
}

TEST(Graph, QuadraticFormOfEdgeIndicator) {
  const Graph g = triangle();
  // x = e_0: x' L x = vol(0).
  std::vector<double> x{1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(g.laplacian_quadratic(x), 4.0);
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  const Graph g = gen::grid2d(3, 3, gen::WeightSpec::unit(), 1);
  const std::vector<vidx> verts{0, 1, 3, 4};  // top-left 2x2 block
  std::vector<vidx> map;
  const Graph sub = induced_subgraph(g, verts, &map);
  EXPECT_EQ(sub.num_vertices(), 4);
  EXPECT_EQ(sub.num_edges(), 4);  // the 2x2 square
  EXPECT_EQ(map[0], 0);
  EXPECT_EQ(map[4], 3);
  EXPECT_EQ(map[8], -1);
}

TEST(InducedSubgraph, RejectsDuplicates) {
  const Graph g = triangle();
  const std::vector<vidx> verts{0, 0};
  EXPECT_THROW((void)induced_subgraph(g, verts), invalid_argument_error);
}

TEST(Graph, ArcAccessorsConsistentWithAdjacency) {
  const Graph g = gen::grid2d(4, 4, gen::WeightSpec::uniform(1.0, 2.0), 5);
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    const eidx base = g.arc_begin(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(g.arc_target(base + static_cast<eidx>(i)), nbrs[i]);
      EXPECT_DOUBLE_EQ(g.arc_weight(base + static_cast<eidx>(i)), ws[i]);
    }
  }
}

TEST(GraphValidation, RejectsBadEdges) {
  std::vector<WeightedEdge> self{{0, 0, 1.0}};
  EXPECT_THROW(Graph(2, self), invalid_argument_error);
  std::vector<WeightedEdge> range{{0, 5, 1.0}};
  EXPECT_THROW(Graph(2, range), invalid_argument_error);
  std::vector<WeightedEdge> nonpos{{0, 1, 0.0}};
  EXPECT_THROW(Graph(2, nonpos), invalid_argument_error);
  std::vector<WeightedEdge> neg{{0, 1, -1.0}};
  EXPECT_THROW(Graph(2, neg), invalid_argument_error);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- shared storage -------------------------------------------------------

/// Serial checksum over every row of `g` (no OpenMP, so it can run inside
/// plain threads).
double row_checksum(const Graph& g) {
  double sum = 0.0;
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      sum += ws[i] * static_cast<double>(nbrs[i] + 1) + g.vol(v);
    }
  }
  return sum;
}

TEST(GraphSharedStorage, CopyOutlivesItsSource) {
  auto source = std::make_unique<Graph>(
      gen::grid2d(9, 7, gen::WeightSpec::uniform(1.0, 3.0), 4));
  const std::vector<WeightedEdge> edges = source->edge_list();
  const double volume = source->total_volume();
  const Graph copy = *source;
  source.reset();
  EXPECT_EQ(copy.edge_list(), edges);
  EXPECT_EQ(copy.total_volume(), volume);
  copy.validate();
}

TEST(GraphSharedStorage, CopiesAreIdenticalToTheirSource) {
  const Graph source = gen::grid2d(9, 7, gen::WeightSpec::uniform(1.0, 3.0), 4);
  Graph copy;
  copy = source;
  EXPECT_TRUE(copy.identical_to(source));
  EXPECT_TRUE(source.identical_to(copy));
  EXPECT_EQ(copy.neighbors(3).data(), source.neighbors(3).data());
  // Equal content in storage of its own is still identical; other content
  // is not.
  const Graph rebuilt(source.num_vertices(), source.edge_list());
  EXPECT_NE(rebuilt.neighbors(3).data(), source.neighbors(3).data());
  EXPECT_TRUE(rebuilt.identical_to(source));
  const Graph other = gen::grid2d(9, 7, gen::WeightSpec::uniform(1.0, 3.0), 5);
  EXPECT_FALSE(other.identical_to(source));
  // A move is a copy: both sides remain the same valid graph.
  const Graph moved = std::move(copy);
  EXPECT_TRUE(moved.identical_to(source));
  EXPECT_TRUE(copy.identical_to(source));  // NOLINT(bugprone-use-after-move)
}

TEST(GraphSharedStorage, CopiesReadConcurrentlyFromFourThreads) {
  // Each thread repeatedly copies the graph, reads every row through its
  // copy and drops it, so reference counts and reads of the one storage
  // block interleave across threads (the tsan preset checks the races).
  const Graph g = gen::grid2d(30, 30, gen::WeightSpec::uniform(1.0, 3.0), 8);
  const double expected = row_checksum(g);
  std::vector<double> got(4, 0.0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&g, &got, t] {
      for (int rep = 0; rep < 50; ++rep) {
        const Graph copy = g;
        got[t] = row_checksum(copy);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const double sum : got) EXPECT_EQ(sum, expected);
}

TEST(GraphBlockKernels, FusedFormsMatchSpmvThenElementwise) {
  // A weighted grid plus one isolated vertex, whose scale is 0.
  const Graph grid = gen::grid2d(6, 7, gen::WeightSpec::uniform(0.5, 3.0), 9);
  const std::vector<WeightedEdge> edges = grid.edge_list();
  const Graph g(grid.num_vertices() + 1, edges);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  ASSERT_EQ(g.degree(g.num_vertices() - 1), 0);
  std::vector<double> scale(n);
  for (std::size_t v = 0; v < n; ++v) {
    const double vol = g.vol(static_cast<vidx>(v));
    scale[v] = 0.7 * (vol > 0.0 ? 1.0 / vol : 0.0);
  }
  Rng rng(17);
  for (int k = 1; k <= 9; ++k) {
    const std::size_t size = n * static_cast<std::size_t>(k);
    std::vector<double> r(size);
    for (auto& v : r) v = rng.uniform(-1.0, 1.0);
    // The iterate stored, then the plain product and the subtraction.
    std::vector<double> x(size);
    for (std::size_t i = 0; i < size; ++i) x[i] = scale[i % n] * r[i];
    std::vector<double> ax(size);
    g.laplacian_apply_block(test::to_vertex_major(x, k), ax, k);
    ax = test::to_column_major(ax, k);
    std::vector<double> residual(size);
    for (std::size_t i = 0; i < size; ++i) residual[i] = r[i] - ax[i];
    std::vector<double> out(size, -1.0);
    g.laplacian_scaled_residual_block(scale, test::to_vertex_major(r, k), out,
                                      k);
    out = test::to_column_major(out, k);
    EXPECT_TRUE(bitwise_equal(out, residual)) << "residual k=" << k;
    // The isolated vertex has no arcs and zero volume: its residual is r.
    for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j) {
      EXPECT_EQ(out[j * n + n - 1], r[j * n + n - 1]);
    }
  }
}

TEST(GraphBlockKernels, ProlongedProductMatchesStoredProlongation) {
  // 4,900 vertices: three reduction blocks, the last one partial.
  const Graph g = gen::grid2d(70, 70, gen::WeightSpec::uniform(0.5, 3.0), 4);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t m = 600;
  Rng rng(23);
  std::vector<vidx> assignment(n);
  for (auto& c : assignment) {
    c = static_cast<vidx>(rng.uniform_index(m));
  }
  const int ambient = omp_get_max_threads();
  for (int k = 1; k <= 9; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    std::vector<double> xc(m * uk);
    for (auto& v : xc) v = rng.uniform(-1.0, 1.0);
    // The prolongation stored, then the plain product and la::dot.
    std::vector<double> e(n * uk);
    for (std::size_t j = 0; j < uk; ++j) {
      for (std::size_t v = 0; v < n; ++v) {
        e[j * n + v] = xc[j * m + static_cast<std::size_t>(assignment[v])];
      }
    }
    std::vector<double> expected(n * uk);
    g.laplacian_apply_block(test::to_vertex_major(e, k), expected, k);
    expected = test::to_column_major(expected, k);
    for (const int threads : {1, 4}) {
      omp_set_num_threads(threads);
      std::vector<double> y(n * uk, -1.0);
      std::vector<double> energy(uk, -1.0);
      g.laplacian_apply_prolonged_block(
          assignment, test::to_vertex_major(xc, k), y, energy, k);
      y = test::to_column_major(y, k);
      EXPECT_TRUE(bitwise_equal(y, expected))
          << "k=" << k << " threads=" << threads;
      for (std::size_t j = 0; j < uk; ++j) {
        const auto col = [&](const std::vector<double>& b) {
          return std::span<const double>(b).subspan(j * n, n);
        };
        const double dot = la::dot(col(e), col(expected));
        EXPECT_EQ(std::memcmp(&energy[j], &dot, sizeof dot), 0)
            << "k=" << k << " j=" << j << " threads=" << threads;
      }
    }
    omp_set_num_threads(ambient);
  }
}

TEST(GraphBlockKernels, FusedFormsRejectBadShapes) {
  const Graph g = triangle();
  std::vector<double> r(6);
  std::vector<double> y(6);
  std::vector<double> short_r(5);
  std::vector<double> scale(3);
  std::vector<double> short_scale(2);
  EXPECT_THROW(g.laplacian_scaled_residual_block(scale, short_r, y, 2),
               invalid_argument_error);
  EXPECT_THROW(g.laplacian_scaled_residual_block(scale, r, y, 3),
               invalid_argument_error);
  EXPECT_THROW(g.laplacian_scaled_residual_block(short_scale, r, y, 2),
               invalid_argument_error);
  const std::vector<vidx> assignment{0, 1, 1};
  const std::vector<vidx> short_assignment{0, 1};
  std::vector<double> xc(4);
  std::vector<double> odd_xc(5);
  std::vector<double> energy(2);
  std::vector<double> short_energy(1);
  EXPECT_THROW(
      g.laplacian_apply_prolonged_block(short_assignment, xc, y, energy, 2),
      invalid_argument_error);
  EXPECT_THROW(g.laplacian_apply_prolonged_block(assignment, odd_xc, y,
                                                 energy, 2),
               invalid_argument_error);
  EXPECT_THROW(g.laplacian_apply_prolonged_block(assignment, xc, short_r,
                                                 energy, 2),
               invalid_argument_error);
  EXPECT_THROW(g.laplacian_apply_prolonged_block(assignment, xc, y,
                                                 short_energy, 2),
               invalid_argument_error);
}

}  // namespace
}  // namespace hicond
