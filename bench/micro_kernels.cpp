// MB-* -- google-benchmark microbenchmarks of the library's kernels: the
// Laplacian SpMV, the three Section 3.1 passes, tree
// decomposition, maximum spanning forests, exact forest solves, and one
// Steiner preconditioner application.
#include <benchmark/benchmark.h>

#include "hicond/graph/generators.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/la/chebyshev.hpp"
#include "hicond/la/sparse_cholesky.hpp"
#include "hicond/la/csr.hpp"
#include "hicond/la/tree_solver.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/precond/steiner_tree.hpp"
#include "hicond/tree/low_stretch.hpp"
#include "hicond/tree/mst.hpp"
#include "hicond/tree/tree_decomposition.hpp"
#include "hicond/util/rng.hpp"

namespace {

using namespace hicond;

Graph bench_grid(vidx side) {
  return gen::grid3d(side, side, side, gen::WeightSpec::uniform(1.0, 2.0), 3);
}

void BM_LaplacianApply(benchmark::State& state) {
  const Graph g = bench_grid(static_cast<vidx>(state.range(0)));
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> x(n, 1.0);
  std::vector<double> y(n);
  Rng rng(1);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    g.laplacian_apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_LaplacianApply)->Arg(16)->Arg(32)->Arg(48);

void BM_CsrSpmv(benchmark::State& state) {
  const Graph g = bench_grid(static_cast<vidx>(state.range(0)));
  const CsrMatrix a = csr_laplacian(g);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> x(n);
  std::vector<double> y(n);
  Rng rng(2);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_CsrSpmv)->Arg(16)->Arg(32)->Arg(48);

void BM_FixedDegreeDecomposition(benchmark::State& state) {
  const Graph g = bench_grid(static_cast<vidx>(state.range(0)));
  for (auto _ : state) {
    const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 4});
    benchmark::DoNotOptimize(fd.decomposition.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_FixedDegreeDecomposition)->Arg(16)->Arg(32);

void BM_HeaviestEdgeForestPass(benchmark::State& state) {
  const Graph g = bench_grid(static_cast<vidx>(state.range(0)));
  for (auto _ : state) {
    const Graph f = heaviest_incident_edge_forest(g, 7);
    benchmark::DoNotOptimize(f.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_HeaviestEdgeForestPass)->Arg(16)->Arg(32);

void BM_TreeDecomposition(benchmark::State& state) {
  const Graph t = gen::random_tree(static_cast<vidx>(state.range(0)),
                                   gen::WeightSpec::uniform(1.0, 2.0), 5);
  for (auto _ : state) {
    const Decomposition d = tree_decomposition(t);
    benchmark::DoNotOptimize(d.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() * t.num_vertices());
}
BENCHMARK(BM_TreeDecomposition)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_KruskalMaxForest(benchmark::State& state) {
  const Graph g = bench_grid(static_cast<vidx>(state.range(0)));
  for (auto _ : state) {
    const Graph t = max_spanning_forest_kruskal(g);
    benchmark::DoNotOptimize(t.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_KruskalMaxForest)->Arg(16)->Arg(32);

void BM_ForestSolve(benchmark::State& state) {
  const Graph t = gen::random_tree(static_cast<vidx>(state.range(0)),
                                   gen::WeightSpec::uniform(1.0, 2.0), 9);
  const ForestSolver solver(t);
  const auto n = static_cast<std::size_t>(t.num_vertices());
  std::vector<double> b(n);
  Rng rng(3);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  std::vector<double> x(n);
  for (auto _ : state) {
    solver.apply(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * t.num_vertices());
}
BENCHMARK(BM_ForestSolve)->Arg(10000)->Arg(100000);

void BM_ChebyshevSmooth(benchmark::State& state) {
  const Graph g = bench_grid(static_cast<vidx>(state.range(0)));
  const ChebyshevSmoother smoother(g, 3);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> r(n);
  Rng rng(7);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  std::vector<double> z(n, 0.0);
  for (auto _ : state) {
    la::fill(z, 0.0);
    smoother.smooth(r, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs() * 3);
}
BENCHMARK(BM_ChebyshevSmooth)->Arg(16)->Arg(32);

void BM_SteinerTreeApply(benchmark::State& state) {
  const Graph g = bench_grid(static_cast<vidx>(state.range(0)));
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 64});
  const SteinerTreePreconditioner p = SteinerTreePreconditioner::build(h);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> r(n);
  Rng rng(9);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(r);
  std::vector<double> z(n);
  for (auto _ : state) {
    p.apply(r, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(state.iterations() * p.tree().num_vertices());
}
BENCHMARK(BM_SteinerTreeApply)->Arg(16)->Arg(24);

void BM_LowStretchTree(benchmark::State& state) {
  const Graph g = bench_grid(static_cast<vidx>(state.range(0)));
  for (auto _ : state) {
    const Graph t = low_stretch_tree_akpw(g, {.seed = 3});
    benchmark::DoNotOptimize(t.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_LowStretchTree)->Arg(16)->Arg(32);

void BM_QuotientFactorization(benchmark::State& state) {
  // Sparse LDL' of the quotient Laplacian under each ordering: the setup
  // cost of the two-level Steiner preconditioner.
  const Graph g = bench_grid(static_cast<vidx>(state.range(0)));
  const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 4});
  const Graph q = quotient_graph(g, fd.decomposition.assignment);
  const auto kind = static_cast<Ordering>(state.range(1));
  for (auto _ : state) {
    const LaplacianDirectSolver solver(q, kind);
    benchmark::DoNotOptimize(solver.factor_nnz());
  }
  state.SetLabel(state.range(1) == 0   ? "natural"
                 : state.range(1) == 1 ? "rcm"
                 : state.range(1) == 2 ? "min_degree"
                                       : "amd");
  state.SetItemsProcessed(state.iterations() * q.num_vertices());
}
BENCHMARK(BM_QuotientFactorization)
    ->Args({12, 1})
    ->Args({12, 2})
    ->Args({12, 3})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 3});

void BM_SteinerApply(benchmark::State& state) {
  const Graph g = bench_grid(static_cast<vidx>(state.range(0)));
  const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 4});
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(g, fd.decomposition);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> r(n);
  Rng rng(5);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(r);
  std::vector<double> z(n);
  for (auto _ : state) {
    sp.apply(r, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_SteinerApply)->Arg(16)->Arg(24);

}  // namespace
