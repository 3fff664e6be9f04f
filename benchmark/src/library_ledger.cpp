#include "library_ledger.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string_view>

#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/la/cg_block.hpp"
#include "hicond/la/sparse_cholesky.hpp"
#include "hicond/partition/backends/backend.hpp"
#include "hicond/serve/cache.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/tree/mst.hpp"

namespace bench {

using namespace hicond;

namespace {

constexpr int kRepeats = 3;     // builds, setup replays and solves per ledger
constexpr double kSetupBudgetS = 0.5;  // ...or more builds, up to kMaxSetups,
constexpr int kMaxSetups = 25;         // where they take under this in total
constexpr int kBlockWidth = 8;  // columns of the blocked replay
constexpr int kBlockIterations = 10;
constexpr int kDynamicStrokes = 20;  // one tenant's chain of local strokes
/// Above this size a build takes about a second and a solve two, so the
/// library ledger makes one Kruskal MST, one solve pair and 3 blocked
/// iterations instead of one MST per setup pair, kRepeats and
/// kBlockIterations.
constexpr vidx kLargeGraphVertices = 200000;

struct SetupParts {
  double connectivity = 0.0;
  double decompose = 0.0;
  double decompose_l0 = 0.0;
  double quotient = 0.0;
  double precond_build = 0.0;
  int levels = 0;
  [[nodiscard]] double total() const {
    return connectivity + decompose + quotient + precond_build;
  }
};

/// One LaplacianSolver construction on a copy of `g` made beforehand; the
/// solver is destroyed after the clock stops.
double facade_setup_s(const Graph& g, const LaplacianSolverOptions& opt,
                      std::string_view name) {
  Graph copy = g;
  std::unique_ptr<LaplacianSolver> solver;
  return timed(name, [&] {
    solver = std::make_unique<LaplacianSolver>(std::move(copy), opt);
  });
}

/// LaplacianSolver's constructor taken apart into its public calls:
/// is_connected, then build_hierarchy's per-level checked_decompose +
/// quotient_graph loop, then MultilevelSteinerSolver::build.
SetupParts replay_setup(const Graph& g, const LaplacianSolverOptions& opt,
                        Graph* coarsest) {
  HICOND_CHECK(!opt.hierarchy.refine,
               "the setup replay models build_hierarchy without refinement");
  const ScopedSpan setup("solver.setup (replayed)");
  SetupParts parts;
  parts.connectivity = timed("graph.is_connected", [&] {
    HICOND_CHECK(is_connected(g), "ledger graph must be connected");
  });
  LaminarHierarchy h;
  Graph current = g;
  partition::BackendOptions contraction = opt.hierarchy.contraction;
  for (int level = 0; level < opt.hierarchy.max_levels; ++level) {
    if (current.num_vertices() <= opt.hierarchy.coarsest_size) break;
    contraction.seed =
        opt.hierarchy.contraction.seed + static_cast<std::uint64_t>(level);
    Decomposition d;
    const double dt = timed("partition.checked_decompose", [&] {
      d = partition::checked_decompose(current, contraction);
    });
    parts.decompose += dt;
    if (level == 0) parts.decompose_l0 = dt;
    if (d.num_clusters >= current.num_vertices()) break;
    Graph next;
    parts.quotient += timed("graph.quotient_graph", [&] {
      next = quotient_graph(current, d.assignment);
    });
    h.levels.push_back({std::move(current), std::move(d), 0.0});
    current = std::move(next);
  }
  h.coarsest = std::move(current);
  parts.levels = h.num_levels();
  if (coarsest != nullptr) *coarsest = h.coarsest;
  std::optional<MultilevelSteinerSolver> built;
  parts.precond_build = timed("precond.MultilevelSteinerSolver::build", [&] {
    built.emplace(MultilevelSteinerSolver::build(std::move(h), opt.multilevel));
  });
  return parts;
}

struct WrappedSolve {
  double total = 0.0;
  double spmv = 0.0;
  double precond = 0.0;
  std::int64_t spmv_calls = 0;
  std::int64_t precond_calls = 0;
  std::int64_t page_faults = 0;
  int iterations = 0;  ///< block solves: the longest column

  [[nodiscard]] double faults_per_iteration() const {
    return static_cast<double>(page_faults) / std::max(1, iterations);
  }
};

CgOptions facade_cg_options(const LaplacianSolverOptions& opt) {
  // Exactly the options LaplacianSolver::solve passes.
  return {.max_iterations = opt.max_iterations,
          .rel_tolerance = opt.rel_tolerance,
          .record_history = true,
          .project_constant = true};
}

/// flexible_pcg_solve with the facade's operators and options, each
/// operator application timed.
WrappedSolve wrapped_solve(const LaplacianSolver& solver,
                           std::span<const double> b, std::span<double> x,
                           const LaplacianSolverOptions& opt) {
  const ScopedSpan span("la.flexible_pcg_solve");
  WrappedSolve w;
  const Graph& g = solver.graph();
  const LinearOperator m = solver.multilevel().as_operator();
  const LinearOperator a_timed = [&](std::span<const double> in,
                                     std::span<double> out) {
    const double t0 = now_s();
    g.laplacian_apply(in, out);
    w.spmv += now_s() - t0;
    ++w.spmv_calls;
  };
  const LinearOperator m_timed = [&](std::span<const double> in,
                                     std::span<double> out) {
    const double t0 = now_s();
    m(in, out);
    w.precond += now_s() - t0;
    ++w.precond_calls;
  };
  const std::int64_t faults = minor_faults();
  const double t0 = now_s();
  const SolveStats stats =
      flexible_pcg_solve(a_timed, m_timed, b, x, facade_cg_options(opt));
  w.total = now_s() - t0;
  w.page_faults = minor_faults() - faults;
  w.iterations = stats.iterations;
  return w;
}

/// batched_flexible_pcg_solve with the facade's blocked operators, capped
/// at `iterations` iterations.
WrappedSolve wrapped_block_solve(const LaplacianSolver& solver,
                                 std::span<const double> b,
                                 std::span<double> x,
                                 const LaplacianSolverOptions& opt,
                                 int iterations) {
  const ScopedSpan span("la.batched_flexible_pcg_solve");
  WrappedSolve w;
  const Graph& g = solver.graph();
  const BlockOperator m = solver.multilevel().as_block_operator();
  const BlockOperator a_timed = [&](std::span<const double> in,
                                    std::span<double> out, int k) {
    const double t0 = now_s();
    g.laplacian_apply_block(in, out, k);
    w.spmv += now_s() - t0;
    ++w.spmv_calls;
  };
  const BlockOperator m_timed = [&](std::span<const double> in,
                                    std::span<double> out, int k) {
    const double t0 = now_s();
    m(in, out, k);
    w.precond += now_s() - t0;
    ++w.precond_calls;
  };
  CgOptions cg = facade_cg_options(opt);
  cg.max_iterations = iterations;
  const std::int64_t faults = minor_faults();
  const double t0 = now_s();
  const std::vector<SolveStats> stats =
      batched_flexible_pcg_solve(a_timed, m_timed, b, x, kBlockWidth, cg);
  w.total = now_s() - t0;
  w.page_faults = minor_faults() - faults;
  for (const SolveStats& s : stats) w.iterations = std::max(w.iterations, s.iterations);
  return w;
}

}  // namespace

void library_ledger(const LedgerGraph& in, Report& report) {
  const int threads = library_threads();
  const ThreadScope scope(threads);
  const ScopedSpan ledger("ledger.library");
  const Graph& g = *in.graph;
  const LaplacianSolverOptions opt{};
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const bool large = g.num_vertices() > kLargeGraphVertices;

  const double first_setup =
      facade_setup_s(g, opt, "solver.LaplacianSolver (first)");
  report.set("solver.first_setup_s", first_setup, "s", 1);

  // Facade builds alternating with the same construction replayed call by
  // call, so both see the same host conditions; on graphs that build in
  // milliseconds, enough of them for about half a second.
  const int setups = std::clamp(static_cast<int>(kSetupBudgetS / first_setup),
                                kRepeats, kMaxSetups);
  const int solves = large ? 1 : kRepeats;
  Samples facade_setup, conn, dec, dec0, quot, build, parts_total;
  int levels = 0;
  Graph coarsest;
  for (int i = 0; i < setups; ++i) {
    facade_setup.add(facade_setup_s(g, opt, "solver.LaplacianSolver"));
    const SetupParts p = replay_setup(g, opt, &coarsest);
    conn.add(p.connectivity);
    dec.add(p.decompose);
    dec0.add(p.decompose_l0);
    quot.add(p.quotient);
    build.add(p.precond_build);
    parts_total.add(p.total());
    levels = p.levels;
  }
  Samples ldl;
  for (int i = 0; i < setups; ++i) {
    ldl.add(timed("la.LaplacianDirectSolver",
                  [&] { const LaplacianDirectSolver f(coarsest); }));
  }
  report.set("ledger.setup_facade_s", facade_setup.median(), "s",
             facade_setup.count());
  report.set("ledger.setup_parts_s", parts_total.median(), "s",
             parts_total.count());
  report.set("graph.connectivity_s", conn.median(), "s", conn.count());
  report.set("partition.decompose_s", dec.median(), "s", dec.count());
  report.set("partition.decompose_l0_s", dec0.median(), "s", dec0.count());
  report.set("partition.levels", levels, "count");
  report.set("graph.quotient_s", quot.median(), "s", quot.count());
  report.set("precond.build_s", build.median(), "s", build.count());
  report.set("precond.coarse_ldl_s", ldl.median(), "s", ldl.count());

  Samples mst;
  for (int i = 0; i < (large ? 1 : setups); ++i) {
    mst.add(timed("tree.max_spanning_forest_kruskal",
                  [&] { (void)max_spanning_forest_kruskal(g); }));
  }
  report.set("tree.mst_kruskal_s", mst.median(), "s", mst.count());
  report.set("partition.remark1_speedup", mst.median() / dec0.median(),
             "ratio");

  // Solves: for each right-hand side the facade's solve, then
  // flexible_pcg_solve with the facade's operators and options, timed per
  // operator application. cycle_stats() covers the V-cycles of both.
  const LaplacianSolver solver(g, opt);
  const std::vector<LevelCycleStats> before = solver.multilevel().cycle_stats();
  std::vector<double> first_rhs;
  Samples facade_solve, wrapped_total, cg_other, iterations, faults;
  double spmv = 0.0;
  double vcycle = 0.0;
  std::int64_t spmv_calls = 0;
  std::int64_t vcycle_calls = 0;
  for (int i = 0; i < solves; ++i) {
    const std::vector<double> b = random_rhs(n, derive_seed(in.seed, 0x50u + i));
    if (i == 0) first_rhs = b;
    std::vector<double> x(n, 0.0);
    SolveStats stats;
    facade_solve.add(timed("solver.LaplacianSolver::solve",
                           [&] { stats = solver.solve(b, x); }));
    ++report.attempted;
    if (!stats.converged || relative_residual(g, x, b) > 10.0 * opt.rel_tolerance) {
      report.checks.fail("ledger solve did not reach tolerance");
    }
    std::fill(x.begin(), x.end(), 0.0);
    const WrappedSolve w = wrapped_solve(solver, b, x, opt);
    wrapped_total.add(w.total);
    cg_other.add(w.total - w.spmv - w.precond);
    iterations.add(w.iterations);
    faults.add(w.faults_per_iteration());
    spmv += w.spmv;
    vcycle += w.precond;
    spmv_calls += w.spmv_calls;
    vcycle_calls += w.precond_calls;
    if (w.iterations != stats.iterations) {
      report.checks.fail("traced solve took " + std::to_string(w.iterations) +
                         " iterations, the facade " +
                         std::to_string(stats.iterations));
    }
  }
  const std::vector<LevelCycleStats> after = solver.multilevel().cycle_stats();
  const auto depth = after.size() - 1;  // index of the coarsest direct solve
  std::vector<double> inclusive(after.size());
  for (std::size_t l = 0; l < after.size(); ++l) {
    inclusive[l] = after[l].seconds - before[l].seconds;
  }
  const double cycles =
      static_cast<double>(std::max<std::int64_t>(1, after[0].calls - before[0].calls));
  const auto self = [&](std::size_t from, std::size_t to) {
    return from < depth ? (inclusive[from] - inclusive[std::min(to, depth)]) / cycles
                        : 0.0;
  };
  // Per row an offset, vol, x and y; per arc a target, a weight and the
  // gathered x entry.
  const double arcs = static_cast<double>(g.num_arcs());
  const double spmv_bytes = 32.0 * static_cast<double>(n) + 20.0 * arcs;
  const double spmv_s = spmv / static_cast<double>(std::max<std::int64_t>(1, spmv_calls));
  report.set("la.iterations", iterations.median(), "count", iterations.count());
  report.set("la.cg_other_s", cg_other.median(), "s", cg_other.count());
  report.set("la.page_faults_per_iter", faults.median(), "count", faults.count());
  report.set("graph.spmv_s", spmv_s, "s", static_cast<std::size_t>(spmv_calls));
  report.set("graph.spmv_gbps_computed", spmv_bytes / spmv_s / 1e9, "GB/s");
  report.set("precond.vcycle_s",
             vcycle / static_cast<double>(std::max<std::int64_t>(1, vcycle_calls)),
             "s", static_cast<std::size_t>(vcycle_calls));
  report.set("precond.l0_self_s", self(0, 1), "s");
  report.set("precond.l1_self_s", self(1, 2), "s");
  report.set("precond.deep_self_s", self(2, depth), "s");
  report.set("precond.coarse_solve_s", inclusive[depth] / cycles, "s");
  report.set("solver.seq_rhs_per_s", 1.0 / facade_solve.median(), "1/s",
             facade_solve.count());
  report.set("bench.trace_overhead_frac",
             wrapped_total.median() / facade_solve.median() - 1.0, "ratio");

  // Blocked path, kBlockWidth columns.
  {
    std::vector<double> b(n * kBlockWidth);
    for (int j = 0; j < kBlockWidth; ++j) {
      const std::vector<double> col =
          random_rhs(n, derive_seed(in.seed, 0x60u + j));
      std::copy(col.begin(), col.end(), b.begin() + static_cast<std::ptrdiff_t>(j * n));
    }
    std::vector<double> x(b.size(), 0.0);
    const WrappedSolve w =
        wrapped_block_solve(solver, b, x, opt, large ? 3 : kBlockIterations);
    report.set("graph.block_spmv_s",
               w.spmv / static_cast<double>(std::max<std::int64_t>(1, w.spmv_calls)),
               "s", static_cast<std::size_t>(w.spmv_calls));
    report.set("precond.block_vcycle_s",
               w.precond /
                   static_cast<double>(std::max<std::int64_t>(1, w.precond_calls)),
               "s", static_cast<std::size_t>(w.precond_calls));
    report.set("la.block_cg_other_s",
               (w.total - w.spmv - w.precond) / std::max(1, w.iterations), "s",
               static_cast<std::size_t>(w.iterations));
    report.set("la.block_page_faults_per_iter", w.faults_per_iteration(), "count",
               static_cast<std::size_t>(w.iterations));
  }

  // Single-thread baseline of the same build and solve.
  {
    const ThreadScope one(1);
    const ScopedSpan span("solver.single_thread_baseline");
    Graph copy = g;
    std::unique_ptr<LaplacianSolver> s1;
    const double setup_t1 = timed("solver.LaplacianSolver (1 thread)", [&] {
      s1 = std::make_unique<LaplacianSolver>(std::move(copy), opt);
    });
    std::vector<double> x(n, 0.0);
    const double solve_t1 = timed("solver.LaplacianSolver::solve (1 thread)",
                                  [&] { (void)s1->solve(first_rhs, x); });
    report.set("solver.setup_t1_s", setup_t1, "s", 1);
    report.set("solver.solve_t1_s", solve_t1, "s", 1);
    report.set("solver.solve_parallel_eff",
               solve_t1 / (static_cast<double>(threads) * facade_solve.median()),
               "ratio");
  }
}

void dynamic_ledger(const LedgerGraph& in, Report& report) {
  const ThreadScope scope(1);
  const ScopedSpan ledger("ledger.dynamic");
  const LaplacianSolverOptions opt{};
  const Graph& g = *in.graph;
  // A tiny budget keeps only the most recent entry resident: the repair
  // source is always the entry just installed, and memory stays flat. The
  // entry it evicts stays referenced in `current`, so no timed call pays
  // for destroying a hierarchy.
  serve::HierarchyCache cache(1);
  Graph prev = g;
  std::uint64_t prev_fp = serve::graph_fingerprint(prev);
  std::shared_ptr<const LaplacianSolver> current =
      cache.get_or_build(prev_fp, prev, opt).solver;
  StrokeGenerator strokes(in.shape, derive_seed(in.seed, 0x70));

  Samples apply, repair, rebuild, touched;
  int repaired = 0;
  double iter_ratio = 0.0;
  for (int i = 0; i < kDynamicStrokes; ++i) {
    const std::vector<dynamic::EdgeUpdate> stroke = strokes.local_stroke();
    Graph next;
    apply.add(timed("dynamic.apply_updates",
                    [&] { next = dynamic::apply_updates(prev, stroke); }));
    const std::uint64_t fp = serve::graph_fingerprint(next);
    serve::HierarchyCache::UpdateOutcome repaired_entry;
    repair.add(timed("serve.HierarchyCache::update_entry (repair)", [&] {
      repaired_entry = cache.update_entry(prev_fp, fp, next, stroke, opt);
    }));
    serve::HierarchyCache cold_cache(1);
    serve::HierarchyCache::UpdateOutcome cold_entry;
    rebuild.add(timed("serve.HierarchyCache::update_entry (rebuild)", [&] {
      cold_entry = cold_cache.update_entry(prev_fp, fp, next, stroke, opt, {},
                                           /*allow_repair=*/false);
    }));
    repaired += repaired_entry.repaired ? 1 : 0;
    touched.add(repaired_entry.clusters_touched);
    if (i + 1 == kDynamicStrokes) {
      // Solution quality of the hierarchy repaired along the whole chain
      // against a cold build of the same graph.
      const std::vector<double> b = random_rhs(
          static_cast<std::size_t>(next.num_vertices()), derive_seed(in.seed, 0x71));
      std::vector<double> x1(b.size(), 0.0);
      std::vector<double> x2(b.size(), 0.0);
      const SolveStats sr = repaired_entry.solver->solve(b, x1);
      const SolveStats sc = cold_entry.solver->solve(b, x2);
      report.attempted += 2;
      if (!sr.converged || !sc.converged) {
        report.checks.fail("solve on an updated hierarchy did not converge");
      }
      iter_ratio = static_cast<double>(sr.iterations) /
                   static_cast<double>(std::max(1, sc.iterations));
    }
    current = repaired_entry.solver;
    prev = std::move(next);
    prev_fp = fp;
  }
  report.set("dynamic.apply_updates_p50_ms", apply.median() * 1e3, "ms",
             apply.count());
  report.set("serve.update_entry_repair_p50_ms", repair.median() * 1e3, "ms",
             repair.count());
  report.set("serve.update_entry_rebuild_p50_ms", rebuild.median() * 1e3, "ms",
             rebuild.count());
  report.set("dynamic.clusters_touched_mean", touched.mean(), "count",
             touched.count());
  report.set("dynamic.repaired_frac",
             static_cast<double>(repaired) / kDynamicStrokes, "ratio",
             std::size_t{kDynamicStrokes});
  report.set("dynamic.fresh_iter_ratio", iter_ratio, "ratio");
}

}  // namespace bench
