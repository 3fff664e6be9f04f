// paper_oct3d_1m and batch_oct3d_110k: the library called directly at
// min(nproc, 4) OpenMP threads on the paper's Fig. 6 generator.
#include <memory>

#include <omp.h>

#include "hicond/graph/generators.hpp"
#include "hicond/serve/snapshot.hpp"
#include "inputs.hpp"
#include "library_ledger.hpp"
#include "serve_ledger.hpp"
#include "workloads.hpp"

namespace bench {

using namespace hicond;

namespace {

/// The volume is the same on every run (hierarchy depth and iteration
/// counts stay put across seeds); the run seed drives the right-hand sides.
constexpr std::uint64_t kGraphSeed = 7;
/// Seeded solves replayed through the serving stack on the stand-in grid.
constexpr std::uint64_t kStandInRequests = 10;

/// The serving and dynamic layers sit idle on the library workloads. Their
/// rows come from serve_update_stream's 128x128 grid (seeded solves
/// replayed through ServerCore and an idle router, and the dynamic
/// ledger's stroke chain), so that every traced run reports every row at
/// a cost of about a second rather than of builds and solves on the volume.
void idle_layer_ledgers(const RunContext& ctx, Report& report) {
  const vidx side = ctx.quick ? 24 : 128;
  const Graph g =
      gen::grid2d(side, side, gen::WeightSpec::uniform(1.0, 10.0), kGraphSeed);
  const std::string path = ctx.work_dir + "/stand_in.hsnap";
  serve::write_snapshot_file(path, g);
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  ServeReplay replay;
  replay.loads = {load_body(path)};
  replay.warmups = {seeded_solve_body(fp, derive_seed(ctx.seed, 0x80))};
  for (std::uint64_t i = 0; i < kStandInRequests; ++i) {
    replay.requests.push_back(seeded_solve_body(fp, derive_seed(ctx.seed, 0x81 + i)));
  }
  replay.socket_dir = ctx.work_dir + "/sockets";
  replay.deployment_stats = true;
  serve_ledger(replay, report);
  dynamic_ledger({&g, {side, side, 1}, ctx.seed}, report);
}

/// `builds` timed LaplacianSolver builds (setup_s is their median), then
/// solves with k right-hand sides per call (k = 1: LaplacianSolver::solve,
/// else solve_batch) for the measured phase.
void library_workload(const RunContext& ctx, GridShape shape, int k,
                      int builds, Report& report) {
  const int threads = library_threads();
  omp_set_num_threads(threads);
  report.info("threads", std::to_string(threads));
  report.info("graph", "oct_volume " + std::to_string(shape.nx) + "x" +
                           std::to_string(shape.ny) + "x" +
                           std::to_string(shape.nz));
  Graph g;
  (void)timed("gen.oct_volume", [&] {
    g = gen::oct_volume(shape.nx, shape.ny, shape.nz, {}, kGraphSeed);
  });
  const LaplacianSolverOptions opt{};
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto uk = static_cast<std::size_t>(k);

  if (ctx.trace) {
    library_ledger({&g, shape, ctx.seed}, report);
    idle_layer_ledgers(ctx, report);
    report_triad(report);
    return;
  }

  // One untimed warm-up build (first touch of the allocator and page
  // cache), then the timed builds; the last one serves the solves.
  (void)timed("solver.LaplacianSolver (warm-up)",
              [&] { const LaplacianSolver warm(g, opt); });
  Samples setup;
  std::unique_ptr<LaplacianSolver> solver;
  for (int i = 0; i < builds; ++i) {
    solver.reset();
    setup.add(timed("solver.LaplacianSolver", [&] {
      solver = std::make_unique<LaplacianSolver>(g, opt);
    }));
    ++report.attempted;
  }

  Samples latency_ms, faults;
  std::int64_t rhs_solved = 0;
  const double end = now_s() + (ctx.quick ? 1.0 : ctx.seconds);
  for (std::uint64_t call = 0; now_s() < end || latency_ms.count() < 3; ++call) {
    std::vector<double> b(n * uk);
    for (std::size_t j = 0; j < uk; ++j) {
      const std::vector<double> col =
          random_rhs(n, derive_seed(ctx.seed, 100 + call * uk + j));
      std::copy(col.begin(), col.end(),
                b.begin() + static_cast<std::ptrdiff_t>(j * n));
    }
    std::vector<double> x(b.size(), 0.0);
    std::vector<SolveStats> stats;
    const std::int64_t faults_before = minor_faults();
    latency_ms.add(1e3 * timed(k == 1 ? "solver.LaplacianSolver::solve"
                                      : "solver.LaplacianSolver::solve_batch",
                               [&] {
                                 if (k == 1) {
                                   stats = {solver->solve(b, x)};
                                 } else {
                                   stats = solver->solve_batch(b, x, k);
                                 }
                               }));
    faults.add(static_cast<double>(minor_faults() - faults_before));
    ++report.attempted;
    rhs_solved += k;
    // Output checks, outside the timed call.
    for (std::size_t j = 0; j < uk; ++j) {
      const std::span<const double> bj(b.data() + j * n, n);
      const std::span<const double> xj(x.data() + j * n, n);
      if (!stats[j].converged ||
          relative_residual(g, xj, bj) > 10.0 * opt.rel_tolerance) {
        report.checks.fail("solve " + std::to_string(call) + " column " +
                           std::to_string(j) + " missed the tolerance");
        break;
      }
    }
  }
  report.set("setup_s", setup.median(), "s", setup.count());
  // A call takes one to two seconds, so a run holds about ten: too few for
  // any tail percentile to keep ten samples beyond it, and the tail is the
  // p50.
  report_latency(report, latency_ms, 99.0);
  report.set("rhs_per_s", 1e3 * static_cast<double>(rhs_solved) / latency_ms.sum(),
             "1/s", latency_ms.count());
  report.set("peak_rss_mb", peak_rss_self_mb(), "MB");
  report.set("page_faults_per_call", faults.median(), "count", faults.count());
}

}  // namespace

void run_paper_oct3d_1m(const RunContext& ctx, Report& report) {
  const vidx side = ctx.quick ? 16 : 100;
  library_workload(ctx, {side, side, side}, 1, 3, report);
}

void run_batch_oct3d_110k(const RunContext& ctx, Report& report) {
  const vidx side = ctx.quick ? 12 : 48;
  // Builds take ~0.1 s here, so more of them fit the median.
  library_workload(ctx, {side, side, side}, 8, 7, report);
}

void report_triad(Report& report) {
  // Arrays of 4x the reported last-level cache, capped so the measurement
  // stays within a shared machine's memory; both sizes are reported.
  constexpr std::size_t kCap = std::size_t{256} << 20;
  const std::size_t llc = llc_bytes();
  const std::size_t bytes = std::min(kCap, std::max<std::size_t>(4 * llc, 64u << 20));
  const ScopedSpan span("machine.triad");
  report.set("machine.triad_gbps", triad_gbps(bytes), "GB/s");
  report.info("llc_bytes", std::to_string(llc));
  report.info("triad_array_bytes", std::to_string(bytes));
}

}  // namespace bench
