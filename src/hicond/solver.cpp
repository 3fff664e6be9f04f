#include "hicond/solver.hpp"

#include "hicond/graph/connectivity.hpp"
#include "hicond/la/cg_block.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/timer.hpp"

namespace hicond {

LaplacianSolver::LaplacianSolver(Graph g,
                                 const LaplacianSolverOptions& options)
    : options_(options), graph_(std::make_shared<Graph>(std::move(g))) {
  HICOND_SPAN("solver.setup");
  const Timer setup_timer;
  HICOND_CHECK(graph_->num_vertices() >= 1, "empty graph");
  HICOND_RUN_VALIDATION(expensive, graph_->validate());
  HICOND_CHECK(is_connected(*graph_),
               "LaplacianSolver requires a connected graph");
  solver_ = std::make_shared<MultilevelSteinerSolver>(
      MultilevelSteinerSolver::build(
          build_hierarchy(*graph_, options.hierarchy)));
  setup_seconds_ = setup_timer.seconds();
}

LaplacianSolver::LaplacianSolver(Graph g, LaminarHierarchy hierarchy,
                                 const LaplacianSolverOptions& options,
                                 const MultilevelSteinerSolver* reuse)
    : options_(options), graph_(std::make_shared<Graph>(std::move(g))) {
  HICOND_SPAN("solver.setup");
  const Timer setup_timer;
  HICOND_CHECK(graph_->num_vertices() >= 1, "empty graph");
  const Graph& base = hierarchy.levels.empty() ? hierarchy.coarsest
                                               : hierarchy.levels.front().graph;
  HICOND_CHECK(base.identical_to(*graph_),
               "hierarchy base graph does not match the solver's graph");
  HICOND_CHECK(is_connected(*graph_),
               "LaplacianSolver requires a connected graph");
  solver_ = std::make_shared<MultilevelSteinerSolver>(
      reuse != nullptr
          ? MultilevelSteinerSolver::build(std::move(hierarchy), *reuse)
          : MultilevelSteinerSolver::build(std::move(hierarchy)));
  setup_seconds_ = setup_timer.seconds();
}

SolveStats LaplacianSolver::solve(std::span<const double> b,
                                  std::span<double> x) const {
  return solve_batch(b, x, 1)[0];
}

std::vector<SolveStats> LaplacianSolver::solve_batch(std::span<const double> b,
                                                     std::span<double> x,
                                                     int k) const {
  HICOND_SPAN("solver.solve");
  const Graph& g = *graph_;
  HICOND_CHECK(k >= 1, "batched solve needs at least one right-hand side");
  HICOND_CHECK(b.size() == static_cast<std::size_t>(g.num_vertices()) *
                               static_cast<std::size_t>(k),
               "rhs block size mismatch");
  HICOND_CHECK(x.size() == b.size(), "x block size mismatch");
  auto a = [&g](std::span<const double> in, std::span<double> out, int kk) {
    g.laplacian_apply_block(in, out, kk);
  };
  const Timer solve_timer;
  std::vector<SolveStats> stats = batched_flexible_pcg_solve(
      a, solver_->as_block_operator(), b, x, k,
      {.max_iterations = options_.max_iterations,
       .rel_tolerance = options_.rel_tolerance,
       .record_history = true,
       .project_constant = true});
  solve_seconds_total_ += solve_timer.seconds();
  num_solves_ += k;
  last_stats_ = stats.back();
  return stats;
}

obs::SolverReport LaplacianSolver::report() const {
  obs::SolverReport r = obs::make_solver_report(*solver_);
  r.setup_seconds = setup_seconds_;
  r.solves = num_solves_;
  r.solve_seconds = solve_seconds_total_;
  if (num_solves_ > 0) {
    r.iterations = last_stats_.iterations;
    r.converged = last_stats_.converged;
    r.final_relative_residual = last_stats_.final_relative_residual;
    r.residual_history = last_stats_.residual_history;
  }
  return r;
}

double LaplacianSolver::effective_resistance(vidx u, vidx v) const {
  const vidx n = graph_->num_vertices();
  HICOND_CHECK(u >= 0 && u < n && v >= 0 && v < n, "vertex out of range");
  HICOND_CHECK(u != v, "effective resistance of a vertex with itself is 0");
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  b[static_cast<std::size_t>(u)] = 1.0;
  b[static_cast<std::size_t>(v)] = -1.0;
  const std::vector<double> x = solve(b);
  return x[static_cast<std::size_t>(u)] - x[static_cast<std::size_t>(v)];
}

std::vector<double> LaplacianSolver::solve(std::span<const double> b) const {
  std::vector<double> x(b.size(), 0.0);
  const SolveStats stats = solve(b, x);
  if (!stats.converged) {
    throw numeric_error("LaplacianSolver: PCG did not converge (residual " +
                        std::to_string(stats.final_relative_residual) + ")");
  }
  return x;
}

}  // namespace hicond
