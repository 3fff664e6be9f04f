// Top-level facade: one-call Laplacian solving with the multilevel Steiner
// preconditioner (the end product of the paper's pipeline, and the
// combinatorial-multigrid precursor).
//
//   Graph g = ...;                       // weighted, connected
//   LaplacianSolver solver(g);           // builds hierarchy + preconditioner
//   std::vector<double> x = solver.solve(b);   // A x = b (pseudo-inverse)
//
// The setup cost is a few passes over the graph per level (Section 3.1
// contraction) plus one sparse factorization of the coarsest quotient; each
// solve is flexible PCG with the V-cycle preconditioner.
#pragma once

#include <memory>

#include "hicond/graph/graph.hpp"
#include "hicond/la/cg.hpp"
#include "hicond/obs/report.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/multilevel.hpp"

namespace hicond {

struct LaplacianSolverOptions {
  HierarchyOptions hierarchy{};
  MultilevelOptions multilevel{};  ///< empty; see MultilevelOptions
  double rel_tolerance = 1e-8;
  int max_iterations = 10000;
};

/// Owns a copy of the graph and the full preconditioner hierarchy.
class LaplacianSolver {
 public:
  explicit LaplacianSolver(Graph g, const LaplacianSolverOptions& options = {});

  /// Build from an externally constructed hierarchy instead of running
  /// build_hierarchy -- the dynamic-repair entry point (dynamic/repair.hpp):
  /// `hierarchy.levels[0].graph` (or `coarsest` for a flat hierarchy) must
  /// be bitwise identical to `g`, which is checked. When `reuse` is non-null
  /// its preconditioner state is carried over where provably unchanged (see
  /// MultilevelSteinerSolver::build's reuse overload); the resulting solver
  /// behaves bitwise identically to one built without `reuse`.
  LaplacianSolver(Graph g, LaminarHierarchy hierarchy,
                  const LaplacianSolverOptions& options = {},
                  const MultilevelSteinerSolver* reuse = nullptr);

  /// Solve A x = b in the pseudo-inverse sense (b is projected onto the
  /// mean-free subspace; the returned x is mean-free). Throws numeric_error
  /// if the iteration does not reach tolerance.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Non-throwing variant: returns the iteration stats, writes into x
  /// (which also provides the initial guess). This is solve_batch with
  /// k = 1.
  SolveStats solve(std::span<const double> b, std::span<double> x) const;

  /// Batched solve: k right-hand sides stored column-major in `b` (column j
  /// occupies [j*n, (j+1)*n)), solutions written the same way into `x`
  /// (which also provides the initial guesses). The SpMV and the V-cycle
  /// are blocked across the columns, so one hierarchy traversal serves all
  /// k systems; column j is bitwise identical to solve(b_j, x_j). Returns
  /// one SolveStats per column. The blocks inside are vertex-major;
  /// batched_flexible_pcg_solve converts b and x at its boundary, once per
  /// call.
  std::vector<SolveStats> solve_batch(std::span<const double> b,
                                      std::span<double> x, int k) const;

  /// Effective resistance between two vertices:
  /// R_eff(u, v) = (e_u - e_v)' L^+ (e_u - e_v), computed with one solve.
  [[nodiscard]] double effective_resistance(vidx u, vidx v) const;

  /// The underlying multilevel cycle (for reports, cache sizing, batching).
  [[nodiscard]] const MultilevelSteinerSolver& multilevel() const noexcept {
    return *solver_;
  }

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] int num_levels() const noexcept {
    return solver_->num_levels();
  }
  [[nodiscard]] double operator_complexity() const {
    return solver_->operator_complexity();
  }

  /// Wall time of hierarchy + preconditioner construction.
  [[nodiscard]] double setup_seconds() const noexcept {
    return setup_seconds_;
  }

  /// Structured report of the hierarchy (per-level sizes, phi distribution,
  /// V-cycle timings) plus the most recent solve's iteration stats and
  /// residual trace. Solve bookkeeping is updated by solve() without
  /// synchronization: don't call report() concurrently with a solve.
  [[nodiscard]] obs::SolverReport report() const;

 private:
  LaplacianSolverOptions options_;
  std::shared_ptr<Graph> graph_;
  std::shared_ptr<MultilevelSteinerSolver> solver_;
  double setup_seconds_ = 0.0;
  // Last-solve bookkeeping for report(); mutated by the const solve()
  // entry points (logically observational state).
  mutable SolveStats last_stats_;
  mutable int num_solves_ = 0;
  mutable double solve_seconds_total_ = 0.0;
};

}  // namespace hicond
