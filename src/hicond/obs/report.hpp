// Structured solver reports: where setup time, V-cycle time and CG
// iterations actually go.
//
// A SolverReport captures the full shape of one multilevel Steiner solve:
// per-level hierarchy statistics (vertex/edge/cluster counts, the reduction
// factor rho, the closure-conductance phi distribution of the level's
// decomposition), per-level V-cycle timings, the coarsest-level direct
// solve, and the PCG residual trace. LaplacianSolver::report() assembles
// one; hicond_tool --report prints and serializes it.
#pragma once

#include <string>
#include <vector>

#include "hicond/la/cg.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/multilevel.hpp"

namespace hicond::obs {

/// One level of the laminar hierarchy, as reported.
struct LevelReport {
  int level = 0;           ///< 0 = finest (the input graph)
  vidx vertices = 0;
  eidx edges = 0;
  vidx clusters = 0;       ///< cluster count of this level's decomposition
  double reduction = 0.0;  ///< rho = vertices / clusters
  double build_seconds = 0.0;  ///< contraction time spent producing level+1

  // Closure-conductance distribution over this level's clusters (certified
  // lower bounds; phi_exact when every cluster was scored exactly, as every
  // cluster of at most kClosureExactMembers members is).
  double phi_min = 0.0;
  double phi_p50 = 0.0;
  double phi_p90 = 0.0;
  bool phi_exact = false;
  double cut_fraction = 0.0;  ///< edge weight crossing between clusters

  // V-cycle time attribution (accumulated over every apply so far).
  std::int64_t cycle_calls = 0;
  double cycle_seconds = 0.0;            ///< inclusive of coarser levels
  double cycle_seconds_exclusive = 0.0;  ///< this level only

  // Energy-optimal steps of this level's coarse corrections (one per
  // column per apply so far); step_mean and step_min are 0 before any.
  double step_mean = 0.0;
  double step_min = 0.0;
  std::int64_t step_fallbacks = 0;  ///< steps set to 1 (a dot not > 0)
};

struct SolverReport {
  // Problem + hierarchy shape.
  vidx vertices = 0;
  eidx edges = 0;
  int num_levels = 0;  ///< decomposed levels (excludes the coarsest graph)
  vidx coarsest_vertices = 0;
  eidx coarsest_edges = 0;
  double operator_complexity = 0.0;
  double setup_seconds = 0.0;  ///< hierarchy + preconditioner construction
  std::vector<LevelReport> levels;

  // Coarsest-level exact solves.
  std::int64_t coarsest_calls = 0;
  double coarsest_seconds = 0.0;

  // PCG solve side (zeroed until a solve ran).
  int solves = 0;
  int iterations = 0;  ///< of the most recent solve
  bool converged = false;
  double final_relative_residual = 0.0;
  double solve_seconds = 0.0;  ///< accumulated over all solves
  std::vector<double> residual_history;  ///< ||r_i|| of the most recent solve

  /// Machine-readable form (schema documented in docs/OBSERVABILITY.md).
  [[nodiscard]] std::string to_json() const;

  /// Human-readable multi-line summary table.
  [[nodiscard]] std::string to_text() const;
};

/// Assemble the hierarchy/preconditioner half of a report from a built
/// multilevel solver (the solve half stays zeroed; LaplacianSolver fills it).
[[nodiscard]] SolverReport make_solver_report(
    const MultilevelSteinerSolver& solver);

}  // namespace hicond::obs
