// Multilevel Steiner preconditioner over a laminar hierarchy.
//
// The two-level Steiner application M^{-1} r = D^{-1} r + R Q^+ R' r needs
// an exact quotient solve; recursing the same construction on Q and
// sandwiching each coarse correction between damped-Jacobi smoothing steps
// yields a V-cycle. Each level scales its coarse correction by the step that
// minimizes the A-norm error, computed from the data, which makes the cycle
// positively homogeneous but not linear in r: use it inside flexible
// (Polak-Ribiere) PCG. This is the "hierarchy of Steiner preconditioners"
// of Section 1.1 in solver form.
#pragma once

#include <memory>

#include "hicond/la/cg.hpp"
#include "hicond/la/cg_block.hpp"
#include "hicond/la/sparse_cholesky.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/partition/hierarchy.hpp"

namespace hicond {

/// Carries no settings: the cycle is fixed (see MultilevelSteinerSolver).
/// It stays, with LaplacianSolverOptions::multilevel, only because
/// benchmark/src/library_ledger.cpp passes `opt.multilevel` to build().
struct MultilevelOptions {};

/// Accumulated per-level V-cycle attribution (see cycle_stats()): time, and
/// the steps that scaled this level's coarse corrections (one per column
/// per call; the coarsest entry takes none).
struct LevelCycleStats {
  std::int64_t calls = 0;
  double seconds = 0.0;  ///< inclusive of the recursion into coarser levels
  std::int64_t steps = 0;
  double step_sum = 0.0;
  double step_min = 0.0;  ///< 0 until a step was taken
  std::int64_t step_fallbacks = 0;  ///< steps set to 1: a dot was not > 0

  [[nodiscard]] double step_mean() const {
    return steps > 0 ? step_sum / static_cast<double>(steps) : 0.0;
  }
};

/// Multilevel cycle built on a LaminarHierarchy; the coarsest level is
/// solved exactly with sparse LDL'.
///
/// One V-cycle per application. Level l, from z = 0:
///  1. pre-smoothing: z0 = w D^-1 r (damped Jacobi, w = 0.7);
///  2. s = r - A z0, restricted to rc = P' s by cluster sums (P prolongs a
///     cluster value to its members), and zc = the cycle of level l + 1 on
///     rc;
///  3. the coarse correction e = P zc with the energy-optimal step
///     g = <zc, rc> / <e, A e> (g = 1 when either dot is not a finite
///     positive number): x = z0 + g e;
///  4. post-smoothing: z = x + w D^-1 (r - A x).
/// The quotient is the Galerkin operator P' A P, so g is 1 (up to rounding)
/// above the exact coarsest solve, and lengthens the short corrections of
/// the approximate coarse solves below it. Each level makes two SpMV
/// passes: the residual s, which reads z0 entry by entry
/// (Graph::laplacian_scaled_residual_block), and u = A e, which reads e
/// through the assignment and also yields <e, A e>
/// (Graph::laplacian_apply_prolonged_block). Neither z0 nor e is stored.
/// A x = (r - s) + g u, so the post-smoothing sweep is elementwise.
///
/// The cycle is positively homogeneous (apply(c r) = c apply(r) for c > 0)
/// but not linear, so the outer iteration must be flexible PCG.
///
/// The cycle's vectors live in a workspace. An operator from as_operator()
/// or as_block_operator() owns one: it grows on the first application and
/// is reused by every later one, so a PCG solve allocates no vector of a
/// level's size per iteration (only the fixed-block sums' partials, one
/// per 2048 rows). Such an operator (and each copy of it) serves one caller at a
/// time -- the same contract as cycle_stats(). apply() and apply_block()
/// allocate a workspace per call.
class MultilevelSteinerSolver {
 public:
  [[nodiscard]] static MultilevelSteinerSolver build(
      LaminarHierarchy hierarchy, const MultilevelOptions& /*options*/ = {});

  /// Build over `hierarchy`, reusing state from `reuse` where it provably
  /// carries over: when the coarsest graphs are bitwise identical the
  /// coarsest LDL' factorization -- the dominant setup cost on deep
  /// hierarchies -- is shared instead of refactored. This is the
  /// dynamic-repair fast path: a repaired hierarchy whose quotient chain was
  /// preserved (RepairResult::upper_rebuilt == false) keeps the old coarsest
  /// graph, so the factorization transfers. The result is bitwise identical
  /// to a from-scratch build (the factorization is a pure function of the
  /// coarsest graph).
  [[nodiscard]] static MultilevelSteinerSolver build(
      LaminarHierarchy hierarchy, const MultilevelSteinerSolver& reuse);

  /// z = M^{-1} r: apply_block with k = 1.
  void apply(std::span<const double> r, std::span<double> z) const;

  /// Z = M^{-1} R for k residuals stored vertex-major (entry (v, j) at
  /// v*k + j; util/block.hpp), the layout of every level's blocks: one
  /// V-cycle starting from Z = 0. Z is not projected off the constants;
  /// the PCG that calls it projects.
  /// One hierarchy traversal serves all k columns: each level's graph,
  /// inverse diagonal and restriction index are walked once instead of
  /// once per RHS, with the SpMVs blocked through Graph's block
  /// kernels. Every update is per column in a fixed order, so column j does
  /// not depend on the other columns or on k.
  void apply_block(std::span<const double> r, std::span<double> z,
                   int k) const;

  /// apply_block as a single-vector (k = 1) and a block operator.
  [[nodiscard]] LinearOperator as_operator() const;
  [[nodiscard]] BlockOperator as_block_operator() const;

  [[nodiscard]] int num_levels() const noexcept {
    return static_cast<int>(state_->hierarchy.num_levels());
  }

  /// The hierarchy this cycle runs over (for reports and inspection).
  [[nodiscard]] const LaminarHierarchy& hierarchy() const noexcept {
    return state_->hierarchy;
  }

  /// Wall time and coarse-correction steps per level across every
  /// application so far (apply, apply_block and the operators): entries
  /// [0, num_levels()) are the V-cycle levels, the last entry is the
  /// coarsest direct solve. Updated by the applying thread only; read it
  /// between solves, not concurrently with one.
  [[nodiscard]] std::vector<LevelCycleStats> cycle_stats() const {
    return state_->cycle_stats;
  }

  /// Total vertices across all levels divided by n (grid-complexity metric).
  [[nodiscard]] double operator_complexity() const;

 private:
  struct State {
    LaminarHierarchy hierarchy;
    std::vector<std::vector<double>> damping;  ///< w D^-1 per level
    /// Per-level cluster-major index driving the parallel restriction.
    std::vector<ClusterIndex> restriction;
    /// Shared so a rebuilt solver with an identical coarsest graph (the
    /// dynamic-repair path) can alias the factorization instead of
    /// refactoring; LaplacianDirectSolver is immutable after construction.
    std::shared_ptr<const LaplacianDirectSolver> coarsest_solver;
    std::vector<LevelCycleStats> cycle_stats;  ///< levels + coarsest
  };

  [[nodiscard]] static MultilevelSteinerSolver build_impl(
      LaminarHierarchy hierarchy, const State* reuse);

  /// Per-operator scratch (defined in multilevel.cpp).
  struct Workspace;

  /// apply_block on the caller's workspace.
  void apply_block(std::span<const double> r, std::span<double> z, int k,
                   Workspace& ws) const;
  /// One V-cycle from level `level` down, from z = 0: pre-smooth, fused
  /// residual, restrict, recurse, scaled prolongation, post-smooth.
  void cycle_block(int level, std::span<const double> r, std::span<double> z,
                   int k, Workspace& ws) const;
  /// Exact coarsest-level solve, one column at a time.
  void coarsest_solve(std::span<const double> r, std::span<double> z, int k,
                      Workspace& ws) const;

  std::shared_ptr<State> state_;
};

}  // namespace hicond
