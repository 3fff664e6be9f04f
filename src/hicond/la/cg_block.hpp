// Batched (multi-RHS) flexible PCG.
//
// k right-hand sides on ONE operator share every pass over the operator's
// data: the blocked SpMV reads the CSR arrays once per iteration for all
// still-active columns, and the blocked preconditioner traverses the
// multilevel hierarchy once per iteration instead of once per RHS. The
// batching is *lockstep with per-column state*: each column carries its own
// scalar recurrence (alpha, beta, residual norm), and a column that
// converges (or breaks down) is frozen out of subsequent block
// applications. This is the only CG kernel: the single-vector solvers of
// la/cg.hpp run it with k = 1, so column j of a batch is bitwise identical
// to a standalone flexible_pcg_solve on (b_j, x_j) as long as the block
// operators act on each column independently.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "hicond/la/cg.hpp"

namespace hicond {

/// Y = Op(X) for k vectors stored vertex-major (entry (v, j) at v*k + j of
/// both spans; util/block.hpp), the layout of Graph's block kernels and
/// MultilevelSteinerSolver::apply_block. At k = 1 it is a plain vector.
using BlockOperator =
    std::function<void(std::span<const double>, std::span<double>, int)>;

/// Flexible PCG over k right-hand sides stored column-major in `b` (column
/// j occupies [j*n, (j+1)*n)); `x` holds the initial guesses on entry and
/// the solutions on exit, also column-major. The operators see vertex-major
/// blocks: the solve converts b and x at this boundary, once. Returns one
/// SolveStats per column, each identical to what flexible_pcg_solve would
/// report for that column alone.
std::vector<SolveStats> batched_flexible_pcg_solve(
    const BlockOperator& a, const BlockOperator& m_inv,
    std::span<const double> b, std::span<double> x, int k,
    const CgOptions& options = {});

}  // namespace hicond
