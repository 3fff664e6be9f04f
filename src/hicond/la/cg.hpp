// Conjugate gradient solvers: plain CG, preconditioned CG, and flexible PCG
// (for preconditioners that vary between applications, e.g. multilevel
// cycles with inner iterations).
//
// All solvers operate on abstract linear operators so they work uniformly
// with graph Laplacians, CSR matrices and composed preconditioners. For
// singular Laplacian systems set `project_constant`; iterates are kept
// orthogonal to the constant vector and convergence is measured on the
// projected residual. Each single-vector solver is the k = 1 case of the
// blocked kernel behind batched_flexible_pcg_solve (la/cg_block.hpp).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "hicond/util/common.hpp"

namespace hicond {

/// y = Op(x). The operator must be linear and symmetric positive
/// (semi-)definite for CG to apply.
using LinearOperator =
    std::function<void(std::span<const double>, std::span<double>)>;

struct CgOptions {
  int max_iterations = 1000;
  double rel_tolerance = 1e-10;     ///< stop when ||r|| <= rel_tol * ||b||
  bool record_history = false;      ///< store ||r|| per iteration
  bool project_constant = false;    ///< keep iterates mean-free (Laplacians)
};

struct SolveStats {
  int iterations = 0;
  double final_relative_residual = 0.0;
  bool converged = false;
  std::vector<double> residual_history;  ///< ||r_i||_2, i = 0..iterations
};

/// Unpreconditioned conjugate gradients; x holds the initial guess on entry
/// and the solution on exit.
SolveStats cg_solve(const LinearOperator& a, std::span<const double> b,
                    std::span<double> x, const CgOptions& options = {});

/// Preconditioned CG with a fixed SPD preconditioner application z = M^-1 r.
SolveStats pcg_solve(const LinearOperator& a, const LinearOperator& m_inv,
                     std::span<const double> b, std::span<double> x,
                     const CgOptions& options = {});

/// Flexible PCG (Polak-Ribiere beta): tolerates preconditioners that are not
/// exactly the same linear map at each application.
SolveStats flexible_pcg_solve(const LinearOperator& a,
                              const LinearOperator& m_inv,
                              std::span<const double> b, std::span<double> x,
                              const CgOptions& options = {});

}  // namespace hicond
