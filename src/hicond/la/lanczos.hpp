// Krylov estimation of extreme (generalized) eigenvalues.
//
// The support number sigma(A, B) of two connected Laplacians equals
// lambda_max(A, B) over vectors orthogonal to the constant (Lemma 5.3), and
// the condition number is kappa(A, B) = lambda_max(A,B) * lambda_max(B,A).
// For large pencils we estimate these with Lanczos on the operator
// C = B^+ A using B-inner products, which is the standard symmetric Lanczos
// process for the symmetric-definite pencil restricted to range(B).
#pragma once

#include <cstdint>

#include "hicond/la/cg.hpp"

namespace hicond {

struct PencilExtremes {
  double lambda_min = 0.0;
  double lambda_max = 0.0;
  int iterations = 0;
};

/// Extreme generalized eigenvalues of the pencil (A, B) on the complement of
/// the constant vector. `apply_a` is x -> A x; `solve_b` is r -> B^+ r (any
/// accurate pseudo-solver). Krylov dimension `steps` (30-60 is plenty for
/// extreme eigenvalues of preconditioned pencils).
[[nodiscard]] PencilExtremes lanczos_pencil_extremes(
    const LinearOperator& apply_a, const LinearOperator& solve_b, vidx n,
    int steps = 40, std::uint64_t seed = 7);

/// Condition number estimate kappa(A, B) = lambda_max(A,B) / lambda_min(A,B)
/// computed from a single Lanczos run on the pencil.
[[nodiscard]] double condition_number_estimate(const LinearOperator& apply_a,
                                               const LinearOperator& solve_b,
                                               vidx n, int steps = 40,
                                               std::uint64_t seed = 7);

}  // namespace hicond
