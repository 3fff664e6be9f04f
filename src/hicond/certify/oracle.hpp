// Independent, deliberately-slow re-computations backing the certificates.
//
// The oracle functions deliberately avoid the optimized evaluators the
// library itself uses (closure conductance enumerated over the cluster's
// members with prefix sums, cached volumes in sweep form): every quantity is recomputed from first principles so a bug
// in the fast path cannot certify itself. Costs are documented per function
// and are acceptable because certification runs on small closures (brute
// force) or once per instance (Lanczos).
#pragma once

#include <cstdint>
#include <span>

#include "hicond/graph/graph.hpp"
#include "hicond/partition/decomposition.hpp"

namespace hicond::certify {

/// Sparsity cap(S, V-S) / min(vol S, vol V-S) of the cut flagged by `side`
/// (1 = inside S), recomputed from the arc list with no cached volumes.
/// Returns +infinity when either side has zero volume. O(n + m).
[[nodiscard]] double oracle_cut_sparsity(const Graph& g,
                                         std::span<const char> side);

/// Exact conductance by plain subset enumeration: every one of the
/// 2^(n-1) - 1 proper cuts is evaluated from scratch via oracle_cut_sparsity
/// (no incremental updates). O(2^n (n + m)); requires n <= 24. Graphs with
/// fewer than 2 vertices have no cuts and return +infinity.
[[nodiscard]] double oracle_conductance_bruteforce(const Graph& g);

/// Second-smallest eigenvalue of the normalized Laplacian
/// N = D^-1/2 L D^-1/2, estimated by a self-contained symmetric Lanczos
/// (full reorthogonalization) on the shifted, kernel-deflated operator
/// P (2I - N) P with P projecting out D^1/2 1; lambda_2 = 2 - lambda_max.
/// The Ritz estimate approaches lambda_2 from above, so the derived Cheeger
/// bound lambda_2 / 2 is certified only up to Krylov convergence -- the
/// certificate records the method precisely so consumers can tell this from
/// an exact brute-force bound. Requires n >= 2 and positive volumes.
[[nodiscard]] double oracle_lambda2_normalized(const Graph& g, int steps = 64,
                                               std::uint64_t seed = 7);

/// Two-sided conductance bound for a certificate: exact brute force (lower ==
/// upper) up to `exact_limit` vertices, Cheeger-via-Lanczos lower bound plus
/// Fiedler-sweep upper bound beyond.
struct OracleConductance {
  double lower = 0.0;
  double upper = 0.0;
  bool exact = false;
};

[[nodiscard]] OracleConductance oracle_conductance(const Graph& g,
                                                   vidx exact_limit = 14,
                                                   int lanczos_steps = 64,
                                                   std::uint64_t seed = 7);

/// Steiner support number sigma(S_P, A) = lambda_max(B_S, A) of Theorem 3.5
/// (B_S the Schur complement of the Steiner graph onto the original
/// vertices): exact dense pencil solve up to `dense_limit` vertices, beyond
/// that Lanczos on the generalized eigenproblem (A, B_S) using the Steiner
/// preconditioner application as the exact B_S pseudo-inverse, with
/// sigma = 1 / lambda_min(A, B_S). Requires a connected graph.
struct OracleSigma {
  double sigma = 0.0;
  bool exact = false;   ///< dense pencil (true) vs Lanczos estimate (false)
  int iterations = 0;   ///< Krylov steps taken (0 for dense)
};

[[nodiscard]] OracleSigma oracle_steiner_sigma(const Graph& a,
                                               const Decomposition& p,
                                               vidx dense_limit = 220,
                                               int lanczos_steps = 64,
                                               std::uint64_t seed = 7);

}  // namespace hicond::certify
