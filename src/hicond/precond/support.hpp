// Support theory toolbox (Section 3 / Appendix 5).
//
// sigma(A, B) = lambda_max(A, B) over vectors orthogonal to the constant
// (Lemma 5.3); kappa(A, B) = sigma(A, B) sigma(B, A). For Steiner graphs S
// the relevant quantity is sigma(B_S, A) with B_S the Schur complement of S
// onto the original vertices -- by Lemma 3.2 this is what the Gremban-style
// preconditioned iteration sees.
//
// The module provides exact dense evaluation for small graphs and the
// closed-form upper bounds of Lemma 3.4 and Theorem 3.5 so benchmarks can
// print measured-vs-bound tables.
#pragma once

#include "hicond/graph/graph.hpp"
#include "hicond/partition/decomposition.hpp"

namespace hicond {

/// Exact sigma(A, B) = lambda_max(A, B) for two connected Laplacians on the
/// same vertex set (dense, O(n^3)).
[[nodiscard]] double support_sigma_dense(const Graph& a, const Graph& b);

/// Exact sigma(B_S, A) for the Steiner graph of decomposition p: the Schur
/// complement is formed densely and the pencil solved exactly.
[[nodiscard]] double steiner_support_dense(const Graph& a,
                                           const Decomposition& p);

/// Exact kappa(B_S, A) for the Steiner graph of decomposition p.
[[nodiscard]] double steiner_condition_dense(const Graph& a,
                                             const Decomposition& p);

/// Theorem 3.5 upper bound for a (phi, gamma) decomposition:
/// sigma(S_P, A) <= 3 (1 + 2 / (gamma phi^2)).
[[nodiscard]] double steiner_support_bound(double phi, double gamma);

/// Theorem 3.5 upper bound for a [phi, rho] decomposition:
/// sigma(S_P, A) <= 3 (1 + 2 / phi^3).
[[nodiscard]] double steiner_support_bound_phi_rho(double phi);

/// Lemma 3.4 star-complement bound: sigma(S, A) <= 2 / (gamma phi_A^2).
[[nodiscard]] double star_complement_support_bound(double gamma, double phi_a);

/// Star graph S matched to graph A per Lemma 3.4: one root, one leaf per
/// vertex of A, leaf weight vol_A(v) / gamma... with gamma = 1 the canonical
/// choice c_v = vol_A(v). Root gets id n.
[[nodiscard]] Graph matched_star(const Graph& a, double inv_gamma = 1.0);

}  // namespace hicond
