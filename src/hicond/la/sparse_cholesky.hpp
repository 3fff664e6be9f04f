// Sparse LDL' factorization of grounded graph Laplacians, read straight
// from the graph's CSR rows under a reverse Cuthill-McKee ordering, and a
// grounded pseudo-solver for singular graph Laplacians.
//
// This is the "exact" workhorse behind quotient solves (two-level Steiner
// preconditioning), coarsest-level solves in the multilevel hierarchy, and
// the core systems left by partial Cholesky in subgraph preconditioners.
// The algorithm is the classic up-looking LDL' (elimination tree + row
// patterns), in the style of Davis' LDL.
#pragma once

#include <span>
#include <vector>

#include "hicond/graph/graph.hpp"

namespace hicond {

// The matrix both functions below read is the grounded Laplacian of a
// graph g: its Laplacian with the row and column of vertex `ground`
// deleted. Its indices are g's with `ground` removed (a vertex above the
// ground moves down one). It is symmetric positive definite exactly when
// every component of g contains the ground.

/// Reverse Cuthill-McKee permutation (new -> old) of the grounded
/// Laplacian's pattern: BFS from a pseudo-peripheral vertex, reversed.
[[nodiscard]] std::vector<vidx> compute_ordering(const Graph& g, vidx ground);

/// LDL' factorization of a grounded graph Laplacian.
class SparseLDL {
 public:
  /// Factor P A P', where A is g's Laplacian grounded at `ground` and P is
  /// the compute_ordering(g, ground) permutation. Throws numeric_error if
  /// a pivot is non-positive.
  [[nodiscard]] static SparseLDL factor(const Graph& g, vidx ground);

  /// Solve A x = b (b and x in the grounded indices).
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  [[nodiscard]] vidx dim() const noexcept { return n_; }

 private:
  vidx n_ = 0;
  std::vector<vidx> perm_;      // new -> old
  std::vector<vidx> perm_inv_;  // old -> new
  std::vector<eidx> l_offsets_;  // CSC column pointers of L (strict lower)
  std::vector<vidx> l_idx_;
  std::vector<double> l_val_;
  std::vector<double> d_;
};

/// Exact pseudo-solver for the Laplacian of a *connected* graph: grounds one
/// vertex, factors the reduced SPD system once, and solves in the
/// mean-free sense (returned solutions satisfy sum x = 0).
///
/// The ordering is RCM: on this library's quotient graphs its cheap ordering
/// beat the 1.3-2x fill reduction of (approximate) minimum degree in total
/// factor+solve time at the sizes the multilevel hierarchy produces.
class LaplacianDirectSolver {
 public:
  explicit LaplacianDirectSolver(const Graph& g);

  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// In-place variant compatible with LinearOperator signatures.
  void apply(std::span<const double> b, std::span<double> x) const;

  [[nodiscard]] vidx dim() const noexcept { return n_; }

 private:
  vidx n_ = 0;
  vidx grounded_ = 0;
  SparseLDL ldl_;
};

}  // namespace hicond
