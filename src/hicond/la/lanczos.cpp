#include "hicond/la/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "hicond/la/dense_eigen.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {

namespace {

/// Eigen range of a symmetric tridiagonal matrix given by diag/offdiag, via
/// the dense Jacobi solver (the Krylov dimension is small).
std::pair<double, double> tridiag_extremes(const std::vector<double>& alpha,
                                           const std::vector<double>& beta) {
  const auto k = static_cast<vidx>(alpha.size());
  if (k == 0) return {0.0, 0.0};
  DenseMatrix t(k, k);
  for (vidx i = 0; i < k; ++i) {
    t(i, i) = alpha[static_cast<std::size_t>(i)];
    if (i + 1 < k) {
      t(i, i + 1) = beta[static_cast<std::size_t>(i)];
      t(i + 1, i) = beta[static_cast<std::size_t>(i)];
    }
  }
  const auto eig = symmetric_eigen(std::move(t));
  return {eig.values.front(), eig.values.back()};
}

}  // namespace

PencilExtremes lanczos_pencil_extremes(const LinearOperator& apply_a,
                                       const LinearOperator& solve_b, vidx n,
                                       int steps, std::uint64_t seed) {
  HICOND_CHECK(n >= 2, "pencil needs n >= 2");
  const auto sz = static_cast<std::size_t>(n);
  steps = std::min(steps, static_cast<int>(n) - 1);

  // Lanczos on C = B^+ A, self-adjoint in the B-inner product. We never
  // apply B directly: alongside every B-orthonormal basis vector q_i we keep
  // z_i = B q_i, which is available because every new direction enters as
  // B^+ u with u in range(B) (Laplacian images are mean-free), so its image
  // under B is the projection of u itself.
  Rng rng(seed);
  std::vector<double> v(sz);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  la::remove_mean(v);

  std::vector<double> u(sz);
  apply_a(v, u);
  la::remove_mean(u);

  std::vector<std::vector<double>> q_basis;
  std::vector<std::vector<double>> z_basis;

  std::vector<double> q(sz);
  solve_b(u, q);
  la::remove_mean(q);
  double nrm2 = la::dot(q, u);
  if (!(nrm2 > 0.0)) return {};
  double nrm = std::sqrt(nrm2);
  std::vector<double> z(sz);
  for (std::size_t i = 0; i < sz; ++i) {
    q[i] /= nrm;
    z[i] = u[i] / nrm;
  }
  q_basis.push_back(q);
  z_basis.push_back(z);

  std::vector<double> alpha;
  std::vector<double> beta;
  std::vector<double> w(sz);
  std::vector<double> zw(sz);

  PencilExtremes result;
  for (int j = 0; j < steps; ++j) {
    apply_a(q_basis.back(), u);
    la::remove_mean(u);
    const double a_j = la::dot(q_basis.back(), u);
    alpha.push_back(a_j);
    solve_b(u, w);
    la::remove_mean(w);
    for (std::size_t i = 0; i < sz; ++i) zw[i] = u[i];
    // Full B-reorthogonalization: coefficient against q_i is z_i' w.
    for (std::size_t b = 0; b < q_basis.size(); ++b) {
      const double coef = la::dot(z_basis[b], w);
      la::axpy(-coef, q_basis[b], w);
      la::axpy(-coef, z_basis[b], zw);
    }
    const double b2 = la::dot(w, zw);
    result.iterations = j + 1;
    if (!(b2 > 1e-28)) break;
    const double b_j = std::sqrt(b2);
    beta.push_back(b_j);
    for (std::size_t i = 0; i < sz; ++i) {
      w[i] /= b_j;
      zw[i] /= b_j;
    }
    q_basis.push_back(w);
    z_basis.push_back(zw);
  }
  if (beta.size() == alpha.size()) beta.pop_back();
  const auto [lo, hi] = tridiag_extremes(alpha, beta);
  result.lambda_min = lo;
  result.lambda_max = hi;
  return result;
}

double condition_number_estimate(const LinearOperator& apply_a,
                                 const LinearOperator& solve_b, vidx n,
                                 int steps, std::uint64_t seed) {
  const auto ext = lanczos_pencil_extremes(apply_a, solve_b, n, steps, seed);
  HICOND_CHECK(ext.lambda_min > 0.0, "pencil not definite on the complement");
  return ext.lambda_max / ext.lambda_min;
}

}  // namespace hicond
