#include "hicond/precond/support.hpp"

#include "hicond/graph/builder.hpp"
#include "hicond/la/dense_eigen.hpp"
#include "hicond/precond/schur.hpp"

namespace hicond {

double support_sigma_dense(const Graph& a, const Graph& b) {
  HICOND_CHECK(a.num_vertices() == b.num_vertices(), "size mismatch");
  HICOND_RUN_VALIDATION(expensive, a.validate());
  HICOND_RUN_VALIDATION(expensive, b.validate());
  return lambda_max_laplacian_pencil(dense_laplacian(a), dense_laplacian(b));
}

double steiner_support_dense(const Graph& a, const Decomposition& p) {
  HICOND_RUN_VALIDATION(expensive, p.validate(a));
  const DenseMatrix bs = steiner_schur_complement_dense(a, p);
  return lambda_max_laplacian_pencil(bs, dense_laplacian(a));
}

double steiner_condition_dense(const Graph& a, const Decomposition& p) {
  HICOND_RUN_VALIDATION(expensive, p.validate(a));
  const DenseMatrix bs = steiner_schur_complement_dense(a, p);
  const auto eig = generalized_eigen_laplacian(bs, dense_laplacian(a));
  HICOND_CHECK(eig.values.front() > 0.0, "pencil not definite");
  return eig.values.back() / eig.values.front();
}

double steiner_support_bound(double phi, double gamma) {
  HICOND_CHECK(phi > 0.0 && gamma > 0.0, "bound needs positive phi, gamma");
  return 3.0 * (1.0 + 2.0 / (gamma * phi * phi));
}

double steiner_support_bound_phi_rho(double phi) {
  HICOND_CHECK(phi > 0.0, "bound needs positive phi");
  return 3.0 * (1.0 + 2.0 / (phi * phi * phi));
}

double star_complement_support_bound(double gamma, double phi_a) {
  HICOND_CHECK(gamma > 0.0 && phi_a > 0.0, "bound needs positive parameters");
  return 2.0 / (gamma * phi_a * phi_a);
}

Graph matched_star(const Graph& a, double inv_gamma) {
  HICOND_CHECK(inv_gamma >= 1.0, "inv_gamma must be >= 1");
  const vidx n = a.num_vertices();
  GraphBuilder b(n + 1);
  for (vidx v = 0; v < n; ++v) {
    if (a.vol(v) > 0.0) b.add_edge(v, n, inv_gamma * a.vol(v));
  }
  return b.build();
}

}  // namespace hicond
