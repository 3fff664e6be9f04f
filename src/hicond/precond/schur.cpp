#include "hicond/precond/schur.hpp"

#include <algorithm>

#include "hicond/graph/builder.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/util/float_eq.hpp"

namespace hicond {

Graph star_schur_complement(const Graph& star, vidx root) {
  const vidx n = star.num_vertices();
  HICOND_CHECK(root >= 0 && root < n, "root out of range");
  // Validate the star shape: every edge is incident to the root.
  HICOND_CHECK(static_cast<eidx>(star.degree(root)) == star.num_edges(),
               "graph is not a star centered at root");
  const auto leaves = star.neighbors(root);
  const auto ws = star.weights(root);
  const double total = star.vol(root);
  GraphBuilder b(n);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    for (std::size_t j = i + 1; j < leaves.size(); ++j) {
      b.add_edge(leaves[i], leaves[j], ws[i] * ws[j] / total);
    }
  }
  return b.build();
}

DenseMatrix schur_complement_dense(const Graph& g,
                                   std::span<const vidx> eliminate,
                                   std::vector<vidx>* kept_out) {
  const vidx n = g.num_vertices();
  std::vector<char> elim(static_cast<std::size_t>(n), 0);
  for (vidx v : eliminate) {
    HICOND_CHECK(v >= 0 && v < n, "eliminated vertex out of range");
    HICOND_CHECK(!elim[static_cast<std::size_t>(v)], "duplicate eliminate id");
    elim[static_cast<std::size_t>(v)] = 1;
  }
  std::vector<vidx> kept;
  for (vidx v = 0; v < n; ++v) {
    if (!elim[static_cast<std::size_t>(v)]) kept.push_back(v);
  }
  // Work on the full dense Laplacian and eliminate the selected vertices by
  // symmetric Gaussian elimination.
  DenseMatrix l = dense_laplacian(g);
  for (vidx v : eliminate) {
    const double pivot = l(v, v);
    HICOND_CHECK(pivot > 0.0, "singular pivot while eliminating");
    for (vidx i = 0; i < n; ++i) {
      if (i == v || exact_zero(l(i, v))) continue;
      const double factor = l(i, v) / pivot;
      for (vidx j = 0; j < n; ++j) {
        l(i, j) -= factor * l(v, j);
      }
    }
    for (vidx i = 0; i < n; ++i) {
      l(i, v) = 0.0;
      l(v, i) = 0.0;
    }
  }
  DenseMatrix s(static_cast<vidx>(kept.size()), static_cast<vidx>(kept.size()));
  for (std::size_t i = 0; i < kept.size(); ++i) {
    for (std::size_t j = 0; j < kept.size(); ++j) {
      s(static_cast<vidx>(i), static_cast<vidx>(j)) = l(kept[i], kept[j]);
    }
  }
  if (kept_out != nullptr) *kept_out = std::move(kept);
  return s;
}

DenseMatrix steiner_schur_complement_dense(const Graph& a,
                                           const Decomposition& p) {
  p.validate(a);
  const vidx n = a.num_vertices();
  const vidx m = p.num_clusters;
  // Q + D_Q on the roots.
  const Graph q = quotient_graph(a, p.assignment);
  DenseMatrix qd = dense_laplacian(q);
  std::vector<double> dq(static_cast<std::size_t>(m), 0.0);
  for (vidx v = 0; v < n; ++v) {
    dq[static_cast<std::size_t>(p.assignment[static_cast<std::size_t>(v)])] +=
        a.vol(v);
  }
  for (vidx c = 0; c < m; ++c) qd(c, c) += dq[static_cast<std::size_t>(c)];
  const DenseMatrix qd_inv = spd_inverse(qd);
  // B = D - V (Q + D_Q)^{-1} V' with V = D R: B_uv = D_u D_v * inv[cu][cv]
  // subtracted from the diagonal D.
  DenseMatrix b(n, n);
  for (vidx u = 0; u < n; ++u) {
    const vidx cu = p.assignment[static_cast<std::size_t>(u)];
    for (vidx v = 0; v < n; ++v) {
      const vidx cv = p.assignment[static_cast<std::size_t>(v)];
      b(u, v) = -a.vol(u) * a.vol(v) * qd_inv(cu, cv);
    }
    b(u, u) += a.vol(u);
  }
  return b;
}

}  // namespace hicond
