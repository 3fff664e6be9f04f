#include "hicond/la/dirichlet.hpp"

#include <algorithm>
#include <tuple>

#include "hicond/la/csr.hpp"
#include "hicond/la/sparse_cholesky.hpp"
#include "hicond/la/vector_ops.hpp"

namespace hicond {

namespace {

/// Interior Laplacian block L_UU as CSR (the principal submatrix of the
/// full Laplacian on the non-boundary vertices).
CsrMatrix interior_block(const Graph& g, std::span<const vidx> interior,
                         std::span<const vidx> old_to_interior) {
  std::vector<std::tuple<vidx, vidx, double>> triplets;
  for (std::size_t i = 0; i < interior.size(); ++i) {
    const vidx v = interior[i];
    triplets.emplace_back(static_cast<vidx>(i), static_cast<vidx>(i),
                          g.vol(v));
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const vidx j = old_to_interior[static_cast<std::size_t>(nbrs[k])];
      if (j >= 0) {
        triplets.emplace_back(static_cast<vidx>(i), j, -ws[k]);
      }
    }
  }
  return csr_from_triplets(static_cast<vidx>(interior.size()),
                           static_cast<vidx>(interior.size()), triplets);
}

}  // namespace

std::vector<double> harmonic_extension(const Graph& g,
                                       std::span<const vidx> boundary_vertices,
                                       std::span<const double> boundary_values,
                                       const DirichletOptions& opt) {
  const vidx n = g.num_vertices();
  HICOND_CHECK(boundary_vertices.size() == boundary_values.size(),
               "boundary size mismatch");
  HICOND_CHECK(!boundary_vertices.empty(), "empty boundary");
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::vector<char> is_boundary(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < boundary_vertices.size(); ++i) {
    const vidx b = boundary_vertices[i];
    HICOND_CHECK(b >= 0 && b < n, "boundary vertex out of range");
    HICOND_CHECK(!is_boundary[static_cast<std::size_t>(b)],
                 "duplicate boundary vertex");
    is_boundary[static_cast<std::size_t>(b)] = 1;
    x[static_cast<std::size_t>(b)] = boundary_values[i];
  }
  // Interior index map.
  std::vector<vidx> interior;
  std::vector<vidx> old_to_interior(static_cast<std::size_t>(n), -1);
  for (vidx v = 0; v < n; ++v) {
    if (!is_boundary[static_cast<std::size_t>(v)]) {
      old_to_interior[static_cast<std::size_t>(v)] =
          static_cast<vidx>(interior.size());
      interior.push_back(v);
    }
  }
  if (interior.empty()) return x;
  // rhs_U = -L_UB x_B: for interior v, sum of w(v, b) * x_b over boundary b.
  std::vector<double> rhs(interior.size(), 0.0);
  for (std::size_t i = 0; i < interior.size(); ++i) {
    const vidx v = interior[i];
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (is_boundary[static_cast<std::size_t>(nbrs[k])]) {
        rhs[i] += ws[k] * x[static_cast<std::size_t>(nbrs[k])];
      }
    }
  }
  const CsrMatrix luu = interior_block(g, interior, old_to_interior);
  std::vector<double> xu(interior.size(), 0.0);
  if (static_cast<vidx>(interior.size()) <= opt.direct_limit) {
    // Exact solve; throws numeric_error when a component misses the
    // boundary (the block is then singular).
    const SparseLDL f = SparseLDL::factor(luu);
    xu = f.solve(rhs);
  } else {
    auto a = [&luu](std::span<const double> in, std::span<double> out) {
      luu.multiply(in, out);
    };
    auto jacobi = [&luu](std::span<const double> r, std::span<double> z) {
      for (vidx i = 0; i < luu.rows; ++i) {
        const double d = luu.at(i, i);
        z[static_cast<std::size_t>(i)] =
            d > 0.0 ? r[static_cast<std::size_t>(i)] / d : 0.0;
      }
    };
    const SolveStats stats =
        pcg_solve(a, jacobi, rhs, xu,
                  {.max_iterations = opt.max_iterations,
                   .rel_tolerance = opt.rel_tolerance});
    if (!stats.converged) {
      throw numeric_error("harmonic_extension: PCG did not converge");
    }
  }
  for (std::size_t i = 0; i < interior.size(); ++i) {
    x[static_cast<std::size_t>(interior[i])] = xu[i];
  }
  return x;
}

std::vector<std::vector<double>> random_walker_probabilities(
    const Graph& g, std::span<const std::vector<vidx>> seeds,
    const DirichletOptions& opt) {
  HICOND_CHECK(seeds.size() >= 2, "need at least two seed classes");
  // Shared boundary: all seeds of all classes.
  std::vector<vidx> boundary;
  for (const auto& cls : seeds) {
    HICOND_CHECK(!cls.empty(), "empty seed class");
    boundary.insert(boundary.end(), cls.begin(), cls.end());
  }
  std::vector<std::vector<double>> result;
  result.reserve(seeds.size());
  for (std::size_t c = 0; c < seeds.size(); ++c) {
    std::vector<double> values(boundary.size(), 0.0);
    std::size_t pos = 0;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      for (std::size_t i = 0; i < seeds[k].size(); ++i) {
        values[pos++] = (k == c) ? 1.0 : 0.0;
      }
    }
    result.push_back(harmonic_extension(g, boundary, values, opt));
  }
  return result;
}

std::vector<vidx> random_walker_segmentation(
    const Graph& g, std::span<const std::vector<vidx>> seeds,
    const DirichletOptions& opt) {
  const auto probs = random_walker_probabilities(g, seeds, opt);
  const vidx n = g.num_vertices();
  std::vector<vidx> label(static_cast<std::size_t>(n), 0);
  for (vidx v = 0; v < n; ++v) {
    double best = probs[0][static_cast<std::size_t>(v)];
    vidx arg = 0;
    for (std::size_t c = 1; c < probs.size(); ++c) {
      if (probs[c][static_cast<std::size_t>(v)] > best) {
        best = probs[c][static_cast<std::size_t>(v)];
        arg = static_cast<vidx>(c);
      }
    }
    label[static_cast<std::size_t>(v)] = arg;
  }
  return label;
}

}  // namespace hicond
