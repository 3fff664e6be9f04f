#include "hicond/graph/conductance.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "hicond/graph/closure.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/la/dense_eigen.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {

double cut_sparsity(const Graph& g, std::span<const char> in_s) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  HICOND_CHECK(in_s.size() == n, "flag size mismatch");
  double vol_in = 0.0;
  double cut = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!in_s[v]) continue;
    vol_in += g.vol(static_cast<vidx>(v));
    const auto nbrs = g.neighbors(static_cast<vidx>(v));
    const auto ws = g.weights(static_cast<vidx>(v));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (!in_s[static_cast<std::size_t>(nbrs[i])]) cut += ws[i];
    }
  }
  const double vol_out = g.total_volume() - vol_in;
  const double denom = std::min(vol_in, vol_out);
  if (denom <= 0.0) return kInfiniteConductance;
  return cut / denom;
}

double conductance_sweep(const Graph& g, std::span<const double> score) {
  const vidx n = g.num_vertices();
  HICOND_CHECK(score.size() == static_cast<std::size_t>(n),
               "score size mismatch");
  if (n < 2) return kInfiniteConductance;
  std::vector<vidx> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&score](vidx a, vidx b) {
    return score[static_cast<std::size_t>(a)] <
           score[static_cast<std::size_t>(b)];
  });
  std::vector<char> in_s(static_cast<std::size_t>(n), 0);
  double vol_in = 0.0;
  double cut = 0.0;
  double best = kInfiniteConductance;
  const double total = g.total_volume();
  for (vidx idx = 0; idx + 1 < n; ++idx) {
    const vidx v = order[static_cast<std::size_t>(idx)];
    in_s[static_cast<std::size_t>(v)] = 1;
    vol_in += g.vol(v);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (in_s[static_cast<std::size_t>(nbrs[k])]) {
        cut -= ws[k];
      } else {
        cut += ws[k];
      }
    }
    const double denom = std::min(vol_in, total - vol_in);
    if (denom > 0.0) best = std::min(best, cut / denom);
  }
  return best;
}

namespace {

/// Approximate Fiedler vector of the normalized Laplacian by deflated power
/// iteration on 2I - L_hat (largest -> second largest after deflating the
/// known top eigenvector D^{1/2} 1 of 2I - L_hat).
std::vector<double> approx_fiedler(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> sqrt_vol(n, 0.0);
  double norm_d = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    sqrt_vol[v] = std::sqrt(std::max(g.vol(static_cast<vidx>(v)), 0.0));
    norm_d += g.vol(static_cast<vidx>(v));
  }
  norm_d = std::sqrt(std::max(norm_d, 1e-300));
  Rng rng(12345);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> y(n);
  auto deflate = [&](std::vector<double>& z) {
    double dot = 0.0;
    for (std::size_t v = 0; v < n; ++v) dot += z[v] * sqrt_vol[v] / norm_d;
    for (std::size_t v = 0; v < n; ++v) z[v] -= dot * sqrt_vol[v] / norm_d;
  };
  deflate(x);
  for (int iter = 0; iter < 300; ++iter) {
    // y = (2I - L_hat) x = x + D^{-1/2} W D^{-1/2} x, W = adjacency part.
    for (std::size_t v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(static_cast<vidx>(v));
      const auto ws = g.weights(static_cast<vidx>(v));
      double acc = x[v];
      const double inv = sqrt_vol[v] > 0.0 ? 1.0 / sqrt_vol[v] : 0.0;
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const auto u = static_cast<std::size_t>(nbrs[k]);
        const double invu = sqrt_vol[u] > 0.0 ? 1.0 / sqrt_vol[u] : 0.0;
        acc += ws[k] * inv * invu * x[u];
      }
      y[v] = acc;
    }
    deflate(y);
    double norm = 0.0;
    for (double v : y) norm += v * v;
    norm = std::sqrt(std::max(norm, 1e-300));
    for (std::size_t v = 0; v < n; ++v) x[v] = y[v] / norm;
  }
  // Return D^{-1/2} x so the sweep is over the random-walk embedding.
  for (std::size_t v = 0; v < n; ++v) {
    x[v] = sqrt_vol[v] > 0.0 ? x[v] / sqrt_vol[v] : 0.0;
  }
  return x;
}

}  // namespace

double conductance_spectral_upper(const Graph& g) {
  const vidx n = g.num_vertices();
  if (n < 2) return kInfiniteConductance;
  if (n <= 600) {
    const auto eig = symmetric_eigen(dense_normalized_laplacian(g));
    std::vector<double> score(static_cast<std::size_t>(n));
    for (vidx v = 0; v < n; ++v) {
      const double sv = std::sqrt(std::max(g.vol(v), 0.0));
      score[static_cast<std::size_t>(v)] =
          sv > 0.0 ? eig.vectors(v, 1) / sv : 0.0;
    }
    return conductance_sweep(g, score);
  }
  return conductance_sweep(g, approx_fiedler(g));
}

std::vector<char> spectral_sweep_cut(const Graph& g, double* sparsity_out) {
  const vidx n = g.num_vertices();
  HICOND_CHECK(n >= 2, "sweep cut needs >= 2 vertices");
  // Disconnected: cut a component off exactly.
  {
    const auto comp = connected_components(g);
    if (*std::max_element(comp.begin(), comp.end()) > 0) {
      std::vector<char> side(static_cast<std::size_t>(n), 0);
      for (vidx v = 0; v < n; ++v) {
        if (comp[static_cast<std::size_t>(v)] == 0) {
          side[static_cast<std::size_t>(v)] = 1;
        }
      }
      if (sparsity_out != nullptr) *sparsity_out = cut_sparsity(g, side);
      return side;
    }
  }
  // Score by the (dense or approximate) Fiedler embedding.
  std::vector<double> score;
  if (n <= 600) {
    const auto eig = symmetric_eigen(dense_normalized_laplacian(g));
    score.resize(static_cast<std::size_t>(n));
    for (vidx v = 0; v < n; ++v) {
      const double sv = std::sqrt(std::max(g.vol(v), 0.0));
      score[static_cast<std::size_t>(v)] =
          sv > 0.0 ? eig.vectors(v, 1) / sv : 0.0;
    }
  } else {
    score = approx_fiedler(g);
  }
  // Sweep, remembering the argmin prefix.
  std::vector<vidx> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&score](vidx a, vidx b) {
    return score[static_cast<std::size_t>(a)] <
           score[static_cast<std::size_t>(b)];
  });
  std::vector<char> in_s(static_cast<std::size_t>(n), 0);
  double vol_in = 0.0;
  double cut = 0.0;
  double best = kInfiniteConductance;
  vidx best_prefix = 1;
  const double total = g.total_volume();
  for (vidx idx = 0; idx + 1 < n; ++idx) {
    const vidx v = order[static_cast<std::size_t>(idx)];
    in_s[static_cast<std::size_t>(v)] = 1;
    vol_in += g.vol(v);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (in_s[static_cast<std::size_t>(nbrs[k])]) {
        cut -= ws[k];
      } else {
        cut += ws[k];
      }
    }
    const double denom = std::min(vol_in, total - vol_in);
    if (denom > 0.0 && cut / denom < best) {
      best = cut / denom;
      best_prefix = idx + 1;
    }
  }
  std::vector<char> side(static_cast<std::size_t>(n), 0);
  for (vidx idx = 0; idx < best_prefix; ++idx) {
    side[static_cast<std::size_t>(order[static_cast<std::size_t>(idx)])] = 1;
  }
  if (sparsity_out != nullptr) *sparsity_out = best;
  return side;
}

double lambda2_normalized(const Graph& g) {
  HICOND_CHECK(g.num_vertices() >= 2, "lambda2 needs >= 2 vertices");
  HICOND_CHECK(is_connected(g), "lambda2 of disconnected graph is 0");
  if (g.num_vertices() <= 600) {
    const auto eig = symmetric_eigen(dense_normalized_laplacian(g));
    return eig.values[1];
  }
  // Rayleigh quotient of the approximate Fiedler vector in D^{-1/2} form:
  // lambda ~= (f' A f) / (f' D f) with f the random-walk embedding.
  const auto f = approx_fiedler(g);
  const double num = g.laplacian_quadratic(f);
  double den = 0.0;
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    den += g.vol(v) * f[static_cast<std::size_t>(v)] *
           f[static_cast<std::size_t>(v)];
  }
  return den > 0.0 ? num / den : 0.0;
}

double cheeger_lower_bound(const Graph& g) {
  if (g.num_vertices() < 2) return kInfiniteConductance;
  if (!is_connected(g)) return 0.0;
  return 0.5 * lambda2_normalized(g);
}

ConductanceBounds conductance_bounds(const Graph& g) {
  ConductanceBounds b;
  const vidx n = g.num_vertices();
  if (n < 2) {
    b.lower = b.upper = kInfiniteConductance;
    b.exact = true;
    return b;
  }
  if (!is_connected(g)) {
    b.lower = b.upper = 0.0;
    b.exact = true;
    return b;
  }
  if (n <= kClosureExactMembers) {
    // The closure of every vertex is G itself, and phi(G) <= 1 here (a
    // smallest-volume vertex alone is a cut of sparsity 1), so
    // closure_conductance's clamp at 1 never fires.
    std::vector<vidx> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    b.lower = b.upper = closure_conductance(g, all);
    b.exact = true;
    return b;
  }
  b.lower = cheeger_lower_bound(g);
  b.upper = conductance_spectral_upper(g);
  b.exact = false;
  return b;
}

}  // namespace hicond
