#include "hicond/spectral/portrait.hpp"

#include <algorithm>
#include <cmath>

#include "hicond/graph/conductance.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/spectral/normalized.hpp"

namespace hicond {

double alignment_with_cluster_space(const Graph& g, const Decomposition& p,
                                    std::span<const double> x) {
  p.validate(g);
  const vidx n = g.num_vertices();
  HICOND_CHECK(x.size() == static_cast<std::size_t>(n), "x size mismatch");
  // Basis columns s_c = D^{1/2} r_c have disjoint supports, so
  // ||proj x||^2 = sum_c (x . s_c)^2 / ||s_c||^2.
  const vidx m = p.num_clusters;
  std::vector<double> dot(static_cast<std::size_t>(m), 0.0);
  std::vector<double> norm_sq(static_cast<std::size_t>(m), 0.0);
  for (vidx v = 0; v < n; ++v) {
    const vidx c = p.assignment[static_cast<std::size_t>(v)];
    const double sv = std::sqrt(std::max(g.vol(v), 0.0));
    dot[static_cast<std::size_t>(c)] += x[static_cast<std::size_t>(v)] * sv;
    norm_sq[static_cast<std::size_t>(c)] += g.vol(v);
  }
  double align = 0.0;
  for (vidx c = 0; c < m; ++c) {
    if (norm_sq[static_cast<std::size_t>(c)] > 0.0) {
      align += dot[static_cast<std::size_t>(c)] *
               dot[static_cast<std::size_t>(c)] /
               norm_sq[static_cast<std::size_t>(c)];
    }
  }
  return align;
}

SpectralPortrait spectral_portrait_with_params(const Graph& g,
                                               const Decomposition& p,
                                               double phi, double gamma) {
  HICOND_CHECK(phi > 0.0 && gamma > 0.0, "portrait needs positive phi, gamma");
  SpectralPortrait result;
  result.phi = phi;
  result.gamma = gamma;
  result.support_factor = 3.0 * (1.0 + 2.0 / (gamma * phi * phi));
  const EigenDecomposition eig = normalized_spectrum(g);
  const vidx n = g.num_vertices();
  std::vector<double> x(static_cast<std::size_t>(n));
  for (vidx i = 0; i < n; ++i) {
    for (vidx v = 0; v < n; ++v) {
      x[static_cast<std::size_t>(v)] = eig.vectors(v, i);
    }
    PortraitRow row;
    row.lambda = eig.values[static_cast<std::size_t>(i)];
    row.alignment_sq = alignment_with_cluster_space(g, p, x);
    row.bound = 1.0 - result.support_factor * row.lambda;
    result.rows.push_back(row);
  }
  return result;
}

SpectralPortrait spectral_portrait(const Graph& g, const Decomposition& p) {
  // Measure phi as the minimum conductance over the *induced* cluster graphs
  // (the (phi, gamma) definition of Section 2), and gamma from the vertices.
  const auto clusters = ClusterIndex::build(p.assignment, p.num_clusters);
  double phi = kInfiniteConductance;
  for (vidx c = 0; c < clusters.num_clusters(); ++c) {
    const std::span<const vidx> cluster = clusters.members(c);
    if (cluster.size() < 2) continue;  // singleton: no internal cuts
    const Graph induced = induced_subgraph(g, cluster);
    phi = std::min(phi, conductance_bounds(induced).lower);
  }
  if (!(phi < kInfiniteConductance)) phi = 1.0;  // all singletons
  const auto gammas = per_vertex_gamma(g, p);
  double gamma = 1.0;
  for (double gv : gammas) gamma = std::min(gamma, gv);
  phi = std::max(phi, 1e-12);
  gamma = std::max(gamma, 1e-12);
  return spectral_portrait_with_params(g, p, phi, gamma);
}

}  // namespace hicond
