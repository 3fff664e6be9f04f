#include "hicond/partition/decomposition.hpp"

#include <algorithm>

#include "hicond/graph/closure.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

void Decomposition::validate(const Graph& g) const {
  HICOND_CHECK(num_clusters >= 0, "cluster count must be nonnegative");
  HICOND_CHECK(assignment.size() == static_cast<std::size_t>(g.num_vertices()),
               "assignment size mismatch (orphan or surplus vertices)");
  std::vector<char> seen(static_cast<std::size_t>(num_clusters), 0);
  for (vidx c : assignment) {
    HICOND_CHECK(c >= 0 && c < num_clusters,
                 "cluster id out of range (unassigned vertex?)");
    seen[static_cast<std::size_t>(c)] = 1;
  }
  for (vidx c = 0; c < num_clusters; ++c) {
    HICOND_CHECK(seen[static_cast<std::size_t>(c)], "empty cluster id");
  }
}

std::vector<double> per_vertex_gamma(const Graph& g, const Decomposition& d) {
  d.validate(g);
  const vidx n = g.num_vertices();
  std::vector<double> gamma(static_cast<std::size_t>(n), 0.0);
  // Owner-computes: each vertex sums its own row in CSR order, so the
  // result is identical at every thread count.
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
    const auto v = static_cast<vidx>(i);
    if (g.vol(v) <= 0.0) {
      gamma[i] = 1.0;  // isolated: vacuous
      return;
    }
    const vidx cv = d.assignment[i];
    double internal = 0.0;
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (d.assignment[static_cast<std::size_t>(nbrs[k])] == cv) {
        internal += ws[k];
      }
    }
    gamma[i] = internal / g.vol(v);
  });
  return gamma;
}

std::vector<ConductanceBounds> cluster_conductance_bounds(
    const Graph& g, const Decomposition& d) {
  d.validate(g);
  const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
  // Clusters are scored independently, each slot by its own writer, so the
  // result does not depend on the thread schedule.
  std::vector<ConductanceBounds> bounds(
      static_cast<std::size_t>(d.num_clusters));
  parallel_for_interleaved(bounds.size(), [&](std::size_t c) {
    bounds[c] = closure_conductance_bounds(
        g, clusters.members(static_cast<vidx>(c)));
  });
  return bounds;
}

DecompositionStats evaluate_decomposition(const Graph& g,
                                          const Decomposition& d) {
  const std::vector<ConductanceBounds> bounds =
      cluster_conductance_bounds(g, d);
  DecompositionStats stats;
  stats.num_clusters = d.num_clusters;
  stats.reduction_factor = d.reduction_factor();
  stats.min_phi_lower = kInfiniteConductance;
  stats.min_phi_upper = kInfiniteConductance;
  stats.phi_exact = true;
  std::vector<vidx> size(bounds.size(), 0);
  for (const vidx c : d.assignment) ++size[static_cast<std::size_t>(c)];
  for (std::size_t c = 0; c < bounds.size(); ++c) {
    stats.max_cluster_size = std::max(stats.max_cluster_size, size[c]);
    if (size[c] == 1) ++stats.num_singletons;
    if (bounds[c].upper <= 0.0) ++stats.num_disconnected_clusters;
    stats.min_phi_lower = std::min(stats.min_phi_lower, bounds[c].lower);
    stats.min_phi_upper = std::min(stats.min_phi_upper, bounds[c].upper);
    if (!bounds[c].exact) stats.phi_exact = false;
  }
  stats.mean_cluster_size =
      d.num_clusters > 0 ? static_cast<double>(g.num_vertices()) /
                               static_cast<double>(d.num_clusters)
                         : 0.0;
  const auto gamma = per_vertex_gamma(g, d);
  stats.min_gamma = gamma.empty()
                        ? 0.0
                        : *std::min_element(gamma.begin(), gamma.end());
  return stats;
}

double cut_weight_fraction(const Graph& g, const Decomposition& d) {
  d.validate(g);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  // Fixed-block reductions (parallel_sum) keep the rounding identical at
  // every thread count.
  const double total = parallel_sum(n, [&](std::size_t i) {
    const auto v = static_cast<vidx>(i);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    double row = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (v < nbrs[k]) row += ws[k];
    }
    return row;
  });
  const double crossing = parallel_sum(n, [&](std::size_t i) {
    const auto v = static_cast<vidx>(i);
    const vidx cv = d.assignment[i];
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    double row = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (v < nbrs[k] &&
          d.assignment[static_cast<std::size_t>(nbrs[k])] != cv) {
        row += ws[k];
      }
    }
    return row;
  });
  return total > 0.0 ? crossing / total : 0.0;
}

double average_gamma(const Graph& g, const Decomposition& d) {
  const auto gamma = per_vertex_gamma(g, d);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const double weighted = parallel_sum(n, [&](std::size_t v) {
    return g.vol(static_cast<vidx>(v)) * gamma[v];
  });
  const double total_vol = parallel_sum(
      n, [&](std::size_t v) { return g.vol(static_cast<vidx>(v)); });
  return total_vol > 0.0 ? weighted / total_vol : 0.0;
}

Decomposition singleton_decomposition(const Graph& g) {
  HICOND_RUN_VALIDATION(expensive, g.validate());
  Decomposition d;
  d.num_clusters = g.num_vertices();
  d.assignment.resize(static_cast<std::size_t>(g.num_vertices()));
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    d.assignment[static_cast<std::size_t>(v)] = v;
  }
  return d;
}

Decomposition compose(const Decomposition& d1, const Decomposition& d2) {
  HICOND_CHECK(d2.assignment.size() == static_cast<std::size_t>(d1.num_clusters),
               "compose: d2 must partition the clusters of d1");
  Decomposition out;
  out.num_clusters = d2.num_clusters;
  // assign() instead of resize(): sidesteps a GCC 12 -Wnull-dereference
  // false positive in the value-initializing resize path.
  out.assignment.assign(d1.assignment.size(), 0);
  parallel_for(d1.assignment.size(), [&](std::size_t v) {
    out.assignment[v] =
        d2.assignment[static_cast<std::size_t>(d1.assignment[v])];
  });
  return out;
}

}  // namespace hicond
