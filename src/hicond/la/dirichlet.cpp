#include "hicond/la/dirichlet.hpp"

#include "hicond/graph/builder.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/solver.hpp"

namespace hicond {

namespace {

/// Marks `vertices` as boundary; each must be in range and appear once.
std::vector<char> mark_boundary(const Graph& g,
                                std::span<const vidx> vertices) {
  const vidx n = g.num_vertices();
  std::vector<char> is_boundary(static_cast<std::size_t>(n), 0);
  for (const vidx b : vertices) {
    HICOND_CHECK(b >= 0 && b < n, "boundary vertex out of range");
    HICOND_CHECK(!is_boundary[static_cast<std::size_t>(b)],
                 "duplicate boundary vertex");
    is_boundary[static_cast<std::size_t>(b)] = 1;
  }
  return is_boundary;
}

/// Writes the interior entries of the k columns of `x` (column j at
/// [j*n, (j+1)*n)) so that L_UU x_U = -L_UB x_B, given the boundary entries.
///
/// The boundary is contracted into one vertex c, the last: an interior
/// vertex's edges into the boundary become one edge to c carrying their
/// summed weight, and boundary-boundary edges are dropped. With
/// r = -L_UB x_B, the contracted Laplacian system L' y = (r; -sum r) is
/// consistent, and since the rows of L_UU sum to each vertex's weight into
/// the boundary, x_U = y_U - y_c solves L_UU x_U = r.
void extend_harmonically(const Graph& g, std::span<const char> is_boundary,
                         std::span<double> x, int k) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<vidx> interior;
  std::vector<vidx> interior_id(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    if (!is_boundary[v]) {
      interior_id[v] = static_cast<vidx>(interior.size());
      interior.push_back(static_cast<vidx>(v));
    }
  }
  if (interior.empty()) return;
  const auto c = static_cast<vidx>(interior.size());
  const std::size_t m = interior.size() + 1;
  GraphBuilder builder(c + 1);
  std::vector<double> rhs(m * static_cast<std::size_t>(k), 0.0);
  for (vidx i = 0; i < c; ++i) {
    const vidx v = interior[static_cast<std::size_t>(i)];
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    double to_boundary = 0.0;
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      const auto u = static_cast<std::size_t>(nbrs[e]);
      if (!is_boundary[u]) {
        if (v < nbrs[e]) builder.add_edge(i, interior_id[u], ws[e]);
        continue;
      }
      to_boundary += ws[e];
      for (int j = 0; j < k; ++j) {
        rhs[static_cast<std::size_t>(j) * m + static_cast<std::size_t>(i)] +=
            ws[e] * x[static_cast<std::size_t>(j) * n + u];
      }
    }
    if (to_boundary > 0.0) builder.add_edge(i, c, to_boundary);
  }
  const Graph contracted = builder.build();
  if (!is_connected(contracted)) {
    throw numeric_error(
        "harmonic_extension: a component has no boundary vertex");
  }
  for (int j = 0; j < k; ++j) {
    const std::span<double> col =
        std::span<double>(rhs).subspan(static_cast<std::size_t>(j) * m, m);
    double total = 0.0;
    for (std::size_t i = 0; i + 1 < m; ++i) total += col[i];
    col[m - 1] = -total;
  }
  std::vector<double> y(rhs.size(), 0.0);
  const LaplacianSolver solver(contracted);
  for (const SolveStats& stats : solver.solve_batch(rhs, y, k)) {
    if (!stats.converged) {
      throw numeric_error("harmonic_extension: the solve did not converge");
    }
  }
  for (int j = 0; j < k; ++j) {
    const std::size_t yj = static_cast<std::size_t>(j) * m;
    for (std::size_t i = 0; i < interior.size(); ++i) {
      x[static_cast<std::size_t>(j) * n +
        static_cast<std::size_t>(interior[i])] = y[yj + i] - y[yj + m - 1];
    }
  }
}

}  // namespace

std::vector<double> harmonic_extension(const Graph& g,
                                       std::span<const vidx> boundary_vertices,
                                       std::span<const double> boundary_values) {
  HICOND_CHECK(boundary_vertices.size() == boundary_values.size(),
               "boundary size mismatch");
  HICOND_CHECK(!boundary_vertices.empty(), "empty boundary");
  const std::vector<char> is_boundary = mark_boundary(g, boundary_vertices);
  std::vector<double> x(static_cast<std::size_t>(g.num_vertices()), 0.0);
  for (std::size_t i = 0; i < boundary_vertices.size(); ++i) {
    x[static_cast<std::size_t>(boundary_vertices[i])] = boundary_values[i];
  }
  extend_harmonically(g, is_boundary, x, 1);
  return x;
}

std::vector<std::vector<double>> random_walker_probabilities(
    const Graph& g, std::span<const std::vector<vidx>> seeds) {
  HICOND_CHECK(seeds.size() >= 2, "need at least two seed classes");
  // Shared boundary: all seeds of all classes.
  std::vector<vidx> boundary;
  for (const auto& cls : seeds) {
    HICOND_CHECK(!cls.empty(), "empty seed class");
    boundary.insert(boundary.end(), cls.begin(), cls.end());
  }
  const std::vector<char> is_boundary = mark_boundary(g, boundary);
  // Column c holds the indicator of class c's seeds.
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> x(n * seeds.size(), 0.0);
  for (std::size_t c = 0; c < seeds.size(); ++c) {
    for (const vidx s : seeds[c]) x[c * n + static_cast<std::size_t>(s)] = 1.0;
  }
  extend_harmonically(g, is_boundary, x, static_cast<int>(seeds.size()));
  std::vector<std::vector<double>> result;
  result.reserve(seeds.size());
  for (std::size_t c = 0; c < seeds.size(); ++c) {
    const auto first = x.begin() + static_cast<std::ptrdiff_t>(c * n);
    result.emplace_back(first, first + static_cast<std::ptrdiff_t>(n));
  }
  return result;
}

std::vector<vidx> random_walker_segmentation(
    const Graph& g, std::span<const std::vector<vidx>> seeds) {
  const auto probs = random_walker_probabilities(g, seeds);
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
