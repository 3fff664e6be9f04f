#include "hicond/spectral/random_walk.hpp"

#include "hicond/util/parallel.hpp"

namespace hicond {

void random_walk_step(const Graph& g, std::span<const double> x,
                      std::span<double> y) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  HICOND_CHECK(x.size() == n && y.size() == n, "size mismatch");
  // y_v = x_v - sum_u w(u,v) (x_v / d_v) + ... writing P = I - A D^{-1}:
  // y = x - A z with z = D^{-1} x. Isolated vertices keep their mass.
  std::vector<double> z(n);
  parallel_for(n, [&](std::size_t v) {
    const double vol = g.vol(static_cast<vidx>(v));
    z[v] = vol > 0.0 ? x[v] / vol : 0.0;
  });
  parallel_for(n, [&](std::size_t v) {
    double acc = x[v] - g.vol(static_cast<vidx>(v)) * z[v];
    const auto nbrs = g.neighbors(static_cast<vidx>(v));
    const auto ws = g.weights(static_cast<vidx>(v));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      acc += ws[i] * z[static_cast<std::size_t>(nbrs[i])];
    }
    y[v] = acc;
  });
}

std::vector<double> random_walk_distribution(const Graph& g, vidx source,
                                             int t) {
  HICOND_CHECK(source >= 0 && source < g.num_vertices(), "source out of range");
  std::vector<double> x(static_cast<std::size_t>(g.num_vertices()), 0.0);
  x[static_cast<std::size_t>(source)] = 1.0;
  return mixture_walk(g, std::move(x), t);
}

std::vector<double> mixture_walk(const Graph& g, std::vector<double> w,
                                 int t) {
  HICOND_CHECK(t >= 0, "negative step count");
  HICOND_CHECK(w.size() == static_cast<std::size_t>(g.num_vertices()),
               "mixture size mismatch");
  std::vector<double> next(w.size());
  for (int step = 0; step < t; ++step) {
    random_walk_step(g, w, next);
    w.swap(next);
  }
  return w;
}

double trapped_mass(const Graph& g, const Decomposition& p, vidx source,
                    int t) {
  p.validate(g);
  const auto dist = random_walk_distribution(g, source, t);
  const vidx c = p.assignment[static_cast<std::size_t>(source)];
  double mass = 0.0;
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    if (p.assignment[static_cast<std::size_t>(v)] == c) {
      mass += dist[static_cast<std::size_t>(v)];
    }
  }
  return mass;
}

}  // namespace hicond
