#include "hicond/partition/fixed_degree.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "hicond/obs/trace.hpp"
#include "hicond/tree/tree_splitting.hpp"
#include "hicond/util/common.hpp"
#include "hicond/util/parallel.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {

namespace {

/// Deterministic perturbation factor in (1, 2) for the undirected edge
/// (u, v): both endpoints compute the same factor regardless of direction.
double perturbation(std::uint64_t seed, vidx u, vidx v) {
  const auto lo = static_cast<std::uint64_t>(std::min(u, v));
  const auto hi = static_cast<std::uint64_t>(std::max(u, v));
  return counter_uniform(seed, (hi << 32) | lo, 1.0, 2.0);
}

/// Strictly ordered comparison of perturbed edges incident to a vertex:
/// heavier perturbed weight wins; exact ties (measure zero, but possible
/// with equal inputs) break on the neighbour id so the choice is a strict
/// total order and the union of choices is acyclic.
struct Pick {
  vidx to = -1;
  double w_hat = -1.0;
  double w_orig = 0.0;
};

/// Pass [1]+[2]: every vertex's heaviest perturbed incident edge. Fully
/// parallel; the counter-based perturbation needs no shared state.
std::vector<Pick> heaviest_picks(const Graph& g, std::uint64_t seed,
                                 bool perturb) {
  const vidx n = g.num_vertices();
  std::vector<Pick> pick(static_cast<std::size_t>(n));
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t v) {
    const auto nbrs = g.neighbors(static_cast<vidx>(v));
    const auto ws = g.weights(static_cast<vidx>(v));
    Pick best;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const double factor =
          perturb ? perturbation(seed, static_cast<vidx>(v), nbrs[i]) : 1.0;
      const double w_hat = ws[i] * factor;
      if (w_hat > best.w_hat ||
          (w_hat == best.w_hat && nbrs[i] < best.to)) {
        best = {nbrs[i], w_hat, ws[i]};
      }
    }
    pick[v] = best;
  });
  return pick;
}

/// The forest B spanned by the picks, with each edge weighted by its
/// picker's `weight` (w_hat or w_orig); an edge picked from both sides takes
/// its lower endpoint's weight. Whoever picks v is a neighbour of v in g, so
/// row v is the ascending scan of v's g-row keeping pick[v] and the vertices
/// that picked v: owner-computes rows, no scatter, and from_csr validates
/// the result.
Graph forest_from_picks(const Graph& g, const std::vector<Pick>& pick,
                        double Pick::*weight) {
  const vidx n = g.num_vertices();
  auto in_forest = [&](vidx v, vidx u) {
    return pick[static_cast<std::size_t>(v)].to == u ||
           pick[static_cast<std::size_t>(u)].to == v;
  };
  std::vector<eidx> offsets(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t v) {
    eidx count = 0;
    for (const vidx u : g.neighbors(static_cast<vidx>(v))) {
      count += in_forest(static_cast<vidx>(v), u) ? 1 : 0;
    }
    offsets[v] = count;
  });
  const eidx arcs = exclusive_scan_inplace(offsets);
  std::vector<vidx> targets(static_cast<std::size_t>(arcs));
  std::vector<double> weights(static_cast<std::size_t>(arcs));
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
    const auto v = static_cast<vidx>(i);
    auto out = static_cast<std::size_t>(offsets[i]);
    for (const vidx u : g.neighbors(v)) {
      if (!in_forest(v, u)) continue;
      const bool mutual = pick[i].to == u &&
                          pick[static_cast<std::size_t>(u)].to == v;
      const vidx picker = mutual ? std::min(u, v) : (pick[i].to == u ? v : u);
      targets[out] = u;
      weights[out] = pick[static_cast<std::size_t>(picker)].*weight;
      ++out;
    }
  });
  return Graph::from_csr(n, std::move(offsets), std::move(targets),
                         std::move(weights));
}

/// Passes [1]-[3] with the picks and the perturbed forest they spanned.
struct Contraction {
  std::vector<Pick> picks;
  Graph perturbed_forest;
  Decomposition decomposition;
};

Contraction contract(const Graph& g, const FixedDegreeOptions& opt) {
  HICOND_CHECK(opt.max_cluster_size >= 2, "max_cluster_size must be >= 2");
  Contraction c;
  c.picks = heaviest_picks(g, opt.seed, opt.perturb);
  c.perturbed_forest = forest_from_picks(g, c.picks, &Pick::w_hat);
  // Pass [3]: bounded-size splitting on the perturbed weights (heaviest
  // perturbed edges merge first, preserving the unimodal structure). Its
  // acyclicity test is the level's only one on the common path.
  HICOND_SPAN("fixed_degree.split");
  if (auto d = try_split_forest_bounded(c.perturbed_forest,
                                        opt.max_cluster_size)) {
    c.decomposition = std::move(*d);
    return c;
  }
  // Only reachable with perturb = false and tied weights; fall back to the
  // perturbed construction to restore the forest guarantee (the checked
  // split tests it again).
  c.picks = heaviest_picks(g, opt.seed, /*perturb=*/true);
  c.perturbed_forest = forest_from_picks(g, c.picks, &Pick::w_hat);
  c.decomposition =
      split_forest_bounded(c.perturbed_forest, opt.max_cluster_size);
  return c;
}

}  // namespace

Graph heaviest_incident_edge_forest(const Graph& g, std::uint64_t seed,
                                    bool perturb) {
  return forest_from_picks(g, heaviest_picks(g, seed, perturb), &Pick::w_hat);
}

bool is_unimodal_forest(const Graph& forest) {
  HICOND_RUN_VALIDATION(expensive, forest.validate());
  // An edge (u, v) is a local minimum if u has a strictly heavier incident
  // edge and so does v. Unimodal <=> no local-minimum edge exists. The
  // per-vertex test only reads the forest, so the sweep is parallel.
  const vidx n = forest.num_vertices();
  return !parallel_any(static_cast<std::size_t>(n), [&](std::size_t i) {
    const auto v = static_cast<vidx>(i);
    const auto nbrs = forest.neighbors(v);
    const auto ws = forest.weights(v);
    double vmax = 0.0;
    for (double w : ws) vmax = std::max(vmax, w);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (ws[k] >= vmax) continue;  // heaviest at v: cannot be local min
      const vidx u = nbrs[k];
      double umax = 0.0;
      for (double w : forest.weights(u)) umax = std::max(umax, w);
      if (ws[k] < umax) return true;  // lighter than both endpoints' max
    }
    return false;
  });
}

FixedDegreeResult fixed_degree_decomposition(const Graph& g,
                                             const FixedDegreeOptions& opt) {
  HICOND_SPAN("fixed_degree.decompose");
  Contraction c = contract(g, opt);
  FixedDegreeResult result{std::move(c.decomposition),
                           forest_from_picks(g, c.picks, &Pick::w_orig),
                           std::move(c.perturbed_forest)};
  HICOND_RUN_VALIDATION(expensive, result.decomposition.validate(g));
  HICOND_RUN_VALIDATION(expensive, result.forest.validate());
  HICOND_RUN_VALIDATION(expensive, result.perturbed_forest.validate());
  return result;
}

Decomposition fixed_degree_clusters(const Graph& g,
                                    const FixedDegreeOptions& opt) {
  HICOND_SPAN("fixed_degree.decompose");
  Decomposition d = contract(g, opt).decomposition;
  HICOND_RUN_VALIDATION(expensive, d.validate(g));
  return d;
}

}  // namespace hicond
