#include "hicond/graph/closure.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "hicond/graph/builder.hpp"
#include "hicond/util/float_eq.hpp"

namespace hicond {

namespace {

/// Vertex -> position-in-cluster map over thread-local scratch. Closures
/// are scored many at a time and are tiny, so a fresh O(n) allocation per
/// call would dominate; only the entries this cluster touches are reset on
/// destruction (exception-safe, which also covers the HICOND_CHECK throws in
/// the constructor).
class LocalIds {
 public:
  LocalIds(const Graph& g, std::span<const vidx> cluster)
      : map_(scratch()), cluster_(cluster) {
    if (map_.size() < static_cast<std::size_t>(g.num_vertices())) {
      map_.assign(static_cast<std::size_t>(g.num_vertices()), -1);
    }
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const vidx v = cluster[i];
      HICOND_CHECK(v >= 0 && v < g.num_vertices(),
                   "cluster vertex out of range");
      HICOND_CHECK(map_[static_cast<std::size_t>(v)] == -1,
                   "duplicate vertex in cluster");
      map_[static_cast<std::size_t>(v)] = static_cast<vidx>(i);
    }
  }
  LocalIds(const LocalIds&) = delete;
  LocalIds& operator=(const LocalIds&) = delete;
  ~LocalIds() {
    for (const vidx v : cluster_) {
      if (v >= 0 && static_cast<std::size_t>(v) < map_.size()) {
        map_[static_cast<std::size_t>(v)] = -1;
      }
    }
  }

  /// Position of v in the cluster, -1 when v is outside it.
  [[nodiscard]] vidx operator[](vidx v) const {
    return map_[static_cast<std::size_t>(v)];
  }

 private:
  static std::vector<vidx>& scratch() {
    static thread_local std::vector<vidx> map;
    return map;
  }

  std::vector<vidx>& map_;
  std::span<const vidx> cluster_;
};

}  // namespace

ClosureGraph closure_graph(const Graph& g, std::span<const vidx> cluster) {
  HICOND_CHECK(!cluster.empty(), "closure of empty cluster");
  const LocalIds local(g, cluster);
  // First pass: count boundary edges to size the vertex set.
  vidx boundary = 0;
  for (vidx v : cluster) {
    for (vidx u : g.neighbors(v)) {
      if (local[u] == -1) ++boundary;
    }
  }
  const vidx s = static_cast<vidx>(cluster.size());
  GraphBuilder b(s + boundary);
  vidx next_boundary = s;
  for (vidx v : cluster) {
    const vidx nv = local[v];
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vidx nu = local[nbrs[i]];
      if (nu == -1) {
        b.add_edge(nv, next_boundary++, ws[i]);
      } else if (nv < nu) {
        b.add_edge(nv, nu, ws[i]);
      }
    }
  }
  ClosureGraph result;
  result.graph = b.build();
  result.num_cluster_vertices = s;
  result.cluster.assign(cluster.begin(), cluster.end());
  return result;
}

double closure_conductance(const Graph& g, std::span<const vidx> cluster) {
  HICOND_CHECK(!cluster.empty(), "closure of empty cluster");
  HICOND_CHECK(cluster.size() <= 24,
               "closure_conductance limited to 24 members");
  const auto k = static_cast<int>(cluster.size());
  const LocalIds local(g, cluster);

  // Per member: closure volume (own degree plus its leaves' degrees) and the
  // edges to earlier members.
  struct Edge {
    int other;
    double w;
  };
  std::vector<double> vol(static_cast<std::size_t>(k), 0.0);
  std::vector<std::vector<Edge>> earlier(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const vidx v = cluster[static_cast<std::size_t>(i)];
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    double leaves = 0.0;
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      const vidx j = local[nbrs[e]];
      if (j == -1) {
        leaves += ws[e];
      } else if (j < i) {
        earlier[static_cast<std::size_t>(i)].push_back({j, ws[e]});
      }
    }
    vol[static_cast<std::size_t>(i)] = g.vol(v) + leaves;
  }
  if (k == 1) return vol[0] > 0.0 ? 1.0 : kInfiniteConductance;
  // Disconnected members: a member without edges is returned here; any
  // other split has a bipartition with zero cut (weights are positive, so
  // only then), which scores exactly 0 below.
  if (std::any_of(vol.begin(), vol.end(), exact_zero)) return 0.0;

  // Member 0 stays outside S. Member j (j >= 1) is bit k-1-j of the mask, so
  // counting up changes only the last-decided members, and prefix sums over
  // members 0..j-1 carry over. Each prefix is a sum of positive terms.
  struct Prefix {
    double cut = 0.0;
    double vol_in = 0.0;
    double vol_out = 0.0;
  };
  std::vector<Prefix> prefix(static_cast<std::size_t>(k));
  std::vector<char> in_s(static_cast<std::size_t>(k), 0);
  auto extend = [&](int j) {
    Prefix p = prefix[static_cast<std::size_t>(j - 1)];
    const char side = in_s[static_cast<std::size_t>(j)];
    (side ? p.vol_in : p.vol_out) += vol[static_cast<std::size_t>(j)];
    for (const Edge& e : earlier[static_cast<std::size_t>(j)]) {
      if (in_s[static_cast<std::size_t>(e.other)] != side) p.cut += e.w;
    }
    prefix[static_cast<std::size_t>(j)] = p;
  };
  prefix[0].vol_out = vol[0];
  for (int j = 1; j < k; ++j) extend(j);

  double best = 1.0;  // a leaf-only cut
  const std::uint64_t count = 1ULL << (k - 1);
  for (std::uint64_t mask = 1; mask < count; ++mask) {
    const int first = k - 1 - std::countr_zero(mask);
    in_s[static_cast<std::size_t>(first)] = 1;
    for (int j = first + 1; j < k; ++j) in_s[static_cast<std::size_t>(j)] = 0;
    for (int j = first; j < k; ++j) extend(j);
    const Prefix& p = prefix[static_cast<std::size_t>(k - 1)];
    best = std::min(best, p.cut / std::min(p.vol_in, p.vol_out));
  }
  return best;
}

ConductanceBounds closure_conductance_bounds(const Graph& g,
                                             std::span<const vidx> cluster) {
  if (cluster.size() <= static_cast<std::size_t>(kClosureExactMembers)) {
    const double phi = closure_conductance(g, cluster);
    return {.lower = phi, .upper = phi, .exact = true};
  }
  return conductance_bounds(closure_graph(g, cluster).graph);
}

}  // namespace hicond
