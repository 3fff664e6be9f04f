#include "hicond/precond/steiner.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "hicond/graph/builder.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

namespace {
/// Expensive invariant sweep for a freshly built Steiner preconditioner:
/// the quotient edge weights must equal the inter-cluster capacities
/// cap(V_i, V_j) recomputed independently from the base graph, the star leaf
/// weights must equal vol_A(u) (Definition 3.1), and the explicit
/// (n+m)-vertex Steiner graph must pass Graph::validate: positive, finite,
/// symmetric weights with consistent cached volumes, which is what makes
/// its Laplacian SDD.
void validate_steiner_invariants(const Graph& a, const Decomposition& p,
                                 const SteinerPreconditioner& sp) {
  const Graph& q = sp.quotient();
  const vidx n = a.num_vertices();
  const vidx m = p.num_clusters;
  std::unordered_map<eidx, double> expected_cap;
  for (vidx u = 0; u < n; ++u) {
    const vidx cu = p.assignment[static_cast<std::size_t>(u)];
    const auto nbrs = a.neighbors(u);
    const auto ws = a.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vidx cv = p.assignment[static_cast<std::size_t>(nbrs[i])];
      if (cu < cv) {
        expected_cap[static_cast<eidx>(cu) * m + cv] += ws[i];
      }
    }
  }
  eidx quotient_edges = 0;
  for (vidx cu = 0; cu < m; ++cu) {
    const auto nbrs = q.neighbors(cu);
    const auto ws = q.weights(cu);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vidx cv = nbrs[i];
      if (cu >= cv) continue;
      ++quotient_edges;
      const auto it = expected_cap.find(static_cast<eidx>(cu) * m + cv);
      HICOND_CHECK(it != expected_cap.end(),
                   "quotient edge without crossing base edges");
      HICOND_CHECK(std::abs(ws[i] - it->second) <=
                       1e-10 * std::max(1.0, std::abs(it->second)),
                   "quotient weight differs from cap(V_i, V_j)");
    }
  }
  HICOND_CHECK(quotient_edges == static_cast<eidx>(expected_cap.size()),
               "quotient is missing an inter-cluster capacity edge");
  const Graph sg = sp.steiner_graph();
  for (vidx v = 0; v < n; ++v) {
    if (a.vol(v) > 0.0) {
      const vidx root = n + p.assignment[static_cast<std::size_t>(v)];
      HICOND_CHECK(std::abs(sg.edge_weight(v, root) - a.vol(v)) <=
                       1e-10 * std::max(1.0, a.vol(v)),
                   "Steiner star leaf weight differs from vol_A(u)");
    }
  }
  sg.validate();
}
}  // namespace

Graph build_steiner_graph(const Graph& a, const Decomposition& p) {
  p.validate(a);
  const vidx n = a.num_vertices();
  const vidx m = p.num_clusters;
  GraphBuilder b(n + m);
  // Quotient edges between roots.
  const Graph q = quotient_graph(a, p.assignment);
  for (const auto& e : q.edge_list()) {
    b.add_edge(n + e.u, n + e.v, e.weight);
  }
  // Stars: leaf u connects to its root with weight vol_A(u).
  for (vidx v = 0; v < n; ++v) {
    if (a.vol(v) > 0.0) {
      b.add_edge(v, n + p.assignment[static_cast<std::size_t>(v)], a.vol(v));
    }
  }
  return b.build();
}

SteinerPreconditioner SteinerPreconditioner::build(const Graph& a,
                                                   const Decomposition& p) {
  p.validate(a);
  HICOND_SPAN("steiner.build");
  SteinerPreconditioner sp;
  sp.assignment_ = p.assignment;
  const vidx n = a.num_vertices();
  sp.inv_diag_.resize(static_cast<std::size_t>(n));
  sp.vol_.resize(static_cast<std::size_t>(n));
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t v) {
    const double vol = a.vol(static_cast<vidx>(v));
    sp.vol_[v] = vol;
    sp.inv_diag_[v] = vol > 0.0 ? 1.0 / vol : 0.0;
  });
  sp.index_ = std::make_shared<ClusterIndex>(
      ClusterIndex::build(p.assignment, p.num_clusters));
  sp.quotient_ = std::make_shared<Graph>(quotient_graph(a, p.assignment));
  HICOND_CHECK(sp.quotient_->num_vertices() == p.num_clusters,
               "quotient size mismatch");
  HICOND_CHECK(sp.quotient_->num_vertices() == 1 ||
                   is_connected(*sp.quotient_),
               "SteinerPreconditioner requires a connected graph "
               "(the quotient is disconnected)");
  sp.quotient_solver_ = std::make_shared<LaplacianDirectSolver>(*sp.quotient_);
  HICOND_RUN_VALIDATION(expensive, validate_steiner_invariants(a, p, sp));
  return sp;
}

void SteinerPreconditioner::apply(std::span<const double> r,
                                  std::span<double> z) const {
  const std::size_t n = inv_diag_.size();
  HICOND_CHECK(r.size() == n && z.size() == n, "size mismatch");
  const auto m = static_cast<std::size_t>(quotient_->num_vertices());
  // Restriction: rq = R' r, parallel over clusters (owner-computes).
  std::vector<double> rq(m, 0.0);
  index_->restrict_sum(r, rq);
  // Quotient solve.
  const std::vector<double> yq = quotient_solver_->solve(rq);
  // Prolongation + diagonal part.
  parallel_for(n, [&](std::size_t v) {
    z[v] = inv_diag_[v] * r[v] +
           yq[static_cast<std::size_t>(assignment_[v])];
  });
}

LinearOperator SteinerPreconditioner::as_operator() const {
  // Capture shared state by value so the operator is self-contained.
  auto assignment = assignment_;
  auto inv_diag = inv_diag_;
  auto index = index_;
  auto quotient_solver = quotient_solver_;
  return [assignment, inv_diag, index, quotient_solver](
             std::span<const double> r, std::span<double> z) {
    const std::size_t n = inv_diag.size();
    std::vector<double> rq(static_cast<std::size_t>(quotient_solver->dim()),
                           0.0);
    index->restrict_sum(r, rq);
    const std::vector<double> yq = quotient_solver->solve(rq);
    parallel_for(n, [&](std::size_t v) {
      z[v] = inv_diag[v] * r[v] +
             yq[static_cast<std::size_t>(assignment[v])];
    });
  };
}

Graph SteinerPreconditioner::steiner_graph() const {
  const vidx n = static_cast<vidx>(inv_diag_.size());
  const vidx m = quotient_->num_vertices();
  GraphBuilder b(n + m);
  for (const auto& e : quotient_->edge_list()) {
    b.add_edge(n + e.u, n + e.v, e.weight);
  }
  for (vidx v = 0; v < n; ++v) {
    if (vol_[static_cast<std::size_t>(v)] > 0.0) {
      b.add_edge(v, n + assignment_[static_cast<std::size_t>(v)],
                 vol_[static_cast<std::size_t>(v)]);
    }
  }
  return b.build();
}

}  // namespace hicond
