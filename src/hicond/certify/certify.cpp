#include "hicond/certify/certify.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "hicond/certify/oracle.hpp"
#include "hicond/graph/closure.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/precond/support.hpp"

namespace hicond::certify {

namespace {

void fingerprint(Certificate& cert, const Graph& g, const Decomposition& d) {
  cert.num_vertices = g.num_vertices();
  cert.num_edges = g.num_edges();
  cert.total_volume = g.total_volume();
  cert.num_clusters = d.num_clusters;
}

/// Structural exact-cover check as a Check instead of an exception.
Check check_structure(const Graph& g, const Decomposition& d) {
  Check c;
  c.name = "structure";
  c.relation = "==";
  c.method = "structural";
  c.bound = 0.0;
  try {
    d.validate(g);
    c.status = CheckStatus::pass;
  } catch (const invalid_argument_error& e) {
    c.status = CheckStatus::fail;
    c.measured = 1.0;
    c.detail = e.what();
  }
  return c;
}

Check check_cluster_connectivity(const Graph& g,
                                 const ClusterIndex& clusters) {
  Check c;
  c.name = "cluster-connectivity";
  c.relation = "<=";
  c.method = "bfs";
  c.bound = 0.0;
  vidx disconnected = 0;
  vidx first_bad = -1;
  for (vidx i = 0; i < clusters.num_clusters(); ++i) {
    const Graph induced = induced_subgraph(g, clusters.members(i));
    if (!is_connected(induced)) {
      ++disconnected;
      if (first_bad < 0) first_bad = i;
    }
  }
  c.measured = static_cast<double>(disconnected);
  c.status = disconnected == 0 ? CheckStatus::pass : CheckStatus::fail;
  if (first_bad >= 0) {
    c.detail = "cluster " + std::to_string(first_bad) +
               " does not induce a connected subgraph";
  }
  return c;
}

struct PhiEvidence {
  double min_lower = kInfiniteConductance;
  double min_upper = kInfiniteConductance;
  bool all_exact = true;
  vidx worst_cluster = -1;
};

/// Recompute every cluster's closure conductance from scratch, filling the
/// certificate's per-cluster evidence table.
PhiEvidence gather_phi_evidence(const Graph& g, const ClusterIndex& clusters,
                                const CertifyOptions& options,
                                Certificate& cert) {
  PhiEvidence ev;
  for (vidx i = 0; i < clusters.num_clusters(); ++i) {
    const ClosureGraph closure = closure_graph(g, clusters.members(i));
    const OracleConductance oc =
        oracle_conductance(closure.graph, options.exact_limit,
                           options.lanczos_steps, options.seed);
    ClusterEvidence row;
    row.cluster = i;
    row.size = static_cast<vidx>(clusters.members(i).size());
    row.closure_size = closure.graph.num_vertices();
    row.phi_lower = oc.lower;
    row.phi_upper = oc.upper;
    row.exact = oc.exact;
    cert.clusters.push_back(row);
    if (oc.lower < ev.min_lower) {
      ev.min_lower = oc.lower;
      ev.worst_cluster = i;
    }
    ev.min_upper = std::min(ev.min_upper, oc.upper);
    if (!oc.exact) ev.all_exact = false;
  }
  return ev;
}

Check check_closure_conductance(const PhiEvidence& ev, double phi,
                                double tolerance) {
  Check c;
  c.name = "closure-conductance";
  c.relation = ">=";
  c.method = ev.all_exact ? "brute-force" : "brute-force+lanczos-cheeger";
  c.measured = ev.min_lower;
  c.bound = phi;
  const bool ok = ev.min_lower >= phi - tolerance;
  c.status = ok ? CheckStatus::pass : CheckStatus::fail;
  if (!ok) {
    c.detail = "cluster " + std::to_string(ev.worst_cluster) +
               " has certified closure conductance " +
               std::to_string(ev.min_lower) + " < " + std::to_string(phi);
    if (!ev.all_exact && ev.min_upper >= phi) {
      c.detail += " (spectral lower bound only; the sweep upper bound does "
                  "not contradict the target)";
    }
  }
  return c;
}

}  // namespace

Certificate certify_decomposition(const Graph& g, const Decomposition& d,
                                  double phi, double rho,
                                  const CertifyOptions& options) {
  HICOND_CHECK(phi >= 0.0 && rho >= 1.0, "invalid [phi, rho] targets");
  Certificate cert;
  cert.kind = "decomposition";
  fingerprint(cert, g, d);
  cert.phi_target = phi;
  cert.rho_target = rho;

  cert.checks.push_back(check_structure(g, d));
  if (cert.checks.back().status == CheckStatus::fail) {
    cert.finalize();
    return cert;
  }

  {
    // Filled in place: copying a locally-built Check trips a GCC 12
    // -Wmaybe-uninitialized false positive under -O2.
    Check& count = cert.checks.emplace_back();
    count.name = "cluster-count";
    count.relation = "<=";
    count.method = "count";
    count.measured = static_cast<double>(d.num_clusters);
    count.bound = static_cast<double>(g.num_vertices()) / rho;
    count.status = count.measured <= count.bound + options.tolerance
                       ? CheckStatus::pass
                       : CheckStatus::fail;
    if (count.status == CheckStatus::fail) {
      count.detail = "more than n / rho clusters";
    }
  }

  const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
  cert.checks.push_back(check_cluster_connectivity(g, clusters));
  const PhiEvidence ev = gather_phi_evidence(g, clusters, options, cert);
  cert.checks.push_back(check_closure_conductance(ev, phi, options.tolerance));
  cert.finalize();
  return cert;
}

Certificate certify_tree_decomposition(const Graph& forest,
                                       const Decomposition& d,
                                       double phi_floor,
                                       const CertifyOptions& options) {
  Certificate cert;
  cert.kind = "tree";
  fingerprint(cert, forest, d);
  cert.rho_target = 6.0 / 5.0;
  cert.note =
      "Theorem 2.1 states [1/2, 6/5] under the paper's conductance "
      "convention; the standard convention caps unit paths at phi = 1/3 "
      "(see EXPERIMENTS.md), so the default certification floor is "
      "1 / (4 max_degree). The measured phi is recorded either way.";

  const bool forest_ok = is_forest(forest);
  {
    Check& forest_check = cert.checks.emplace_back();
    forest_check.name = "forest-input";
    forest_check.relation = "==";
    forest_check.method = "cycle-scan";
    forest_check.bound = 1.0;
    forest_check.measured = forest_ok ? 1.0 : 0.0;
    forest_check.status = forest_ok ? CheckStatus::pass : CheckStatus::fail;
    if (!forest_ok) forest_check.detail = "input graph contains a cycle";
  }

  cert.checks.push_back(check_structure(forest, d));
  if (cert.checks.back().status == CheckStatus::fail || !forest_ok) {
    cert.finalize();
    return cert;
  }

  // Theorem 2.1 cluster count, certified per component: a component on n_c
  // vertices contributes at most max(1, floor(5 n_c / 6)) clusters (for
  // n_c >= 6 this is the paper's n / rho with rho = 6/5; components of at
  // most 3 vertices are single clusters by construction and components
  // smaller than 6 cannot do better than one cluster in the worst case).
  const std::vector<vidx> comp = connected_components(forest);
  const vidx num_comp = num_components(forest);
  std::vector<vidx> comp_size(static_cast<std::size_t>(num_comp), 0);
  for (vidx v = 0; v < forest.num_vertices(); ++v) {
    ++comp_size[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])];
  }
  double count_bound = 0.0;
  for (const vidx nc : comp_size) {
    count_bound += std::max<double>(1.0, std::floor(5.0 * nc / 6.0));
  }
  {
    Check& count = cert.checks.emplace_back();
    count.name = "cluster-count";
    count.relation = "<=";
    count.method = "theorem-2.1-per-component";
    count.measured = static_cast<double>(d.num_clusters);
    count.bound = count_bound;
    count.status = count.measured <= count.bound + options.tolerance
                       ? CheckStatus::pass
                       : CheckStatus::fail;
    if (count.status == CheckStatus::fail) {
      count.detail = "cluster count exceeds the per-component Theorem 2.1 "
                     "budget (rho >= 6/5)";
    }
  }

  const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
  cert.checks.push_back(check_cluster_connectivity(forest, clusters));

  // No cluster may span two components (isolation).
  vidx spanning = 0;
  {
    std::vector<vidx> cluster_comp(static_cast<std::size_t>(d.num_clusters),
                                   -1);
    for (vidx v = 0; v < forest.num_vertices(); ++v) {
      const auto c = static_cast<std::size_t>(
          d.assignment[static_cast<std::size_t>(v)]);
      const vidx vc = comp[static_cast<std::size_t>(v)];
      if (cluster_comp[c] == -1) {
        cluster_comp[c] = vc;
      } else if (cluster_comp[c] != vc) {
        ++spanning;
      }
    }
  }
  {
    Check& span = cert.checks.emplace_back();
    span.name = "component-isolation";
    span.relation = "<=";
    span.method = "component-scan";
    span.bound = 0.0;
    span.measured = static_cast<double>(spanning);
    span.status = spanning == 0 ? CheckStatus::pass : CheckStatus::fail;
    if (spanning > 0) span.detail = "a cluster spans two tree components";
  }

  const double max_deg = static_cast<double>(forest.max_degree());
  const double target =
      phi_floor >= 0.0 ? phi_floor
                       : (max_deg > 0.0 ? 1.0 / (4.0 * max_deg) : 0.0);
  cert.phi_target = target;
  const PhiEvidence ev = gather_phi_evidence(forest, clusters, options, cert);
  cert.checks.push_back(
      check_closure_conductance(ev, target, options.tolerance));
  cert.finalize();
  return cert;
}

Certificate certify_steiner_support(const Graph& g, const Decomposition& d,
                                    double phi,
                                    const CertifyOptions& options) {
  Certificate cert;
  cert.kind = "steiner-support";
  fingerprint(cert, g, d);
  cert.rho_target = d.reduction_factor();

  cert.checks.push_back(check_structure(g, d));
  if (cert.checks.back().status == CheckStatus::fail) {
    cert.finalize();
    return cert;
  }

  const bool conn = is_connected(g);
  {
    Check& connected = cert.checks.emplace_back();
    connected.name = "connected-input";
    connected.relation = "==";
    connected.method = "bfs";
    connected.bound = 1.0;
    connected.measured = conn ? 1.0 : 0.0;
    connected.status = conn ? CheckStatus::pass : CheckStatus::fail;
    if (!conn) {
      connected.detail = "support certification needs a connected graph";
    }
  }
  if (!conn) {
    cert.finalize();
    return cert;
  }

  double phi_used = phi;
  if (!(phi_used > 0.0)) {
    const auto clusters = ClusterIndex::build(d.assignment, d.num_clusters);
    const PhiEvidence ev = gather_phi_evidence(g, clusters, options, cert);
    const bool phi_ok = ev.min_lower > 0.0;
    {
      Check& phi_check = cert.checks.emplace_back();
      phi_check.name = "certified-phi";
      // std::string{} move-assign sidesteps a GCC 12 -Wrestrict false
      // positive on char* assignment into a just-grown vector element.
      phi_check.relation = std::string{">"};
      phi_check.method =
          ev.all_exact ? "brute-force" : "brute-force+lanczos-cheeger";
      phi_check.measured = ev.min_lower;
      phi_check.bound = 0.0;
      phi_check.status = phi_ok ? CheckStatus::pass : CheckStatus::fail;
      if (!phi_ok) {
        phi_check.detail = "cannot certify a positive phi, so the Theorem "
                           "3.5 bound is vacuous";
      }
    }
    if (!phi_ok) {
      cert.finalize();
      return cert;
    }
    phi_used = std::min(ev.min_lower, 1.0);
  }
  cert.phi_target = phi_used;

  const OracleSigma sigma =
      oracle_steiner_sigma(g, d, options.dense_support_limit,
                           options.lanczos_steps, options.seed);
  {
    Check& support = cert.checks.emplace_back();
    support.name = "support-bound";
    support.relation = "<=";
    support.method = sigma.exact ? "dense-pencil" : "lanczos-pencil";
    support.measured = sigma.sigma;
    support.bound = steiner_support_bound_phi_rho(phi_used);
    support.status = support.measured <= support.bound + options.tolerance
                         ? CheckStatus::pass
                         : CheckStatus::fail;
    if (support.status == CheckStatus::fail) {
      support.detail = "sigma(S_P, A) exceeds 3 (1 + 2 / phi^3) at phi = " +
                       std::to_string(phi_used);
    }
  }
  cert.finalize();
  return cert;
}

}  // namespace hicond::certify
