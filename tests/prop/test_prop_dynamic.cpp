// Differential property suite for the dynamic subsystem: interleave random
// edge-update batches with solves and check, after every batch, that
//  (a) the repaired decomposition passes the independent certify oracle at
//      thread counts 1 and 8 (the determinism policy makes the certificate
//      thread-count invariant),
//  (b) the [phi, rho] invariants hold: every cluster internally connected,
//      certified closure conductance strictly positive, untouched clusters'
//      partition preserved verbatim,
//  (c) PCG with the repaired preconditioner converges within 1.5x the
//      iterations of a from-scratch rebuild on the same mutated graph.
// Counterexamples shrink to a minimal failing graph via the prop framework;
// the update sequence is re-derived deterministically from the (shrunk)
// graph's content, so the minimal report is reproducible.

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "../dipole.hpp"
#include "hicond/certify/certify.hpp"
#include "hicond/dynamic/repair.hpp"
#include "hicond/dynamic/update.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/solver.hpp"
#include "prop.hpp"

namespace hicond {
namespace {

using dynamic::EdgeUpdate;
using dynamic::UpdateKind;

constexpr int kRoundsPerCase = 3;  ///< update/solve interleavings per graph

/// Run `fn()` under a forced OpenMP thread count, restoring the ambient
/// setting afterwards (exceptions propagate after restore).
template <typename Fn>
auto with_thread_count(int threads, Fn&& fn) {
  const int ambient = omp_get_max_threads();
  omp_set_num_threads(threads);
  struct Restore {
    int ambient;
    ~Restore() { omp_set_num_threads(ambient); }
  } restore{ambient};
  return fn();
}

Graph dynamic_instance(Rng& rng, vidx n) {
  const std::uint64_t s = rng.next_u64();
  const auto side = static_cast<vidx>(std::max(
      2.0, std::sqrt(static_cast<double>(std::max<vidx>(n, 4)))));
  switch (rng.uniform_index(3)) {
    case 0:
      return gen::grid2d(side, side, gen::WeightSpec::uniform(1.0, 4.0), s);
    case 1:
      return gen::random_planar_triangulation(
          std::max<vidx>(n, 4), gen::WeightSpec::uniform(0.5, 2.0), s);
    default:
      return gen::random_regular(std::max<vidx>(n, 6), 4,
                                 gen::WeightSpec::uniform(1.0, 2.0), s);
  }
}

/// Draw one applicable random batch against `cur`: inserts of absent edges,
/// reweights and connectivity-preserving deletes of present ones. Returns
/// the mutated graph; appends the accepted updates to `batch`.
Graph random_batch(const Graph& cur, Rng& rng,
                   std::vector<EdgeUpdate>* batch) {
  Graph work = cur;
  const vidx n = cur.num_vertices();
  const int attempts = 2 + static_cast<int>(rng.uniform_index(5));
  for (int a = 0; a < attempts; ++a) {
    const auto u = static_cast<vidx>(rng.uniform_index(
        static_cast<std::uint64_t>(n)));
    switch (rng.uniform_index(3)) {
      case 0: {  // insert a currently absent edge
        const auto v = static_cast<vidx>(rng.uniform_index(
            static_cast<std::uint64_t>(n)));
        if (u == v || work.has_edge(u, v)) break;
        const EdgeUpdate up{UpdateKind::insert, u, v,
                            rng.uniform(0.5, 2.0)};
        work = dynamic::apply_updates(work, std::vector<EdgeUpdate>{up});
        batch->push_back(up);
        break;
      }
      case 1: {  // reweight a present edge
        if (work.degree(u) == 0) break;
        const vidx v = work.neighbors(u)[rng.uniform_index(
            static_cast<std::uint64_t>(work.degree(u)))];
        const EdgeUpdate up{UpdateKind::reweight, u, v,
                            rng.uniform(0.25, 4.0)};
        work = dynamic::apply_updates(work, std::vector<EdgeUpdate>{up});
        batch->push_back(up);
        break;
      }
      default: {  // delete a present non-bridge edge
        if (work.degree(u) == 0) break;
        const vidx v = work.neighbors(u)[rng.uniform_index(
            static_cast<std::uint64_t>(work.degree(u)))];
        const EdgeUpdate up{UpdateKind::remove, u, v, 0.0};
        const Graph candidate =
            dynamic::apply_updates(work, std::vector<EdgeUpdate>{up});
        if (!is_connected(candidate)) break;  // bridge: keep the graph whole
        work = candidate;
        batch->push_back(up);
        break;
      }
    }
  }
  return work;
}

void require(bool ok, const std::string& message) {
  if (!ok) throw std::runtime_error(message);
}

/// (b): structural + quality invariants on a repaired level-0 decomposition,
/// including preservation of every non-dissolved cluster's partition.
void check_invariants(const Graph& g, const Decomposition& d_old,
                      const Decomposition& d_new,
                      const std::vector<vidx>& dissolved) {
  d_new.validate(g);
  const DecompositionStats stats = evaluate_decomposition(g, d_new);
  require(stats.num_disconnected_clusters == 0,
          "repair left an internally disconnected cluster");
  require(stats.min_phi_lower > 0.0,
          "repair left a cluster with certified conductance 0");
  std::vector<char> gone(static_cast<std::size_t>(d_old.num_clusters), 0);
  for (const vidx c : dissolved) gone[static_cast<std::size_t>(c)] = 1;
  const auto clusters = ClusterIndex::build(d_old.assignment,
                                            d_old.num_clusters);
  for (vidx c = 0; c < d_old.num_clusters; ++c) {
    if (gone[static_cast<std::size_t>(c)]) continue;
    const auto mem = clusters.members(c);
    for (std::size_t i = 1; i < mem.size(); ++i) {
      require(d_new.assignment[static_cast<std::size_t>(mem[i])] ==
                  d_new.assignment[static_cast<std::size_t>(mem[0])],
              "repair split an untouched cluster");
    }
  }
}

/// (a): the independent oracle, run at both thread counts.
void check_certified(const Graph& g, const Decomposition& d) {
  for (const int threads : {1, 8}) {
    const certify::Certificate cert = with_thread_count(threads, [&] {
      return certify::certify_decomposition(g, d, 0.0, 1.0);
    });
    require(cert.pass, "certify failed at " + std::to_string(threads) +
                           " thread(s): " + cert.to_text());
  }
}

/// One interleaved update/solve sequence over `g`; `compare_solvers` adds
/// the (c) iteration-overhead differential (the expensive half).
void run_sequence(const Graph& g, bool compare_solvers) {
  if (g.num_vertices() < 6 || !is_connected(g)) return;  // vacuous mutant
  HierarchyOptions ho;
  ho.coarsest_size = 8;
  // Derive the update stream from the graph content so the property is a
  // pure function of its input (shrinking stays deterministic).
  Rng rng(serve::graph_fingerprint(g) ^ 0x9e3779b97f4a7c15ULL);

  Graph cur = g;
  LaminarHierarchy h = build_hierarchy(cur, ho);
  for (int round = 0; round < kRoundsPerCase; ++round) {
    std::vector<EdgeUpdate> batch;
    Graph next = random_batch(cur, rng, &batch);
    if (batch.empty()) continue;

    dynamic::RepairResult rr =
        dynamic::repair_decomposition(next, batch, h, ho);
    LaminarHierarchy repaired;
    if (rr.repaired) {
      require(!rr.hierarchy.levels.empty(),
              "repair returned a flat hierarchy");
      check_invariants(next, h.levels.front().decomposition,
                       rr.hierarchy.levels.front().decomposition,
                       rr.dissolved);
      check_certified(next,
                      rr.hierarchy.levels.front().decomposition);
      repaired = std::move(rr.hierarchy);
    } else {
      // Declined (flat hierarchy / oversized dirty region): the serving
      // fallback is a cold build. Keep interleaving on that path too.
      repaired = build_hierarchy(next, ho);
      if (!repaired.levels.empty()) {
        check_certified(next, repaired.levels.front().decomposition);
      }
    }

    if (compare_solvers) {
      const LaplacianSolver dynamic_solver(next, repaired);
      const LaplacianSolver rebuilt(next, {.hierarchy = ho});
      const std::vector<double> b = test::dipole(next);
      std::vector<double> x(b.size(), 0.0);
      const SolveStats dyn = dynamic_solver.solve(b, x);
      std::fill(x.begin(), x.end(), 0.0);
      const SolveStats ref = rebuilt.solve(b, x);
      require(dyn.converged, "PCG on the repaired hierarchy stalled at " +
                                 std::to_string(dyn.final_relative_residual));
      require(ref.converged, "PCG on the rebuilt hierarchy stalled");
      // The 1.5x overhead budget (+1 absorbs tiny-iteration quantization).
      require(dyn.iterations <= (ref.iterations * 3 + 1) / 2 + 1,
              "repaired preconditioner needed " +
                  std::to_string(dyn.iterations) + " iterations vs " +
                  std::to_string(ref.iterations) + " after a rebuild");
    }

    cur = std::move(next);
    h = std::move(repaired);
  }
}

// The full differential (certify + invariants + solver comparison) on a
// moderate case count...
TEST(prop_dynamic, InterleavedUpdatesKeepCertifiedSolvableHierarchies) {
  const auto property = [](const Graph& g) {
    run_sequence(g, /*compare_solvers=*/true);
  };
  prop::PropOptions o;
  o.cases = 60;
  o.min_size = 6;
  o.max_size = 48;
  o.seed = 7001;
  const prop::PropResult r =
      prop::check_property(dynamic_instance, property, o);
  EXPECT_TRUE(r.ok) << r.describe();
}

// ...plus a wider certify-only sweep. Together the two tests exercise
// (60 + 120) * 3 = 540 interleaved update batches per run.
TEST(prop_dynamic, WideSweepCertifiesEveryRepairedDecomposition) {
  const auto property = [](const Graph& g) {
    run_sequence(g, /*compare_solvers=*/false);
  };
  prop::PropOptions o;
  o.cases = 120;
  o.min_size = 6;
  o.max_size = 40;
  o.seed = 7717;
  const prop::PropResult r =
      prop::check_property(dynamic_instance, property, o);
  EXPECT_TRUE(r.ok) << r.describe();
}

}  // namespace
}  // namespace hicond
