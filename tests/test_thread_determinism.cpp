// Thread-matrix determinism tests for the parallel hot paths.
//
// The library promises more than "no data races": under the determinism
// policy of docs/PARALLELISM.md (owner-computes writes, fixed-block
// reductions) every parallel code path produces BITWISE identical results
// (a) across repeated runs at a fixed OMP_NUM_THREADS, and (b) across
// different thread counts altogether. These tests pin both properties on
// the end-to-end pipeline -- decomposition, quotient/Steiner assembly, and
// the PCG solve -- and additionally push each thread count's decomposition
// through the PR 3 certify oracle so equivalence is checked against the
// paper's guarantees, not just against another run of the same code.
//
// <omp.h> is used directly only to set/restore the ambient thread count;
// all parallelism still goes through util/parallel.hpp (lint-enforced).

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "block_layout.hpp"
#include "hicond/certify/certify.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/graph.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/la/cg.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/decomposition.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/multilevel.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/tree/tree_decomposition.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

/// The thread counts the determinism matrix runs: serial, a small team, a
/// team of 4 (one thread per core on a 4-core machine, so the threads truly
/// run at once), and an oversubscribed team of 8 (where the machine has
/// fewer cores, oversubscription is exactly the schedule perturbation we
/// want).
constexpr int kThreadMatrix[] = {1, 2, 4, 8};

/// Run `fn()` with the OpenMP thread count forced to `threads`, restoring
/// the ambient setting afterwards (exceptions propagate after restore).
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

std::vector<double> mean_free_rhs(vidx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  return b;
}

// --- repeated runs at a fixed thread count --------------------------------

TEST(ThreadDeterminism, TreeDecompositionBitIdenticalAcrossRepeats) {
  const Graph tree = gen::random_tree(4000, {}, 7);
  for (const int t : kThreadMatrix) {
    with_thread_count(t, [&] {
      const Decomposition first = tree_decomposition(tree);
      for (int rep = 0; rep < 3; ++rep) {
        const Decomposition again = tree_decomposition(tree);
        EXPECT_EQ(again.num_clusters, first.num_clusters) << "threads=" << t;
        EXPECT_EQ(again.assignment, first.assignment) << "threads=" << t;
      }
      return 0;
    });
  }
}

TEST(ThreadDeterminism, SteinerApplyBitIdenticalAcrossRepeats) {
  const Graph g = gen::grid2d(20, 20, gen::WeightSpec::uniform(1.0, 4.0), 11);
  const auto fd = fixed_degree_decomposition(g);
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(g, fd.decomposition);
  const auto r = mean_free_rhs(g.num_vertices(), 13);
  for (const int t : kThreadMatrix) {
    with_thread_count(t, [&] {
      std::vector<double> z0(r.size());
      sp.apply(r, z0);
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<double> z(r.size());
        sp.apply(r, z);
        EXPECT_EQ(z, z0) << "threads=" << t;  // bitwise, not approx
      }
      return 0;
    });
  }
}

// --- invariance across thread counts --------------------------------------

TEST(ThreadDeterminism, TreeDecompositionCertifiedAtEveryThreadCount) {
  const Graph tree = gen::random_tree(3000, gen::WeightSpec::uniform(0.5, 2.0),
                                      21);
  const Decomposition base =
      with_thread_count(1, [&] { return tree_decomposition(tree); });
  for (const int t : kThreadMatrix) {
    const Decomposition d =
        with_thread_count(t, [&] { return tree_decomposition(tree); });
    // Fixed-block reductions + owner-computes make the result invariant
    // across thread counts, which subsumes certificate equivalence ...
    EXPECT_EQ(d.num_clusters, base.num_clusters) << "threads=" << t;
    EXPECT_EQ(d.assignment, base.assignment) << "threads=" << t;
    // ... but certify anyway: equality proves t-independence, the oracle
    // proves the shared answer actually meets Theorem 2.1.
    const certify::Certificate cert =
        certify::certify_tree_decomposition(tree, d);
    EXPECT_TRUE(cert.pass) << "threads=" << t << "\n" << cert.to_text();
  }
}

TEST(ThreadDeterminism, FixedDegreeCertifiedAtEveryThreadCount) {
  const Graph g = gen::grid2d(18, 18, gen::WeightSpec::lognormal(0.0, 1.0), 31);
  const FixedDegreeResult base =
      with_thread_count(1, [&] { return fixed_degree_decomposition(g); });
  for (const int t : kThreadMatrix) {
    const FixedDegreeResult fd =
        with_thread_count(t, [&] { return fixed_degree_decomposition(g); });
    EXPECT_EQ(fd.decomposition.num_clusters, base.decomposition.num_clusters)
        << "threads=" << t;
    EXPECT_EQ(fd.decomposition.assignment, base.decomposition.assignment)
        << "threads=" << t;
    const certify::Certificate cert =
        certify::certify_decomposition(g, fd.decomposition, 0.0, 1.0);
    EXPECT_TRUE(cert.pass) << "threads=" << t << "\n" << cert.to_text();
  }
}

TEST(ThreadDeterminism, EvaluationStatsBitIdenticalAcrossThreadCounts) {
  const Graph g = gen::grid2d(14, 14, gen::WeightSpec::uniform(1.0, 3.0), 41);
  const auto fd = fixed_degree_decomposition(g);
  const DecompositionStats base = with_thread_count(
      1, [&] { return evaluate_decomposition(g, fd.decomposition); });
  const double base_cut = with_thread_count(
      1, [&] { return cut_weight_fraction(g, fd.decomposition); });
  const double base_gamma = with_thread_count(
      1, [&] { return average_gamma(g, fd.decomposition); });
  for (const int t : kThreadMatrix) {
    const DecompositionStats s = with_thread_count(
        t, [&] { return evaluate_decomposition(g, fd.decomposition); });
    EXPECT_EQ(s.num_clusters, base.num_clusters) << "threads=" << t;
    EXPECT_EQ(s.min_phi_lower, base.min_phi_lower) << "threads=" << t;
    EXPECT_EQ(s.min_phi_upper, base.min_phi_upper) << "threads=" << t;
    EXPECT_EQ(s.min_gamma, base.min_gamma) << "threads=" << t;
    EXPECT_EQ(with_thread_count(
                  t, [&] { return cut_weight_fraction(g, fd.decomposition); }),
              base_cut)
        << "threads=" << t;
    EXPECT_EQ(with_thread_count(
                  t, [&] { return average_gamma(g, fd.decomposition); }),
              base_gamma)
        << "threads=" << t;
  }
}

TEST(ThreadDeterminism, QuotientGraphBitIdenticalAcrossThreadCounts) {
  const Graph g = gen::grid3d(7, 7, 7, gen::WeightSpec::uniform(1.0, 2.0), 51);
  const auto fd = fixed_degree_decomposition(g);
  const Graph base = with_thread_count(
      1, [&] { return quotient_graph(g, fd.decomposition.assignment); });
  for (const int t : kThreadMatrix) {
    const Graph q = with_thread_count(
        t, [&] { return quotient_graph(g, fd.decomposition.assignment); });
    ASSERT_EQ(q.num_vertices(), base.num_vertices()) << "threads=" << t;
    for (vidx v = 0; v < q.num_vertices(); ++v) {
      ASSERT_EQ(q.neighbors(v).size(), base.neighbors(v).size())
          << "threads=" << t << " v=" << v;
      for (std::size_t i = 0; i < q.neighbors(v).size(); ++i) {
        EXPECT_EQ(q.neighbors(v)[i], base.neighbors(v)[i]);
        EXPECT_EQ(q.weights(v)[i], base.weights(v)[i]);  // bitwise
      }
    }
  }
}

TEST(ThreadDeterminism, PcgSolveBitIdenticalAcrossThreadCounts) {
  // End to end: decompose, build the Steiner preconditioner, run PCG. Every
  // dot product routes through the fixed-block parallel_sum, so iterates --
  // and therefore the iteration count -- are thread-count invariant.
  const Graph g = gen::grid2d(16, 16, gen::WeightSpec::uniform(1.0, 5.0), 61);
  const auto b = mean_free_rhs(g.num_vertices(), 63);
  auto solve = [&] {
    const auto fd = fixed_degree_decomposition(g);
    const SteinerPreconditioner sp =
        SteinerPreconditioner::build(g, fd.decomposition);
    auto a = [&](std::span<const double> x, std::span<double> y) {
      g.laplacian_apply(x, y);
    };
    std::vector<double> x(b.size(), 0.0);
    const auto stats =
        pcg_solve(a, sp.as_operator(), b, x,
                  {.max_iterations = 500, .rel_tolerance = 1e-9,
                   .project_constant = true});
    EXPECT_TRUE(stats.converged);
    return std::make_pair(stats.iterations, x);
  };
  const auto [base_iters, base_x] = with_thread_count(1, solve);
  for (const int t : kThreadMatrix) {
    const auto [iters, x] = with_thread_count(t, solve);
    EXPECT_EQ(iters, base_iters) << "threads=" << t;
    EXPECT_EQ(x, base_x) << "threads=" << t;  // bitwise
  }
}

TEST(ThreadDeterminism, MultilevelCycleBitIdenticalAcrossThreadCounts) {
  const Graph g = gen::grid2d(24, 24, gen::WeightSpec::uniform(1.0, 2.0), 71);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto r = mean_free_rhs(g.num_vertices(), 73);
  // Three columns, applied twice through one block operator: the second
  // application runs on the workspace the first one grew.
  constexpr int k = 3;
  std::vector<double> rk;
  for (int j = 0; j < k; ++j) {
    const auto col = mean_free_rhs(g.num_vertices(),
                                   static_cast<std::uint64_t>(80 + j));
    rk.insert(rk.end(), col.begin(), col.end());
  }
  rk = test::to_vertex_major(rk, k);
  auto run = [&] {
    const MultilevelSteinerSolver s = MultilevelSteinerSolver::build(
        build_hierarchy(g, {.coarsest_size = 32}));
    EXPECT_GE(s.num_levels(), 2);
    std::vector<double> z(r.size());
    s.apply(r, z);
    const BlockOperator op = s.as_block_operator();
    std::vector<double> zk(n * k);
    op(rk, zk, k);
    z.insert(z.end(), zk.begin(), zk.end());
    std::vector<double> rk2(rk.rbegin(), rk.rend());
    op(rk2, zk, k);
    z.insert(z.end(), zk.begin(), zk.end());
    return z;
  };
  const std::vector<double> base = with_thread_count(1, run);
  for (const int t : kThreadMatrix) {
    EXPECT_EQ(with_thread_count(t, run), base) << "threads=" << t;
  }
}

// --- hierarchy bits pinned to constants ------------------------------------

/// FNV-1a 64 over raw bytes, folded into a running hash.
std::uint64_t fnv_fold(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv_fold(std::uint64_t h, std::span<const T> values) {
  const auto n = static_cast<std::uint64_t>(values.size());
  h = fnv_fold(h, &n, sizeof n);
  return fnv_fold(h, values.data(), values.size_bytes());
}

/// Vertex count plus the offsets, targets and weights bytes of `g`.
std::uint64_t fnv_fold(std::uint64_t h, const Graph& g) {
  const vidx n = g.num_vertices();
  h = fnv_fold(h, &n, sizeof n);
  for (vidx v = 0; v < n; ++v) {
    const eidx begin = g.arc_begin(v);
    h = fnv_fold(h, &begin, sizeof begin);
    h = fnv_fold(h, g.neighbors(v));
    h = fnv_fold(h, g.weights(v));
  }
  return h;
}

std::uint64_t fnv_fold(std::uint64_t h, const Decomposition& d) {
  h = fnv_fold(h, &d.num_clusters, sizeof d.num_clusters);
  return fnv_fold(h, std::span<const vidx>(d.assignment));
}

/// One hash over a whole build: every level's graph and assignment, the
/// coarsest graph, and the fixed-degree result (decomposition and both
/// forests) of the input with the perturbation on and off.
std::uint64_t setup_fingerprint(const Graph& g, bool perturb) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  HierarchyOptions opt;
  opt.contraction.perturb = perturb;
  const LaminarHierarchy hier = build_hierarchy(g, opt);
  for (const HierarchyLevel& level : hier.levels) {
    h = fnv_fold(h, level.graph);
    h = fnv_fold(h, level.decomposition);
  }
  h = fnv_fold(h, hier.coarsest);
  for (const bool p : {true, false}) {
    const FixedDegreeResult fd =
        fixed_degree_decomposition(g, {.seed = 5, .perturb = p});
    h = fnv_fold(h, fd.decomposition);
    h = fnv_fold(h, fd.forest);
    h = fnv_fold(h, fd.perturbed_forest);
  }
  return h;
}

/// A path of triangles whose mirror arcs differ in the last bits (as
/// quotient weights do): each triangle's picks without perturbation form
/// the cycle 3t -> 3t+1 -> 3t+2 -> 3t, so the forest construction must fall
/// back to the perturbed weights. Triangles are joined by lighter edges.
Graph skewed_triangle_path(vidx triangles) {
  const double hi = 1.0 + 2e-12;
  const vidx n = 3 * triangles;
  std::vector<eidx> offsets{0};
  std::vector<vidx> targets;
  std::vector<double> weights;
  for (vidx v = 0; v < n; ++v) {
    const vidx base = v - v % 3;
    const vidx next = base + (v % 3 + 1) % 3;
    const vidx prev = base + (v % 3 + 2) % 3;
    std::vector<std::pair<vidx, double>> row{{next, hi}, {prev, 1.0}};
    if (v % 3 == 0 && v > 0) row.emplace_back(v - 1, 0.5);
    if (v % 3 == 2 && v + 1 < n) row.emplace_back(v + 1, 0.5);
    std::sort(row.begin(), row.end());
    for (const auto& [u, w] : row) {
      targets.push_back(u);
      weights.push_back(w);
    }
    offsets.push_back(static_cast<eidx>(targets.size()));
  }
  return Graph::from_csr(n, std::move(offsets), std::move(targets),
                         std::move(weights));
}

TEST(ThreadDeterminism, HierarchyBitsMatchPinnedConstants) {
  // Pinned constants, not a same-build comparison: a change to setup
  // (quotient assembly, forest construction, splitting, storage) must
  // reproduce these bits exactly at every thread count. The OCT volume's
  // levels >= 1 carry quotient weights whose mirror arcs differ in the last
  // bits; the unit grid without perturbation ties every pick.
  const Graph oct = gen::oct_volume(24, 24, 24, {}, 41);
  const Graph unit = gen::grid3d(12, 12, 12, gen::WeightSpec::unit(), 1);
  const Graph skewed = skewed_triangle_path(400);
  ASSERT_FALSE(is_forest(heaviest_incident_edge_forest(skewed, 1, false)));
  constexpr std::uint64_t kOct = 0x0721438b75f9325aULL;
  constexpr std::uint64_t kUnit = 0x2042c3a6f76e2bc7ULL;
  constexpr std::uint64_t kSkewed = 0x165ce7bc9f4417f3ULL;
  for (const int t : kThreadMatrix) {
    const std::uint64_t oct_hash =
        with_thread_count(t, [&] { return setup_fingerprint(oct, true); });
    const std::uint64_t unit_hash =
        with_thread_count(t, [&] { return setup_fingerprint(unit, false); });
    const std::uint64_t skewed_hash =
        with_thread_count(t, [&] { return setup_fingerprint(skewed, false); });
    EXPECT_EQ(oct_hash, kOct) << "threads=" << t;
    EXPECT_EQ(unit_hash, kUnit) << "threads=" << t;
    EXPECT_EQ(skewed_hash, kSkewed) << "threads=" << t;
  }
}

}  // namespace
}  // namespace hicond
