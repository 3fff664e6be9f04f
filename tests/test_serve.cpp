// Solver-service tests: the PR's three wire-level guarantees.
//
// 1. A cache-hit (warm) solve is bitwise identical to the cold-build solve
//    that populated the cache, and costs zero setup.
// 2. A k-RHS batched solve is bitwise identical, per column, to k
//    independent single-vector solves -- at every thread count in the
//    determinism matrix (the blocked kernels preserve each column's
//    arithmetic order exactly; docs/PARALLELISM.md).
// 3. Deadline expiry and malformed input -- including wire integers that
//    are fractional or out of range -- produce well-formed JSON error
//    responses, never dropped requests, undefined behaviour or a dead
//    server.
//
// <omp.h> is used only to force the ambient thread count, as in
// test_thread_determinism.cpp.

#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hicond/dynamic/update.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/io.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/serve/batch.hpp"
#include "hicond/serve/cache.hpp"
#include "hicond/serve/request.hpp"
#include "hicond/serve/server.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/solver.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

using serve::HierarchyCache;
using serve::ServerCore;

constexpr int kThreadMatrix[] = {1, 4, 8};

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

/// One request through ServerCore::handle, the path every transport takes.
obs::JsonValue call(ServerCore& core, const std::string& line) {
  return obs::parse_json(core.handle(line));
}

Graph test_graph() {
  return gen::grid2d(12, 12, gen::WeightSpec::uniform(0.5, 2.0), 5);
}

// --- cache: footprint estimate ---------------------------------------------

TEST(ServeCache, SolverBytesEstimateIsPinned) {
  // The solver's graph and hierarchy level 0 share one CSR block, but the
  // estimate still counts both (it is deliberately conservative); the pin
  // holds it to the value computed before graphs shared storage.
  const Graph g = gen::grid2d(40, 40, gen::WeightSpec::uniform(0.5, 2.0), 5);
  HierarchyCache cache(std::size_t{64} << 20);
  const auto built =
      cache.get_or_build(serve::graph_fingerprint(g), g, LaplacianSolverOptions{});
  const LaplacianSolver& solver = *built.solver;
  ASSERT_FALSE(solver.multilevel().hierarchy().levels.empty());
  EXPECT_EQ(solver.graph().neighbors(0).data(),
            solver.multilevel().hierarchy().levels.front().graph.neighbors(0).data());
  constexpr std::size_t kPinnedBytes = 306084;
  EXPECT_EQ(serve::approx_solver_bytes(solver), kPinnedBytes);
  EXPECT_EQ(cache.stats().bytes, kPinnedBytes);
}

// --- cache: cold vs warm bitwise identity ---------------------------------

TEST(ServeCache, WarmSolveBitwiseIdenticalToCold) {
  const Graph g = test_graph();
  const std::uint64_t fp = serve::graph_fingerprint(g);
  const LaplacianSolverOptions options;
  HierarchyCache cache(std::size_t{64} << 20);

  const auto cold = cache.get_or_build(fp, g, options);
  ASSERT_FALSE(cold.hit);
  EXPECT_GT(cold.build_seconds, 0.0);

  const auto warm = cache.get_or_build(fp, g, options);
  ASSERT_TRUE(warm.hit);
  EXPECT_EQ(warm.build_seconds, 0.0);
  // A hit returns the very same built hierarchy, so the "warm setup is at
  // most 5% of cold" serving criterion holds with margin (it is zero).
  EXPECT_EQ(warm.solver.get(), cold.solver.get());

  const std::vector<double> b = mean_free_rhs(g.num_vertices(), 42);
  std::vector<double> x_cold(b.size(), 0.0);
  std::vector<double> x_warm(b.size(), 0.0);
  const SolveStats s_cold = cold.solver->solve(b, x_cold);
  const SolveStats s_warm = warm.solver->solve(b, x_warm);
  EXPECT_TRUE(s_cold.converged);
  EXPECT_EQ(s_cold.iterations, s_warm.iterations);
  EXPECT_EQ(x_cold, x_warm);  // bitwise: vector<double> operator==
  EXPECT_EQ(serve::solution_fingerprint(x_cold),
            serve::solution_fingerprint(x_warm));

  const HierarchyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeCache, DistinctOptionsAreDistinctEntries) {
  const Graph g = test_graph();
  const std::uint64_t fp = serve::graph_fingerprint(g);
  HierarchyCache cache(std::size_t{64} << 20);
  LaplacianSolverOptions a;
  LaplacianSolverOptions b;
  b.rel_tolerance = 1e-10;
  ASSERT_NE(serve::solver_options_key(a), serve::solver_options_key(b));
  (void)cache.get_or_build(fp, g, a);
  const auto second = cache.get_or_build(fp, g, b);
  EXPECT_FALSE(second.hit);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ServeCache, DefaultOptionsKeyIsPinned) {
  // The cache key is a canonical rendering: a change of format silently
  // splits or merges cache entries, so its exact text is pinned.
  EXPECT_EQ(serve::solver_options_key(LaplacianSolverOptions{}),
            "backend=fixed_degree;fd.max_cluster_size=4;fd.seed=1;"
            "fd.perturb=1;h.coarsest_size=256;h.max_levels=40;h.refine=0;"
            "r.gamma_floor=0.29999999999999999;r.max_rounds=10;"
            "rel_tolerance=1e-08;max_iterations=10000;");
}

TEST(ServeCache, SameFingerprintDifferentBackendsAreIsolatedEntries) {
  // Satellite regression for the backend registry: one graph, two
  // contraction backends. Their canonical options must differ, they must
  // occupy distinct cache entries, and a warm solve against each entry must
  // be bitwise identical to its own cold solve -- never the other's.
  const Graph g = test_graph();
  const std::uint64_t fp = serve::graph_fingerprint(g);
  HierarchyCache cache(std::size_t{64} << 20);
  LaplacianSolverOptions fixed;  // default backend: "fixed_degree"
  LaplacianSolverOptions lowdiam;
  lowdiam.hierarchy.contraction.backend = "lowdiam";
  ASSERT_NE(serve::solver_options_key(fixed),
            serve::solver_options_key(lowdiam));

  const std::vector<double> b = mean_free_rhs(g.num_vertices(), 21);
  const auto cold_fixed = cache.get_or_build(fp, g, fixed);
  const auto cold_low = cache.get_or_build(fp, g, lowdiam);
  ASSERT_FALSE(cold_fixed.hit);
  ASSERT_FALSE(cold_low.hit);  // same fingerprint, still a distinct entry
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_NE(cold_fixed.solver, cold_low.solver);

  std::vector<double> x_cold_fixed(b.size(), 0.0);
  std::vector<double> x_cold_low(b.size(), 0.0);
  (void)cold_fixed.solver->solve(b, x_cold_fixed);
  (void)cold_low.solver->solve(b, x_cold_low);

  const auto warm_fixed = cache.get_or_build(fp, g, fixed);
  const auto warm_low = cache.get_or_build(fp, g, lowdiam);
  ASSERT_TRUE(warm_fixed.hit);
  ASSERT_TRUE(warm_low.hit);
  EXPECT_EQ(warm_fixed.solver, cold_fixed.solver);
  EXPECT_EQ(warm_low.solver, cold_low.solver);
  std::vector<double> x_warm_fixed(b.size(), 0.0);
  std::vector<double> x_warm_low(b.size(), 0.0);
  (void)warm_fixed.solver->solve(b, x_warm_fixed);
  (void)warm_low.solver->solve(b, x_warm_low);
  EXPECT_EQ(x_warm_fixed, x_cold_fixed);
  EXPECT_EQ(x_warm_low, x_cold_low);
}

TEST(ServeCache, EvictsLeastRecentlyUsedUnderBudget) {
  const Graph g1 = gen::grid2d(10, 10, gen::WeightSpec::uniform(0.5, 2.0), 1);
  const Graph g2 = gen::grid2d(11, 11, gen::WeightSpec::uniform(0.5, 2.0), 2);
  const LaplacianSolverOptions options;
  // Budget below two hierarchies: the second build must evict the first.
  HierarchyCache cache(1);
  (void)cache.get_or_build(serve::graph_fingerprint(g1), g1, options);
  (void)cache.get_or_build(serve::graph_fingerprint(g2), g2, options);
  const HierarchyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // most-recent entry always retained
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(cache.peek(serve::graph_fingerprint(g1), options), nullptr);
  EXPECT_NE(cache.peek(serve::graph_fingerprint(g2), options), nullptr);
}

TEST(ServeCache, PerEntryStatsTrackHitsAndRecency) {
  const Graph g1 = gen::grid2d(10, 10, gen::WeightSpec::uniform(0.5, 2.0), 1);
  const Graph g2 = gen::grid2d(11, 11, gen::WeightSpec::uniform(0.5, 2.0), 2);
  const std::uint64_t fp1 = serve::graph_fingerprint(g1);
  const std::uint64_t fp2 = serve::graph_fingerprint(g2);
  const LaplacianSolverOptions options;
  HierarchyCache cache(std::size_t{64} << 20);

  (void)cache.get_or_build(fp1, g1, options);  // tick 1: miss
  (void)cache.get_or_build(fp2, g2, options);  // tick 2: miss
  (void)cache.get_or_build(fp1, g1, options);  // tick 3: hit, fp1 -> MRU
  (void)cache.get_or_build(fp1, g1, options);  // tick 4: hit

  const HierarchyCache::Stats stats = cache.stats();
  ASSERT_EQ(stats.per_entry.size(), 2u);
  // per_entry is MRU-first, so the twice-hit fp1 leads.
  EXPECT_EQ(stats.per_entry[0].fingerprint, fp1);
  EXPECT_EQ(stats.per_entry[0].hits, 2);
  EXPECT_EQ(stats.per_entry[0].last_use, 4);
  EXPECT_GT(stats.per_entry[0].bytes, 0u);
  EXPECT_EQ(stats.per_entry[1].fingerprint, fp2);
  EXPECT_EQ(stats.per_entry[1].hits, 0);
  EXPECT_EQ(stats.per_entry[1].last_use, 2);
  // Ticks are deterministic logical time (one per lookup), never wall
  // clock, so two identical runs report identical stats documents.
  EXPECT_EQ(stats.ticks, 4);
  EXPECT_EQ(stats.per_entry[0].options_key, serve::solver_options_key(options));
}

// --- batched solves: bitwise equal to sequential, per thread count --------

TEST(ServeBatch, BatchedMatchesSequentialBitwiseAcrossThreadCounts) {
  // test_graph() is solved directly at its coarsest level; the 32x32 grid
  // builds a two-level hierarchy, so its solves run the smoothing sweeps,
  // the restriction and the recursion of the V-cycle.
  const Graph multilevel_graph =
      gen::grid2d(32, 32, gen::WeightSpec::uniform(0.5, 2.0), 5);
  ASSERT_GE(LaplacianSolver(multilevel_graph).num_levels(), 2);
  constexpr std::size_t kRandom = 5;
  const std::size_t zero_col = kRandom;
  const std::size_t early_col = kRandom + 1;

  for (const Graph& g : {test_graph(), multilevel_graph}) {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    // Random columns, then a zero column (converged at iteration 0) and
    // L(L x0) for a random x0, which sits in the high end of the spectrum
    // the smoother removes and so converges early: columns freeze at
    // different iterations, so the active-column compaction runs too.
    std::vector<std::vector<double>> rhs;
    for (std::size_t j = 0; j < kRandom; ++j) {
      rhs.push_back(mean_free_rhs(g.num_vertices(), 100 + j));
    }
    rhs.emplace_back(n, 0.0);
    const std::vector<double> x0 = mean_free_rhs(g.num_vertices(), 7);
    std::vector<double> lx0(n);
    std::vector<double> early(n);
    g.laplacian_apply(x0, lx0);
    g.laplacian_apply(lx0, early);
    rhs.push_back(std::move(early));

    SCOPED_TRACE(testing::Message() << "n=" << n);
    std::vector<std::uint64_t> reference_hashes;
    for (const int threads : kThreadMatrix) {
      with_thread_count(threads, [&] {
        const LaplacianSolver solver(g);
        // Sequential baseline: independent single-vector solves.
        std::vector<std::vector<double>> x_seq;
        std::vector<SolveStats> s_seq;
        for (const auto& b : rhs) {
          std::vector<double> x(n, 0.0);
          s_seq.push_back(solver.solve(b, x));
          x_seq.push_back(std::move(x));
        }
        EXPECT_EQ(s_seq[zero_col].iterations, 0);
        if (solver.num_levels() > 0) {
          for (std::size_t j = 0; j < kRandom; ++j) {
            EXPECT_LT(s_seq[early_col].iterations, s_seq[j].iterations)
                << "rhs " << j;
          }
        }
        const serve::BatchSolveResult batch = serve::batch_solve(solver, rhs);
        ASSERT_EQ(batch.x.size(), rhs.size());
        for (std::size_t j = 0; j < rhs.size(); ++j) {
          EXPECT_TRUE(batch.stats[j].converged) << "rhs " << j;
          EXPECT_EQ(batch.stats[j].iterations, s_seq[j].iterations)
              << "rhs " << j;
          EXPECT_EQ(batch.x[j], x_seq[j]) << "rhs " << j << " not bitwise";
          EXPECT_EQ(batch.solution_hash[j],
                    serve::solution_fingerprint(x_seq[j]));
          EXPECT_EQ(batch.stats[j].residual_history, s_seq[j].residual_history)
              << "rhs " << j;
        }
        if (reference_hashes.empty()) {
          reference_hashes = batch.solution_hash;
        } else {
          // Thread-count invariance on top of batch/sequential equality.
          EXPECT_EQ(batch.solution_hash, reference_hashes)
              << "threads=" << threads;
        }
      });
    }
  }
}

/// FNV-1a 64 over raw bytes, folded into a running hash.
std::uint64_t fnv_fold(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ServeBatch, SolveBatchBitsMatchPinnedConstants) {
  // Pinned constants over solve_batch on the 32x32 grid with the staggered
  // freezes of the test above (k - 2 random columns, a zero column, the
  // early column): column by column, the solution bytes, the iteration
  // count and the residual history. k = 11 spans more than one 8-column
  // chunk of the blocked kernels.
  const Graph g = gen::grid2d(32, 32, gen::WeightSpec::uniform(0.5, 2.0), 5);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::vector<double> x0 = mean_free_rhs(g.num_vertices(), 7);
  std::vector<double> lx0(n);
  std::vector<double> early(n);
  g.laplacian_apply(x0, lx0);
  g.laplacian_apply(lx0, early);
  constexpr std::pair<int, std::uint64_t> kPinned[] = {
      {8, 0x30c7a379d21c98adULL}, {11, 0x694c6703aa777ecfULL}};
  for (const auto& [k, expected] : kPinned) {
    const auto uk = static_cast<std::size_t>(k);
    std::vector<double> b;
    for (std::size_t j = 0; j + 2 < uk; ++j) {
      const std::vector<double> col = mean_free_rhs(g.num_vertices(), 100 + j);
      b.insert(b.end(), col.begin(), col.end());
    }
    b.insert(b.end(), n, 0.0);
    b.insert(b.end(), early.begin(), early.end());
    for (const int threads : {1, 4}) {
      with_thread_count(threads, [&] {
        const LaplacianSolver solver(g);
        std::vector<double> x(b.size(), 0.0);
        const std::vector<SolveStats> stats = solver.solve_batch(b, x, k);
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (std::size_t j = 0; j < uk; ++j) {
          h = fnv_fold(h, x.data() + j * n, n * sizeof(double));
          h = fnv_fold(h, &stats[j].iterations, sizeof stats[j].iterations);
          const std::vector<double>& history = stats[j].residual_history;
          h = fnv_fold(h, history.data(), history.size() * sizeof(double));
        }
        EXPECT_EQ(stats[uk - 2].iterations, 0);
        EXPECT_EQ(h, expected) << std::hex << h << " k=" << std::dec << k
                               << " threads=" << threads;
      });
    }
  }
}

TEST(ServeBatch, SingleColumnBatchMatchesPlainSolve) {
  const Graph g = test_graph();
  const LaplacianSolver solver(g);
  const std::vector<double> b = mean_free_rhs(g.num_vertices(), 9);
  std::vector<double> x(b.size(), 0.0);
  const SolveStats stats = solver.solve(b, x);
  const serve::BatchSolveResult batch = serve::batch_solve(solver, {b});
  EXPECT_EQ(batch.x[0], x);
  EXPECT_EQ(batch.stats[0].iterations, stats.iterations);
}

TEST(ServeBatch, RejectsMismatchedRhsLength) {
  const Graph g = test_graph();
  const LaplacianSolver solver(g);
  EXPECT_THROW((void)serve::batch_solve(solver, {{1.0, -1.0}}),
               invalid_argument_error);
}

// --- server protocol ------------------------------------------------------

std::string write_test_snapshot(const Graph& g, const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  serve::write_snapshot_file(path, g);
  return path;
}

TEST(ServeServer, ColdWarmSolveOverTheWire) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_wire.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));

  ServerCore core;
  const auto loaded =
      call(core, R"({"id":1,"op":"load","path":")" + path + R"("})");
  ASSERT_TRUE(loaded.at("ok").boolean);
  EXPECT_EQ(loaded.at("graph").string, fp);

  const std::string solve_req =
      R"({"id":2,"op":"solve","graph":")" + fp + R"(","rhs_seed":42})";
  const auto cold = call(core, solve_req);
  ASSERT_TRUE(cold.at("ok").boolean);
  EXPECT_FALSE(cold.at("cache_hit").boolean);
  EXPECT_GT(cold.at("setup_seconds").number, 0.0);
  EXPECT_TRUE(cold.at("converged").boolean);

  const auto warm = call(core, solve_req);
  ASSERT_TRUE(warm.at("ok").boolean);
  EXPECT_TRUE(warm.at("cache_hit").boolean);
  EXPECT_EQ(warm.at("setup_seconds").number, 0.0);
  // The serving criterion (warm setup <= 5% of cold) and the bitwise
  // identity, both asserted on the actual wire responses.
  EXPECT_LE(warm.at("setup_seconds").number,
            0.05 * cold.at("setup_seconds").number);
  EXPECT_EQ(warm.at("solution_fnv").string, cold.at("solution_fnv").string);
  EXPECT_EQ(warm.at("iterations").number, cold.at("iterations").number);
}

TEST(ServeServer, BatchColumnsMatchSingleSolvesOverTheWire) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_batch.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));

  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  const auto batch = call(core,
      R"({"op":"batch_solve","graph":")" + fp +
      R"(","rhs_random":{"count":3,"seed":7}})");
  ASSERT_TRUE(batch.at("ok").boolean);
  const auto& hashes = batch.at("solution_fnv").array;
  ASSERT_EQ(hashes.size(), 3u);
  // rhs_random seeds are seed+j; each single solve must land on the same
  // bits as the corresponding batched column.
  for (std::size_t j = 0; j < hashes.size(); ++j) {
    const auto single = call(core,
        R"({"op":"solve","graph":")" + fp + R"(","rhs_seed":)" +
        std::to_string(7 + j) + "}");
    ASSERT_TRUE(single.at("ok").boolean);
    EXPECT_EQ(single.at("solution_fnv").string, hashes[j].string)
        << "column " << j;
  }
}

TEST(ServeServer, BackendSelectionOverTheWire) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_backend.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);

  const auto bad = call(core, R"({"id":9,"op":"solve","graph":")" + fp +
                               R"(","rhs_seed":1,"backend":"nope"})");
  EXPECT_FALSE(bad.at("ok").boolean);
  EXPECT_EQ(bad.at("error").string, "unknown_backend");

  for (const std::string backend : {"fixed_degree", "louvain", "lowdiam"}) {
    const std::string req = R"({"op":"solve","graph":")" + fp +
                            R"(","rhs_seed":5,"backend":")" + backend +
                            R"("})";
    const auto cold = call(core, req);
    ASSERT_TRUE(cold.at("ok").boolean) << backend;
    EXPECT_FALSE(cold.at("cache_hit").boolean) << backend;  // own entry
    EXPECT_EQ(cold.at("backend").string, backend);
    EXPECT_TRUE(cold.at("converged").boolean) << backend;
    const auto warm = call(core, req);
    ASSERT_TRUE(warm.at("ok").boolean) << backend;
    EXPECT_TRUE(warm.at("cache_hit").boolean) << backend;
    EXPECT_EQ(warm.at("solution_fnv").string, cold.at("solution_fnv").string)
        << backend;
  }

  // backend_options thread through to the canonical key: a reseeded
  // low-diameter request is its own cold entry.
  const auto reseeded = call(core,
      R"({"op":"solve","graph":")" + fp +
      R"(","rhs_seed":5,"backend":"lowdiam","backend_options":{"seed":9}})");
  ASSERT_TRUE(reseeded.at("ok").boolean);
  EXPECT_FALSE(reseeded.at("cache_hit").boolean);
}

TEST(ServeServer, HostileRandomRhsCountIsRejectedBeforeAllocating) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_count_cap.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  // A wire-supplied count is untrusted: 2e9 columns would reserve multi-GB
  // before any solve runs. The server must reject it as bad_request (the
  // untrusted-size cap), not attempt the allocation.
  const auto huge = call(core,
      R"({"id":9,"op":"batch_solve","graph":")" + fp +
      R"(","rhs_random":{"count":2000000000,"seed":1}})");
  EXPECT_FALSE(huge.at("ok").boolean);
  EXPECT_EQ(huge.at("error").string, "bad_request");
  EXPECT_NE(huge.at("message").string.find("rhs_random.count"),
            std::string::npos);

  // Just past the cap is rejected too -- the boundary is exact...
  const auto past_cap = call(core,
      R"({"id":10,"op":"batch_solve","graph":")" + fp +
      R"(","rhs_random":{"count":4097,"seed":1}})");
  EXPECT_FALSE(past_cap.at("ok").boolean);
  EXPECT_EQ(past_cap.at("error").string, "bad_request");

  // ...while ordinary small batches still work.
  const auto ok = call(core,
      R"({"id":11,"op":"batch_solve","graph":")" + fp +
      R"(","rhs_random":{"count":2,"seed":1}})");
  ASSERT_TRUE(ok.at("ok").boolean);
  EXPECT_EQ(ok.at("solution_fnv").array.size(), 2u);

  // Zero and negative counts keep their existing lower-bound rejection.
  const auto zero = call(core,
      R"({"id":12,"op":"batch_solve","graph":")" + fp +
      R"(","rhs_random":{"count":0,"seed":1}})");
  EXPECT_FALSE(zero.at("ok").boolean);
  EXPECT_EQ(zero.at("error").string, "bad_request");
}

TEST(ServeServer, DeadlineExceededIsWellFormedError) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_deadline.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  // deadline_ms 0 expires as soon as any time elapses after admission:
  // deterministic deadline_exceeded without sleeping in the test.
  const auto response = call(core,
      R"({"id":77,"op":"solve","graph":")" + fp +
      R"(","rhs_seed":1,"deadline_ms":0})");
  EXPECT_FALSE(response.at("ok").boolean);
  EXPECT_EQ(response.at("error").string, "deadline_exceeded");
  EXPECT_EQ(static_cast<int>(response.at("id").number), 77);
  EXPECT_FALSE(response.at("message").string.empty());
}

TEST(ServeServer, MalformedAndUnknownRequestsAreErrors) {
  ServerCore core;
  const auto bad = call(core, "this is not json");
  EXPECT_FALSE(bad.at("ok").boolean);
  EXPECT_EQ(bad.at("error").string, "parse_error");

  const auto unknown = call(core, R"({"id":4,"op":"florble"})");
  EXPECT_FALSE(unknown.at("ok").boolean);
  EXPECT_EQ(unknown.at("error").string, "unknown_op");

  const auto missing = call(core,
      R"({"op":"solve","graph":"0000000000000000","rhs_seed":1})");
  EXPECT_FALSE(missing.at("ok").boolean);
  EXPECT_EQ(missing.at("error").string, "not_found");
}

TEST(ServeServer, StatsCountsRequestsAndCacheTraffic) {
  // These members are the only copy of the serve counters: `stats` renders
  // them and nothing else records them.
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_counts.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  const std::string solve =
      R"({"op":"solve","graph":")" + fp + R"(","rhs_seed":3})";
  const auto cold = call(core, solve);
  ASSERT_TRUE(cold.at("ok").boolean);
  EXPECT_FALSE(cold.at("cache_hit").boolean);
  const auto warm = call(core, solve);
  ASSERT_TRUE(warm.at("ok").boolean);
  EXPECT_TRUE(warm.at("cache_hit").boolean);
  EXPECT_EQ(call(core, R"({"op":"florble"})").at("error").string,
            "unknown_op");

  const auto stats = call(core, R"({"op":"stats"})");
  ASSERT_TRUE(stats.at("ok").boolean);
  // load, two solves, the unknown op and this stats request.
  EXPECT_EQ(stats.at("requests").number, 5.0);
  EXPECT_EQ(stats.at("graphs_loaded").number, 1.0);
  const obs::JsonValue& cache = stats.at("cache");
  EXPECT_EQ(cache.at("hits").number, 1.0);
  EXPECT_EQ(cache.at("misses").number, 1.0);
  EXPECT_EQ(cache.at("entries").number, 1.0);
  EXPECT_EQ(cache.at("ticks").number, 2.0);
}

/// `values` as a JSON array, written by the library's own writer.
std::string json_array(const std::vector<double>& values) {
  obs::JsonWriter w;
  w.begin_array();
  for (const double v : values) {
    w.value(v);
  }
  w.end_array();
  return w.str();
}

TEST(ServeServer, ShippedVectorsSolveBitwiseLikeServerSideSeeds) {
  // A right-hand side shipped as JSON numbers must reach the solver with
  // every bit, and the returned x must parse back to the solution the
  // server fingerprinted.
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_shipped.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  const std::vector<double> b = mean_free_rhs(g.num_vertices(), 42);
  const auto seeded = call(core, R"({"op":"solve","graph":")" + fp +
                                     R"(","rhs_seed":42})");
  const auto shipped = call(core, R"({"op":"solve","graph":")" + fp +
                                      R"(","return_x":true,"b":)" +
                                      json_array(b) + "}");
  ASSERT_TRUE(shipped.at("ok").boolean);
  EXPECT_EQ(shipped.at("solution_fnv").string,
            seeded.at("solution_fnv").string);
  std::vector<double> x;
  for (const obs::JsonValue& xi : shipped.at("x").array) {
    x.push_back(xi.number);
  }
  EXPECT_EQ(serve::fingerprint_hex(serve::solution_fingerprint(x)),
            shipped.at("solution_fnv").string);

  const auto batch = call(core, R"({"op":"batch_solve","graph":")" + fp +
                                    R"(","rhs":[)" + json_array(b) + "," +
                                    json_array(b) + "]}");
  ASSERT_TRUE(batch.at("ok").boolean);
  ASSERT_EQ(batch.at("solution_fnv").array.size(), 2U);
  for (const obs::JsonValue& h : batch.at("solution_fnv").array) {
    EXPECT_EQ(h.string, seeded.at("solution_fnv").string);
  }
}

TEST(ServeServer, VectorErrorPathsArePinned) {
  // Each malformed request is a bad_request naming what is wrong with it.
  // The message ends with the check's text; what precedes it names the
  // failed check, never a source location.
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_vec_err.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  std::vector<double> ones(static_cast<std::size_t>(g.num_vertices()), 1.0);
  std::string with_string = json_array(ones);
  with_string.replace(with_string.rfind('1'), 1, R"("x")");
  const std::string solve =
      R"({"id":9,"op":"solve","graph":")" + fp + R"(","b":)";
  const std::string batch =
      R"({"id":9,"op":"batch_solve","graph":")" + fp + R"(","rhs":)";
  const std::string update =
      R"({"id":9,"op":"update","graph":")" + fp + R"(","updates":)";
  const std::string missing = testing::TempDir() + "/no_such_graph.hsnap";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {solve + with_string + "}", "right-hand side entries must be numbers"},
      {solve + "[1,2,3]}", "right-hand side length does not match the graph"},
      {solve + "[]}", "right-hand side length does not match the graph"},
      {solve + "7}", "right-hand side must be a JSON array"},
      {batch + "[" + json_array(ones) + ",5]}",
       "right-hand side must be a JSON array"},
      {batch + "[1,2,3]}", "right-hand side must be a JSON array"},
      {batch + "[[1,2],[]]}",
       "right-hand side length does not match the graph"},
      {batch + "[]}", "batch_solve needs at least one rhs"},
      {batch + "4}", "rhs must be an array of arrays"},
      {update + "[1,2]}", "each update must be a JSON object"},
      {update + "3}", "updates must be a JSON array"},
      {R"({"id":9,"op":"solve","graph":5})",
       "solve needs a string \"graph\" fingerprint"},
      {R"({"id":9,"op":"load","path":")" + missing + R"("})",
       "cannot open snapshot file: " + missing},
  };
  for (const auto& [line, message] : cases) {
    const auto r = call(core, line);
    EXPECT_FALSE(r.at("ok").boolean) << line;
    EXPECT_EQ(r.at("error").string, "bad_request") << line;
    EXPECT_EQ(static_cast<int>(r.at("id").number), 9) << line;
    const std::string& got = r.at("message").string;
    const std::string tail = ": " + message;
    EXPECT_TRUE(got.size() >= tail.size() &&
                got.compare(got.size() - tail.size(), tail.size(), tail) == 0)
        << line.substr(0, 120) << " -> " << got;
    EXPECT_EQ(got.find(".cpp:"), std::string::npos) << got;
    EXPECT_EQ(got.find(".hpp:"), std::string::npos) << got;
  }
}

TEST(ServeServer, SubmitHoldsOneRequestUntilStepped) {
  ServerCore core;
  EXPECT_FALSE(core.submit(R"({"id":1,"op":"stats"})").has_value());
  // Every transport steps a line before it reads the next, so a second
  // submit() without a step() is a caller bug, not a queued request.
  EXPECT_THROW((void)core.submit(R"({"id":2,"op":"stats"})"),
               invalid_argument_error);
  const auto first = core.step();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(static_cast<int>(obs::parse_json(*first).at("id").number), 1);
  EXPECT_FALSE(core.step().has_value());
}

TEST(ServeServer, OutOfRangeWireIntegersAreRejected) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_wire_ints.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);

  // An id must be an integer in [0, 2^53]. Anything else is a parse_error
  // that echoes no id -- never a truncated or wrapped one.
  for (const std::string id : {"1.7", "1e300", "-2"}) {
    const auto r = call(core, R"({"id":)" + id + R"(,"op":"stats"})");
    EXPECT_FALSE(r.at("ok").boolean) << id;
    EXPECT_EQ(r.at("error").string, "parse_error") << id;
    EXPECT_TRUE(r.find("id") == nullptr) << id;
  }

  // One fractional or out-of-range value per integer field: bad_request,
  // id echoed, field named. Each would have been truncated (or cast with
  // undefined behaviour) and accepted before.
  const std::string solve =
      R"({"id":5,"op":"solve","graph":")" + fp + R"(","rhs_seed":1)";
  const std::string batch = R"({"id":5,"op":"batch_solve","graph":")" + fp +
                            R"(","rhs_random":)";
  const std::string update = R"({"id":5,"op":"update","graph":")" + fp +
                             R"(","updates":[{"kind":"reweight",)";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {solve + R"(,"max_iterations":2.5})", "max_iterations"},
      {solve + R"(,"max_iterations":1e300})", "max_iterations"},
      {solve + R"(,"backend_options":{"max_cluster_size":3.5}})",
       "max_cluster_size"},
      {solve + R"(,"backend_options":{"seed":1.5}})", "seed"},
      {solve + R"(,"backend":"louvain","backend_options":{"rounds":2.5}})",
       "rounds"},
      {R"({"id":5,"op":"solve","graph":")" + fp + R"(","rhs_seed":1.5})",
       "rhs_seed"},
      {R"({"id":5,"op":"solve","graph":")" + fp + R"(","rhs_seed":-1})",
       "rhs_seed"},
      {batch + R"({"count":2.5,"seed":1}})", "count"},
      {batch + R"({"count":2,"seed":0.5}})", "seed"},
      {update + R"("u":0.5,"v":1,"weight":2}]})", "u"},
      {update + R"("u":0,"v":1e300,"weight":2}]})", "v"},
  };
  for (const auto& [line, field] : cases) {
    const auto r = call(core, line);
    EXPECT_FALSE(r.at("ok").boolean) << line;
    EXPECT_EQ(r.at("error").string, "bad_request") << line;
    EXPECT_EQ(static_cast<int>(r.at("id").number), 5) << line;
    EXPECT_NE(r.at("message").string.find("field \"" + field + "\""),
              std::string::npos)
        << line << " -> " << r.at("message").string;
  }

  // Nothing was admitted half-way: the server still answers normally.
  const auto solve_ok = call(core, solve + "}");
  ASSERT_TRUE(solve_ok.at("ok").boolean);
  EXPECT_TRUE(solve_ok.at("converged").boolean);
}

TEST(ServeServer, ShutdownDrainsAndStops) {
  ServerCore core;
  EXPECT_FALSE(core.shutting_down());
  const auto response = call(core, R"({"op":"shutdown"})");
  EXPECT_TRUE(response.at("ok").boolean);
  EXPECT_TRUE(core.shutting_down());
}

// --- the update op --------------------------------------------------------

TEST(ServeUpdate, UpdateOverTheWireServesBothFingerprints) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_update.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));

  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  // Warm the old fingerprint so the update can repair in place.
  ASSERT_TRUE(
      call(core, R"({"op":"solve","graph":")" + fp + R"(","rhs_seed":1})")
          .at("ok")
          .boolean);

  const std::string update_req =
      R"({"id":5,"op":"update","graph":")" + fp +
      R"(","updates":[{"kind":"reweight","u":0,"v":1,"weight":9.5}]})";
  const auto up = call(core, update_req);
  ASSERT_TRUE(up.at("ok").boolean) << up.at("message").string;
  EXPECT_FALSE(up.at("unchanged").boolean);
  const std::string new_fp = up.at("new_graph").string;
  EXPECT_NE(new_fp, fp);
  EXPECT_EQ(static_cast<vidx>(up.at("n").number), g.num_vertices());
  // The mutated hierarchy was installed under the new fingerprint with the
  // same solver options, so a follow-up solve is a cache hit...
  const auto solve_new = call(core,
      R"({"op":"solve","graph":")" + new_fp + R"(","rhs_seed":1})");
  ASSERT_TRUE(solve_new.at("ok").boolean);
  EXPECT_TRUE(solve_new.at("cache_hit").boolean);
  EXPECT_TRUE(solve_new.at("converged").boolean);
  // ...and the pre-update graph remains served.
  const auto solve_old = call(core,
      R"({"op":"solve","graph":")" + fp + R"(","rhs_seed":1})");
  ASSERT_TRUE(solve_old.at("ok").boolean);
  EXPECT_TRUE(solve_old.at("cache_hit").boolean);

  // A retried (duplicate) update lands exactly once: same new fingerprint,
  // no second build.
  const auto retry = call(core, update_req);
  ASSERT_TRUE(retry.at("ok").boolean);
  EXPECT_EQ(retry.at("new_graph").string, new_fp);
  EXPECT_TRUE(retry.at("already_cached").boolean);
}

TEST(ServeUpdate, EmptyAndNetNoOpBatchesAreUnchanged) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_update_noop.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);

  const auto empty = call(core,
      R"({"op":"update","graph":")" + fp + R"(","updates":[]})");
  ASSERT_TRUE(empty.at("ok").boolean);
  EXPECT_TRUE(empty.at("unchanged").boolean);
  EXPECT_EQ(empty.at("new_graph").string, fp);

  // Insert + delete of the same absent edge cancels in canonical form, so
  // the fingerprint round-trips and no new state is registered.
  const auto cancel = call(core,
      R"({"op":"update","graph":")" + fp +
      R"(","updates":[{"kind":"insert","u":0,"v":25,"weight":2.0},)"
      R"({"kind":"delete","u":0,"v":25}]})");
  ASSERT_TRUE(cancel.at("ok").boolean);
  EXPECT_TRUE(cancel.at("unchanged").boolean);
  EXPECT_EQ(cancel.at("new_graph").string, fp);
}

TEST(ServeUpdate, RebuildModeIsBitwiseIdenticalToColdLoadOfMutatedGraph) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_update_base.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));

  // Ground truth: mutate the graph in-process and serve it cold.
  const std::vector<dynamic::EdgeUpdate> updates{
      {dynamic::UpdateKind::insert, 0, 25, 1.5},
      {dynamic::UpdateKind::reweight, 0, 1, 3.0},
  };
  const Graph mutated = dynamic::apply_updates(g, updates);
  const std::string mutated_path =
      write_test_snapshot(mutated, "serve_update_mutated.hsnap");
  const std::string mutated_fp =
      serve::fingerprint_hex(serve::graph_fingerprint(mutated));

  ServerCore cold;
  ASSERT_TRUE(
      call(cold, R"({"op":"load","path":")" + mutated_path + R"("})")
          .at("ok")
          .boolean);
  const auto truth = call(cold,
      R"({"op":"solve","graph":")" + mutated_fp + R"(","rhs_seed":42})");
  ASSERT_TRUE(truth.at("ok").boolean);

  // Candidate: the same graph reached through the update op in rebuild
  // mode. A rebuild constructs the hierarchy from scratch exactly like a
  // cold load, so the solution bits must match the truth server's.
  ServerCore via_update;
  ASSERT_TRUE(call(via_update, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  const auto up = call(via_update,
      R"({"op":"update","graph":")" + fp + R"(","mode":"rebuild",)"
      R"("updates":[{"kind":"insert","u":0,"v":25,"weight":1.5},)"
      R"({"kind":"reweight","u":0,"v":1,"weight":3.0}]})");
  ASSERT_TRUE(up.at("ok").boolean) << up.at("message").string;
  EXPECT_FALSE(up.at("repaired").boolean);
  ASSERT_EQ(up.at("new_graph").string, mutated_fp);
  const auto candidate = call(via_update,
      R"({"op":"solve","graph":")" + mutated_fp + R"(","rhs_seed":42})");
  ASSERT_TRUE(candidate.at("ok").boolean);
  EXPECT_EQ(candidate.at("solution_fnv").string,
            truth.at("solution_fnv").string);
  EXPECT_EQ(candidate.at("iterations").number, truth.at("iterations").number);
}

TEST(ServeUpdate, ErrorPathsLeaveServerStateUntouched) {
  // A disconnecting update must be rejected atomically: use a path graph,
  // where every edge is a bridge.
  const Graph g = gen::path(6, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const std::string path = write_test_snapshot(g, "serve_update_err.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  ServerCore core;
  ASSERT_TRUE(call(core, R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);

  const auto unloaded = call(core,
      R"({"op":"update","graph":"00000000deadbeef","updates":[]})");
  EXPECT_FALSE(unloaded.at("ok").boolean);
  EXPECT_EQ(unloaded.at("error").string, "not_found");

  const auto malformed = call(core,
      R"({"op":"update","graph":")" + fp +
      R"(","updates":[{"kind":"teleport","u":0,"v":1}]})");
  EXPECT_FALSE(malformed.at("ok").boolean);
  EXPECT_EQ(malformed.at("error").string, "bad_request");

  const auto disconnect = call(core,
      R"({"op":"update","graph":")" + fp +
      R"(","updates":[{"kind":"delete","u":2,"v":3}]})");
  EXPECT_FALSE(disconnect.at("ok").boolean);
  EXPECT_EQ(disconnect.at("error").string, "disconnected");

  // After all three rejections the original graph still solves.
  const auto solve = call(core,
      R"({"op":"solve","graph":")" + fp + R"(","rhs_seed":2})");
  ASSERT_TRUE(solve.at("ok").boolean);
  EXPECT_TRUE(solve.at("converged").boolean);
}

// --- the request envelope --------------------------------------------------

TEST(ServeRequest, EnvelopeAcceptsOnlyIntegerIdsInRange) {
  serve::Envelope env;
  for (const char* id : {"0", "7", "9007199254740992"}) {
    EXPECT_FALSE(serve::parse_envelope(std::string(R"({"op":"stats","id":)") +
                                           id + "}",
                                       0.0, env)
                     .has_value())
        << id;
    EXPECT_EQ(std::to_string(env.id), id);
  }
  EXPECT_FALSE(serve::parse_envelope(R"({"op":"stats"})", 0.0, env));
  EXPECT_EQ(env.id, -1);

  // -2 was once the router's silent-drain sentinel; -1 is "no id". Neither,
  // nor a fraction, an out-of-range value or a non-number, is an id.
  for (const char* id :
       {"-2", "-1", "1.5", "1e300", "9007199254740994", "\"7\"", "null"}) {
    const auto refused = serve::parse_envelope(
        std::string(R"({"op":"shutdown","id":)") + id + "}", 0.0, env);
    ASSERT_TRUE(refused.has_value()) << id;
    const auto r = obs::parse_json(*refused);
    EXPECT_FALSE(r.at("ok").boolean) << id;
    EXPECT_EQ(r.at("error").string, "parse_error") << id;
    EXPECT_TRUE(r.find("id") == nullptr) << id;
  }

  // A valid id is echoed on a parse_error about another field.
  const auto no_op = serve::parse_envelope(R"({"id":7})", 0.0, env);
  ASSERT_TRUE(no_op.has_value());
  EXPECT_EQ(static_cast<int>(obs::parse_json(*no_op).at("id").number), 7);
}

TEST(ServeRequest, EnvelopeDeadlineDefaultsAndOverrides) {
  serve::Envelope env;
  ASSERT_FALSE(serve::parse_envelope(R"({"op":"stats"})", 0.0, env));
  EXPECT_LT(env.deadline_ms, 0.0);
  ASSERT_FALSE(serve::parse_envelope(R"({"op":"stats"})", 250.0, env));
  EXPECT_DOUBLE_EQ(env.deadline_ms, 250.0);
  ASSERT_FALSE(
      serve::parse_envelope(R"({"op":"stats","deadline_ms":0})", 250.0, env));
  EXPECT_DOUBLE_EQ(env.deadline_ms, 0.0);
  EXPECT_TRUE(serve::parse_envelope(R"({"op":"stats","deadline_ms":"soon"})",
                                    0.0, env)
                  .has_value());
}

// --- fingerprints ---------------------------------------------------------

TEST(ServeFingerprint, HexRoundTripAndSensitivity) {
  const Graph g = test_graph();
  const std::uint64_t fp = serve::graph_fingerprint(g);
  const std::string hex = serve::fingerprint_hex(fp);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(serve::parse_fingerprint(hex), fp);
  EXPECT_THROW((void)serve::parse_fingerprint("xyz"), invalid_argument_error);

  // Any change to the CSR content must move the fingerprint.
  const Graph other = gen::grid2d(12, 12, gen::WeightSpec::uniform(0.5, 2.0),
                                  6);  // different weight seed
  EXPECT_NE(serve::graph_fingerprint(other), fp);
}

}  // namespace
}  // namespace hicond
