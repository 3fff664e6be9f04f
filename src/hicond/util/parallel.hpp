// Shared-memory parallel primitives built on OpenMP.
//
// The algorithms in this library are described in the paper in the PRAM
// model (linear work, O(log n) depth). We realize them on shared memory with
// OpenMP under a strict determinism policy (docs/PARALLELISM.md):
//
//  * owner-computes partitioning -- every parallel loop writes only slots
//    indexed by its own iteration variable; no atomics-ordered accumulation
//    into shared floats, no `reduction` clauses;
//  * fixed-block reductions -- parallel_sums (and parallel_sum, its
//    one-column case) split [0, n) into blocks of kReductionBlock rows and
//    combine the block partials in block order, so floating-point results
//    are bitwise identical for EVERY thread count, not just for repeated
//    runs at a fixed count.
//
// All `#pragma omp parallel` regions in the library are funneled through
// parallel_region() (enforced by tools/check_project_rules.py) so that a
// single place carries the ThreadSanitizer fork/join annotations of
// util/tsan.hpp. Worksharing constructs (`#pragma omp for`) may appear
// anywhere inside the body passed to parallel_region; they bind to the
// enclosing region as orphaned constructs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <limits>
#include <memory>
#include <omp.h>
#include <span>
#include <vector>

#include "hicond/util/common.hpp"
#include "hicond/util/tsan.hpp"

namespace hicond {

/// Number of OpenMP threads the library will use.
[[nodiscard]] int num_threads() noexcept;

/// Run `body()` on every thread of an OpenMP parallel region, with the
/// fork/join synchronization made visible to ThreadSanitizer. The body may
/// contain orphaned worksharing constructs (`#pragma omp for`, barriers).
template <typename Body>
void parallel_region(Body&& body) {
  HICOND_TSAN_RELEASE(&detail::tsan_fork_tag);
#pragma omp parallel
  {
    // The compiler marshals the captures of `body` through a struct it
    // writes immediately before entering the region -- after any source
    // statement, so no release annotation can cover that store. The one
    // read that materializes the struct pointer is ignored instead; the
    // pointee (the caller's lambda) was written before the release above.
    HICOND_TSAN_IGNORE_READS_BEGIN();
    auto* body_ptr = std::addressof(body);
    HICOND_TSAN_IGNORE_READS_END();
    HICOND_TSAN_ACQUIRE(&detail::tsan_fork_tag);
    (*body_ptr)();
    HICOND_TSAN_RELEASE(&detail::tsan_join_tag);
  }
  HICOND_TSAN_ACQUIRE(&detail::tsan_join_tag);
}

/// `#pragma omp barrier` with the all-to-all happens-before edge annotated
/// for ThreadSanitizer. Must be executed by every thread of the team.
inline void team_barrier() {
  HICOND_TSAN_RELEASE(&detail::tsan_barrier_tag);
#pragma omp barrier
  HICOND_TSAN_ACQUIRE(&detail::tsan_barrier_tag);
}

/// Exclusive prefix sum of `values` (in place): out[i] = sum of values[0..i).
/// Returns the total sum. Work O(n), depth O(n/p + p).
eidx exclusive_scan_inplace(std::vector<eidx>& values);

/// Parallel for over [0, n) with a static schedule.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  parallel_region([&] {
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
  });
}

/// Parallel for over [0, n) with a round-robin static schedule
/// (schedule(static, 1)). Use when iteration costs vary wildly (per-bridge
/// planning, per-cluster closure evaluation): neighbouring expensive
/// iterations land on different threads. Owner-computes writes keyed by `i`
/// stay deterministic under any schedule.
template <typename Fn>
void parallel_for_interleaved(std::size_t n, Fn&& fn) {
  parallel_region([&] {
#pragma omp for schedule(static, 1) nowait
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
  });
}

/// Block size of the deterministic sum reductions. Fixed by the input
/// length only -- never by the thread count -- so the combine tree is
/// identical on every machine. Only the two sums below read it (the
/// reduction-funnel rule of tools/check_project_rules.py).
inline constexpr std::size_t kReductionBlock = 2048;

/// k-wide fixed-block sum: out[j] = the sum over rows i in [0, n) of column
/// j's term at row i, for the k = out.size() columns at once.
///
/// The rows are split into fixed blocks of kReductionBlock. For each block,
/// block(lo, hi, partial) adds the terms of rows lo, lo+1, ..., hi-1 of
/// column j to partial[j] (k slots, zeroed on entry), in that order, by
/// whichever thread owns the block; the partials of each column are then
/// combined in block order. Both levels depend only on n, so every column
/// gets the bits parallel_sum would give it alone, at every thread count
/// and whatever the other columns hold -- and one pass over the rows
/// serves all k sums. (A `reduction` clause would combine in team order,
/// which varies with the thread count, and would also hide the combine
/// from ThreadSanitizer; see util/tsan.hpp.)
template <typename Block>
void parallel_sums(std::size_t n, std::span<double> out, Block&& block) {
  std::fill(out.begin(), out.end(), 0.0);
  if (n == 0) return;
  const std::size_t k = out.size();
  const std::size_t blocks = (n + kReductionBlock - 1) / kReductionBlock;
  if (blocks == 1) {
    block(std::size_t{0}, n, out.data());
    return;
  }
  std::vector<double> partial(blocks * k, 0.0);
  parallel_region([&] {
#pragma omp for schedule(static) nowait
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t lo = b * kReductionBlock;
      block(lo, std::min(n, lo + kReductionBlock), partial.data() + b * k);
    }
  });
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t j = 0; j < k; ++j) out[j] += partial[b * k + j];
  }
}

/// Parallel sum-reduction of fn(i) over [0, n): parallel_sums with one
/// column, bitwise identical across thread counts -- the property the
/// thread-matrix tests pin.
template <typename Fn>
double parallel_sum(std::size_t n, Fn&& fn) {
  double total = 0.0;
  parallel_sums(n, {&total, 1},
                [&](std::size_t lo, std::size_t hi, double* partial) {
                  double local = 0.0;
                  for (std::size_t i = lo; i < hi; ++i) local += fn(i);
                  partial[0] += local;
                });
  return total;
}

/// Parallel existence test: true when fn(i) holds for any i in [0, n).
/// Order-independent (bool OR is commutative), so thread-count invariant.
template <typename Fn>
bool parallel_any(std::size_t n, Fn&& fn) {
  std::vector<char> partial(static_cast<std::size_t>(num_threads()), 0);
  parallel_region([&] {
    char local = 0;
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < n; ++i) {
      if (!local && fn(i)) local = 1;
    }
    partial[static_cast<std::size_t>(omp_get_thread_num())] = local;
  });
  for (const char p : partial) {
    if (p) return true;
  }
  return false;
}

/// Run check(i) for every i in [0, n) in parallel, where check throws on a
/// violation. If any call throws, rethrow the exception of the LOWEST
/// throwing i -- exactly what a serial loop over [0, n) would throw -- so
/// the error a caller sees does not depend on the thread count. Each thread
/// stops checking once it has a failure below its remaining iterations.
template <typename Check>
void parallel_check(std::size_t n, Check&& check) {
  struct Failure {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  std::vector<Failure> failures(static_cast<std::size_t>(num_threads()));
  parallel_region([&] {
    Failure& mine = failures[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < n; ++i) {
      if (i > mine.index) continue;
      try {
        check(i);
      } catch (...) {
        mine = {i, std::current_exception()};
      }
    }
  });
  const Failure* first = nullptr;
  for (const Failure& f : failures) {
    if (f.error && (first == nullptr || f.index < first->index)) first = &f;
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

/// Parallel max-reduction of fn(i) over [0, n). Returns `init` when n == 0.
/// max over doubles is commutative and associative (no rounding), so the
/// per-thread combine is thread-count invariant as is.
template <typename Fn>
double parallel_max(std::size_t n, double init, Fn&& fn) {
  std::vector<double> partial(static_cast<std::size_t>(num_threads()), init);
  parallel_region([&] {
    double local = init;
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < n; ++i) {
      const double v = fn(i);
      if (v > local) local = v;
    }
    partial[static_cast<std::size_t>(omp_get_thread_num())] = local;
  });
  double best = init;
  for (const double p : partial) {
    if (p > best) best = p;
  }
  return best;
}

}  // namespace hicond
