// Vertex-major k-column blocks: the layout of every multi-vector below the
// public API (Graph's block kernels, the V-cycle, BlockOperator, block CG).
//
// A block of k vectors of length n stores entry (v, j) -- row v of column j
// -- at v*k + j, so the k values of one vertex are one contiguous run: a
// kernel that gathers a neighbour reads one cache line for all k columns,
// not k lines. Every per-column update keeps its own arithmetic and order,
// so column j's bits do not depend on k or on the other columns; only the
// addresses change.
#pragma once

#include <cstddef>
#include <span>

#include "hicond/util/parallel.hpp"

namespace hicond {

/// Widest block whose row stride the kernels take as a compile-time
/// constant.
inline constexpr int kStaticBlockWidth = 8;

/// Call fn.template operator()<K>() with K = k when 1 <= k <= 8, else with
/// K = 0. A kernel reads its row stride through block_stride<K>(k): a
/// constant for k <= 8 (unrolled column loops, accumulators in registers),
/// the runtime k beyond.
template <typename Fn>
decltype(auto) with_block_width(int k, Fn&& fn) {
  static_assert(kStaticBlockWidth == 8, "the cases below list widths 1..8");
  switch (k) {
    case 1: return fn.template operator()<1>();
    case 2: return fn.template operator()<2>();
    case 3: return fn.template operator()<3>();
    case 4: return fn.template operator()<4>();
    case 5: return fn.template operator()<5>();
    case 6: return fn.template operator()<6>();
    case 7: return fn.template operator()<7>();
    case 8: return fn.template operator()<8>();
    default: return fn.template operator()<0>();
  }
}

/// Row stride of a k-column block under the dispatch constant K.
template <std::size_t K>
constexpr std::size_t block_stride(std::size_t k) {
  return K != 0 ? K : k;
}

/// One parallel pass over the n rows of width-k vertex-major blocks under
/// the dispatch constant K: elem(v, j, i, acc) handles entry (v, j) at
/// i = v*k + j, the columns of a row in order. With Sums > 0 it also adds
/// its terms to acc[t*k + j] for t < Sums, and out (Sums * k slots)
/// receives those sums as fixed-block sums (parallel_sums): each one
/// bitwise the parallel_sum of its own terms. For K != 0 a block's
/// accumulators live in registers.
template <std::size_t K, std::size_t Sums = 0, typename Elem>
void for_each_row(std::size_t n, std::size_t k, std::span<double> out,
                  Elem&& elem) {
  const std::size_t s = block_stride<K>(k);
  if constexpr (Sums == 0) {
    parallel_for(n, [&](std::size_t v) {
      for (std::size_t j = 0; j < s; ++j) {
        elem(v, j, v * s + j, static_cast<double*>(nullptr));
      }
    });
  } else {
    parallel_sums(n, out, [&](std::size_t lo, std::size_t hi,
                              double* partial) {
      if constexpr (K != 0) {
        double acc[Sums * K] = {};
        for (std::size_t v = lo; v < hi; ++v) {
          for (std::size_t j = 0; j < K; ++j) elem(v, j, v * K + j, acc);
        }
        for (std::size_t t = 0; t < Sums * K; ++t) partial[t] += acc[t];
      } else {
        for (std::size_t v = lo; v < hi; ++v) {
          for (std::size_t j = 0; j < s; ++j) elem(v, j, v * s + j, partial);
        }
      }
    });
  }
}

}  // namespace hicond
