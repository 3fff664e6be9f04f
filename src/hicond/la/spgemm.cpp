#include "hicond/la/spgemm.hpp"

#include <algorithm>

#include "hicond/util/parallel.hpp"

namespace hicond {

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b) {
  HICOND_CHECK(a.cols == b.rows, "spgemm inner dimension mismatch");
  CsrMatrix c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.offsets.assign(static_cast<std::size_t>(a.rows) + 1, 0);

  // Pass 1: count the nnz of each output row with a per-thread marker array.
  std::vector<eidx> row_nnz(static_cast<std::size_t>(a.rows), 0);
  parallel_region([&] {
    std::vector<vidx> marker(static_cast<std::size_t>(b.cols), -1);
#pragma omp for schedule(dynamic, 64) nowait
    for (vidx i = 0; i < a.rows; ++i) {
      eidx count = 0;
      for (eidx ka = a.offsets[static_cast<std::size_t>(i)];
           ka < a.offsets[static_cast<std::size_t>(i) + 1]; ++ka) {
        const vidx k = a.col_idx[static_cast<std::size_t>(ka)];
        for (eidx kb = b.offsets[static_cast<std::size_t>(k)];
             kb < b.offsets[static_cast<std::size_t>(k) + 1]; ++kb) {
          const vidx j = b.col_idx[static_cast<std::size_t>(kb)];
          if (marker[static_cast<std::size_t>(j)] != i) {
            marker[static_cast<std::size_t>(j)] = i;
            ++count;
          }
        }
      }
      row_nnz[static_cast<std::size_t>(i)] = count;
    }
  });
  for (vidx i = 0; i < a.rows; ++i) {
    c.offsets[static_cast<std::size_t>(i) + 1] =
        c.offsets[static_cast<std::size_t>(i)] +
        row_nnz[static_cast<std::size_t>(i)];
  }
  c.col_idx.resize(static_cast<std::size_t>(c.offsets.back()));
  c.values.resize(static_cast<std::size_t>(c.offsets.back()));

  // Pass 2: numeric accumulation with a dense scratch row per thread.
  parallel_region([&] {
    std::vector<vidx> marker(static_cast<std::size_t>(b.cols), -1);
    std::vector<double> scratch(static_cast<std::size_t>(b.cols), 0.0);
    std::vector<vidx> cols_seen;
#pragma omp for schedule(dynamic, 64) nowait
    for (vidx i = 0; i < a.rows; ++i) {
      cols_seen.clear();
      for (eidx ka = a.offsets[static_cast<std::size_t>(i)];
           ka < a.offsets[static_cast<std::size_t>(i) + 1]; ++ka) {
        const vidx k = a.col_idx[static_cast<std::size_t>(ka)];
        const double av = a.values[static_cast<std::size_t>(ka)];
        for (eidx kb = b.offsets[static_cast<std::size_t>(k)];
             kb < b.offsets[static_cast<std::size_t>(k) + 1]; ++kb) {
          const vidx j = b.col_idx[static_cast<std::size_t>(kb)];
          if (marker[static_cast<std::size_t>(j)] != i) {
            marker[static_cast<std::size_t>(j)] = i;
            scratch[static_cast<std::size_t>(j)] = 0.0;
            cols_seen.push_back(j);
          }
          scratch[static_cast<std::size_t>(j)] +=
              av * b.values[static_cast<std::size_t>(kb)];
        }
      }
      std::sort(cols_seen.begin(), cols_seen.end());
      auto pos = static_cast<std::size_t>(c.offsets[static_cast<std::size_t>(i)]);
      for (vidx j : cols_seen) {
        c.col_idx[pos] = j;
        c.values[pos] = scratch[static_cast<std::size_t>(j)];
        ++pos;
      }
    }
  });
  HICOND_RUN_VALIDATION(expensive, c.validate());
  return c;
}

}  // namespace hicond
