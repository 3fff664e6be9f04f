// Layout conversion for tests that call the block kernels, the V-cycle's
// apply_block or a BlockOperator directly. The public solve entry points
// (solve_batch, batched_flexible_pcg_solve) take column-major blocks:
// column j at [j*n, (j+1)*n). Everything below them is vertex-major: entry
// (v, j) at v*k + j (src/hicond/util/block.hpp). Tests build and check
// blocks column-major and convert at the call.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hicond::test {

/// The column-major block `columns` of k columns, vertex-major.
inline std::vector<double> to_vertex_major(std::span<const double> columns,
                                           int k) {
  const auto uk = static_cast<std::size_t>(k);
  const std::size_t n = columns.size() / uk;
  std::vector<double> rows(columns.size());
  for (std::size_t j = 0; j < uk; ++j) {
    for (std::size_t v = 0; v < n; ++v) rows[v * uk + j] = columns[j * n + v];
  }
  return rows;
}

/// The vertex-major block `rows` of k columns, column-major.
inline std::vector<double> to_column_major(std::span<const double> rows,
                                           int k) {
  const auto uk = static_cast<std::size_t>(k);
  const std::size_t n = rows.size() / uk;
  std::vector<double> columns(rows.size());
  for (std::size_t j = 0; j < uk; ++j) {
    for (std::size_t v = 0; v < n; ++v) columns[j * n + v] = rows[v * uk + j];
  }
  return columns;
}

}  // namespace hicond::test
