// General sparse matrices in CSR form, plus the assembly routines that turn
// graphs and triplet lists into matrices.
#pragma once

#include <span>
#include <tuple>
#include <vector>

#include "hicond/graph/graph.hpp"
#include "hicond/util/common.hpp"

namespace hicond {

/// Compressed sparse row matrix of doubles. Rows may hold explicit zeros;
/// column indices within a row are sorted and unique after assembly.
struct CsrMatrix {
  vidx rows = 0;
  vidx cols = 0;
  std::vector<eidx> offsets;   // size rows + 1
  std::vector<vidx> col_idx;   // size nnz
  std::vector<double> values;  // size nnz

  [[nodiscard]] eidx nnz() const noexcept {
    return static_cast<eidx>(col_idx.size());
  }

  /// y = M x, parallel over rows.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// Entry lookup (binary search within the row). 0 when absent.
  [[nodiscard]] double at(vidx i, vidx j) const;

  /// Structural and numerical validation (sorted columns, bounds, sizes).
  void validate() const;
};

/// Assemble a CSR matrix from (row, col, value) triplets; duplicates summed.
[[nodiscard]] CsrMatrix csr_from_triplets(
    vidx rows, vidx cols,
    std::span<const std::tuple<vidx, vidx, double>> triplets);

/// Laplacian of a graph as an explicit CSR matrix.
[[nodiscard]] CsrMatrix csr_laplacian(const Graph& g);

}  // namespace hicond
