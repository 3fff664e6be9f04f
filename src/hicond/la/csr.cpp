#include "hicond/la/csr.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "hicond/util/common.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  HICOND_CHECK(x.size() == static_cast<std::size_t>(cols), "x size mismatch");
  HICOND_CHECK(y.size() == static_cast<std::size_t>(rows), "y size mismatch");
  parallel_for(static_cast<std::size_t>(rows), [&](std::size_t i) {
    double acc = 0.0;
    for (eidx k = offsets[i]; k < offsets[i + 1]; ++k) {
      acc += values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])];
    }
    y[i] = acc;
  });
}

double CsrMatrix::at(vidx i, vidx j) const {
  const auto lo = static_cast<std::size_t>(offsets[static_cast<std::size_t>(i)]);
  const auto hi =
      static_cast<std::size_t>(offsets[static_cast<std::size_t>(i) + 1]);
  const auto begin = col_idx.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto end = col_idx.begin() + static_cast<std::ptrdiff_t>(hi);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return values[static_cast<std::size_t>(it - col_idx.begin())];
}

void CsrMatrix::validate() const {
  HICOND_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be nonnegative");
  HICOND_CHECK(offsets.size() == static_cast<std::size_t>(rows) + 1,
               "offsets size mismatch");
  HICOND_CHECK(offsets.front() == 0 &&
                   offsets.back() == static_cast<eidx>(col_idx.size()),
               "offsets endpoints wrong");
  // Monotonicity must hold before the rows are walked below, otherwise the
  // walk itself would index out of bounds on ragged input.
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    HICOND_CHECK(offsets[i] <= offsets[i + 1],
                 "offsets must be nondecreasing (ragged offsets)");
  }
  HICOND_CHECK(col_idx.size() == values.size(), "values size mismatch");
  for (vidx i = 0; i < rows; ++i) {
    for (eidx k = offsets[static_cast<std::size_t>(i)];
         k < offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const vidx j = col_idx[static_cast<std::size_t>(k)];
      HICOND_CHECK(j >= 0 && j < cols, "column index out of range");
      if (k > offsets[static_cast<std::size_t>(i)]) {
        HICOND_CHECK(col_idx[static_cast<std::size_t>(k - 1)] < j,
                     "columns not strictly increasing");
      }
      HICOND_CHECK(std::isfinite(values[static_cast<std::size_t>(k)]),
                   "non-finite value");
    }
  }
}

CsrMatrix csr_from_triplets(
    vidx rows, vidx cols,
    std::span<const std::tuple<vidx, vidx, double>> triplets) {
  std::vector<std::tuple<vidx, vidx, double>> sorted(triplets.begin(),
                                                     triplets.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) != std::get<0>(b) ? std::get<0>(a) < std::get<0>(b)
                                            : std::get<1>(a) < std::get<1>(b);
  });
  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.offsets.assign(static_cast<std::size_t>(rows) + 1, 0);
  for (std::size_t i = 0; i < sorted.size();) {
    const vidx r = std::get<0>(sorted[i]);
    const vidx c = std::get<1>(sorted[i]);
    HICOND_CHECK(r >= 0 && r < rows && c >= 0 && c < cols,
                 "triplet out of range");
    double v = 0.0;
    std::size_t j = i;
    while (j < sorted.size() && std::get<0>(sorted[j]) == r &&
           std::get<1>(sorted[j]) == c) {
      v += std::get<2>(sorted[j]);
      ++j;
    }
    m.col_idx.push_back(c);
    m.values.push_back(v);
    ++m.offsets[static_cast<std::size_t>(r) + 1];
    i = j;
  }
  for (vidx r = 0; r < rows; ++r) {
    m.offsets[static_cast<std::size_t>(r) + 1] +=
        m.offsets[static_cast<std::size_t>(r)];
  }
  return m;
}

CsrMatrix csr_laplacian(const Graph& g) {
  HICOND_RUN_VALIDATION(expensive, g.validate());
  const vidx n = g.num_vertices();
  CsrMatrix m;
  m.rows = n;
  m.cols = n;
  m.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (vidx v = 0; v < n; ++v) {
    m.offsets[static_cast<std::size_t>(v) + 1] =
        m.offsets[static_cast<std::size_t>(v)] + g.degree(v) + 1;
  }
  m.col_idx.resize(static_cast<std::size_t>(m.offsets.back()));
  m.values.resize(static_cast<std::size_t>(m.offsets.back()));
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t v) {
    // Neighbours are sorted in the CSR graph; insert the diagonal in order.
    auto k = static_cast<std::size_t>(m.offsets[v]);
    const auto nbrs = g.neighbors(static_cast<vidx>(v));
    const auto ws = g.weights(static_cast<vidx>(v));
    bool diag_done = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (!diag_done && static_cast<std::size_t>(nbrs[i]) > v) {
        m.col_idx[k] = static_cast<vidx>(v);
        m.values[k] = g.vol(static_cast<vidx>(v));
        ++k;
        diag_done = true;
      }
      m.col_idx[k] = nbrs[i];
      m.values[k] = -ws[i];
      ++k;
    }
    if (!diag_done) {
      m.col_idx[k] = static_cast<vidx>(v);
      m.values[k] = g.vol(static_cast<vidx>(v));
    }
  });
  return m;
}

}  // namespace hicond
