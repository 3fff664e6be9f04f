#include "hicond/la/sparse_cholesky.hpp"

#include <algorithm>
#include <deque>

#include "hicond/obs/trace.hpp"

namespace hicond {

namespace {

/// Calls body(j, a_ij) for row i of g's Laplacian grounded at `ground`:
/// the diagonal vol(v) first, then the off-diagonal entries in ascending
/// column order, the ground's entry skipped. Rows and columns are grounded
/// indices. Only the off-diagonal order reaches the ordering's ties and the
/// factor's row patterns; the diagonal only seeds its own pivot.
template <typename Body>
void for_each_grounded_entry(const Graph& g, vidx ground, vidx i,
                             Body&& body) {
  const vidx v = i < ground ? i : i + 1;
  body(i, g.vol(v));
  const auto nbrs = g.neighbors(v);
  const auto ws = g.weights(v);
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    if (nbrs[k] != ground) {
      body(nbrs[k] < ground ? nbrs[k] : nbrs[k] - 1, -ws[k]);
    }
  }
}

}  // namespace

/// Reverse Cuthill-McKee: BFS from a pseudo-peripheral vertex, neighbours
/// visited in increasing-degree order, final order reversed. A row's degree
/// is its length in the grounded Laplacian, diagonal included.
std::vector<vidx> compute_ordering(const Graph& g, vidx ground) {
  HICOND_CHECK(ground >= 0 && ground < g.num_vertices(),
               "ground vertex out of range");
  const vidx n = g.num_vertices() - 1;
  std::vector<vidx> row_length(static_cast<std::size_t>(n));
  for (vidx i = 0; i < n; ++i) {
    vidx len = 0;
    for_each_grounded_entry(g, ground, i, [&len](vidx, double) { ++len; });
    row_length[static_cast<std::size_t>(i)] = len;
  }
  auto degree = [&row_length](vidx v) {
    return row_length[static_cast<std::size_t>(v)];
  };
  // Off-diagonal columns of row v, ascending.
  auto for_each_neighbor = [&g, ground](vidx v, auto&& body) {
    for_each_grounded_entry(g, ground, v, [&](vidx u, double) {
      if (u != v) body(u);
    });
  };
  std::vector<vidx> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<vidx> nbrs;
  for (vidx seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    // Pseudo-peripheral start: two BFS hops from the component's first
    // vertex, keeping the farthest minimum-degree vertex.
    vidx start = seed;
    for (int hop = 0; hop < 2; ++hop) {
      std::vector<vidx> dist(static_cast<std::size_t>(n), -1);
      std::deque<vidx> q{start};
      dist[static_cast<std::size_t>(start)] = 0;
      vidx far = start;
      while (!q.empty()) {
        const vidx v = q.front();
        q.pop_front();
        if (dist[static_cast<std::size_t>(v)] >
                dist[static_cast<std::size_t>(far)] ||
            (dist[static_cast<std::size_t>(v)] ==
                 dist[static_cast<std::size_t>(far)] &&
             degree(v) < degree(far))) {
          far = v;
        }
        for_each_neighbor(v, [&](vidx u) {
          if (dist[static_cast<std::size_t>(u)] == -1 &&
              !visited[static_cast<std::size_t>(u)]) {
            dist[static_cast<std::size_t>(u)] =
                dist[static_cast<std::size_t>(v)] + 1;
            q.push_back(u);
          }
        });
      }
      start = far;
    }
    std::deque<vidx> q{start};
    visited[static_cast<std::size_t>(start)] = 1;
    while (!q.empty()) {
      const vidx v = q.front();
      q.pop_front();
      order.push_back(v);
      nbrs.clear();
      for_each_neighbor(v, [&](vidx u) {
        if (!visited[static_cast<std::size_t>(u)]) {
          visited[static_cast<std::size_t>(u)] = 1;
          nbrs.push_back(u);
        }
      });
      std::sort(nbrs.begin(), nbrs.end(),
                [&](vidx x, vidx y) { return degree(x) < degree(y); });
      for (vidx u : nbrs) q.push_back(u);
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

SparseLDL SparseLDL::factor(const Graph& g, vidx ground) {
  SparseLDL f;
  f.perm_ = compute_ordering(g, ground);
  const vidx n = g.num_vertices() - 1;
  f.n_ = n;
  f.perm_inv_.assign(static_cast<std::size_t>(n), 0);
  for (vidx i = 0; i < n; ++i) {
    f.perm_inv_[static_cast<std::size_t>(f.perm_[static_cast<std::size_t>(i)])] =
        i;
  }
  // Permuted access: row k of PAP' is row perm_[k] of A with columns mapped
  // through perm_inv_. We gather each permuted row's lower part on the fly.
  std::vector<vidx> parent(static_cast<std::size_t>(n), -1);
  std::vector<vidx> flag(static_cast<std::size_t>(n), -1);
  std::vector<eidx> l_nnz(static_cast<std::size_t>(n), 0);

  auto for_each_lower = [&](vidx k, auto&& body) {
    for_each_grounded_entry(
        g, ground, f.perm_[static_cast<std::size_t>(k)],
        [&](vidx col, double value) {
          const vidx j = f.perm_inv_[static_cast<std::size_t>(col)];
          if (j <= k) body(j, value);
        });
  };

  // Symbolic pass: elimination tree and column counts.
  for (vidx k = 0; k < n; ++k) {
    parent[static_cast<std::size_t>(k)] = -1;
    flag[static_cast<std::size_t>(k)] = k;
    for_each_lower(k, [&](vidx j, double) {
      while (j != k && flag[static_cast<std::size_t>(j)] != k) {
        if (parent[static_cast<std::size_t>(j)] == -1) {
          parent[static_cast<std::size_t>(j)] = k;
        }
        ++l_nnz[static_cast<std::size_t>(j)];
        flag[static_cast<std::size_t>(j)] = k;
        j = parent[static_cast<std::size_t>(j)];
      }
    });
  }
  f.l_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (vidx j = 0; j < n; ++j) {
    f.l_offsets_[static_cast<std::size_t>(j) + 1] =
        f.l_offsets_[static_cast<std::size_t>(j)] +
        l_nnz[static_cast<std::size_t>(j)];
  }
  f.l_idx_.resize(static_cast<std::size_t>(f.l_offsets_.back()));
  f.l_val_.resize(static_cast<std::size_t>(f.l_offsets_.back()));
  f.d_.assign(static_cast<std::size_t>(n), 0.0);

  // Numeric pass (up-looking).
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  std::vector<vidx> pattern(static_cast<std::size_t>(n));
  std::vector<eidx> l_next(f.l_offsets_.begin(), f.l_offsets_.end() - 1);
  std::fill(flag.begin(), flag.end(), -1);
  for (vidx k = 0; k < n; ++k) {
    vidx top = n;
    flag[static_cast<std::size_t>(k)] = k;
    double dk = 0.0;
    for_each_lower(k, [&](vidx j, double v) {
      if (j == k) {
        dk += v;
        return;
      }
      y[static_cast<std::size_t>(j)] += v;
      vidx len = 0;
      while (flag[static_cast<std::size_t>(j)] != k) {
        pattern[static_cast<std::size_t>(len++)] = j;
        flag[static_cast<std::size_t>(j)] = k;
        j = parent[static_cast<std::size_t>(j)];
      }
      while (len > 0) pattern[static_cast<std::size_t>(--top)] =
          pattern[static_cast<std::size_t>(--len)];
    });
    f.d_[static_cast<std::size_t>(k)] = dk;
    for (vidx s = top; s < n; ++s) {
      const vidx j = pattern[static_cast<std::size_t>(s)];
      const double yj = y[static_cast<std::size_t>(j)];
      y[static_cast<std::size_t>(j)] = 0.0;
      for (eidx p = f.l_offsets_[static_cast<std::size_t>(j)];
           p < l_next[static_cast<std::size_t>(j)]; ++p) {
        y[static_cast<std::size_t>(f.l_idx_[static_cast<std::size_t>(p)])] -=
            f.l_val_[static_cast<std::size_t>(p)] * yj;
      }
      const double l_kj = yj / f.d_[static_cast<std::size_t>(j)];
      f.d_[static_cast<std::size_t>(k)] -= l_kj * yj;
      f.l_idx_[static_cast<std::size_t>(l_next[static_cast<std::size_t>(j)])] =
          k;
      f.l_val_[static_cast<std::size_t>(l_next[static_cast<std::size_t>(j)])] =
          l_kj;
      ++l_next[static_cast<std::size_t>(j)];
    }
    if (!(f.d_[static_cast<std::size_t>(k)] > 0.0)) {
      throw numeric_error("SparseLDL: non-positive pivot at step " +
                          std::to_string(k));
    }
  }
  return f;
}

std::vector<double> SparseLDL::solve(std::span<const double> b) const {
  HICOND_CHECK(b.size() == static_cast<std::size_t>(n_), "rhs size mismatch");
  std::vector<double> x(static_cast<std::size_t>(n_));
  for (vidx k = 0; k < n_; ++k) {
    x[static_cast<std::size_t>(k)] =
        b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(k)])];
  }
  // L z = b (unit lower triangular, CSC columns).
  for (vidx j = 0; j < n_; ++j) {
    const double xj = x[static_cast<std::size_t>(j)];
    for (eidx p = l_offsets_[static_cast<std::size_t>(j)];
         p < l_offsets_[static_cast<std::size_t>(j) + 1]; ++p) {
      x[static_cast<std::size_t>(l_idx_[static_cast<std::size_t>(p)])] -=
          l_val_[static_cast<std::size_t>(p)] * xj;
    }
  }
  for (vidx j = 0; j < n_; ++j) {
    x[static_cast<std::size_t>(j)] /= d_[static_cast<std::size_t>(j)];
  }
  // L' x = z.
  for (vidx j = n_ - 1; j >= 0; --j) {
    double acc = x[static_cast<std::size_t>(j)];
    for (eidx p = l_offsets_[static_cast<std::size_t>(j)];
         p < l_offsets_[static_cast<std::size_t>(j) + 1]; ++p) {
      acc -= l_val_[static_cast<std::size_t>(p)] *
             x[static_cast<std::size_t>(l_idx_[static_cast<std::size_t>(p)])];
    }
    x[static_cast<std::size_t>(j)] = acc;
  }
  std::vector<double> result(static_cast<std::size_t>(n_));
  for (vidx k = 0; k < n_; ++k) {
    result[static_cast<std::size_t>(perm_[static_cast<std::size_t>(k)])] =
        x[static_cast<std::size_t>(k)];
  }
  return result;
}

LaplacianDirectSolver::LaplacianDirectSolver(const Graph& g)
    : n_(g.num_vertices()) {
  HICOND_CHECK(n_ >= 1, "empty graph");
  HICOND_SPAN("cholesky.factor");
  if (n_ == 1) return;
  // Ground the maximum-volume vertex (a numerically safe choice).
  grounded_ = 0;
  for (vidx v = 1; v < n_; ++v) {
    if (g.vol(v) > g.vol(grounded_)) grounded_ = v;
  }
  ldl_ = SparseLDL::factor(g, grounded_);
}

std::vector<double> LaplacianDirectSolver::solve(
    std::span<const double> b) const {
  std::vector<double> x(static_cast<std::size_t>(n_), 0.0);
  apply(b, x);
  return x;
}

void LaplacianDirectSolver::apply(std::span<const double> b,
                                  std::span<double> x) const {
  HICOND_CHECK(b.size() == static_cast<std::size_t>(n_), "rhs size mismatch");
  HICOND_CHECK(x.size() == static_cast<std::size_t>(n_), "x size mismatch");
  if (n_ == 1) {
    x[0] = 0.0;
    return;
  }
  // Project the rhs onto range(L) = {mean-free vectors} first: this makes
  // the grounded solve a true symmetric pseudo-inverse even for
  // inconsistent right-hand sides.
  double b_mean = 0.0;
  for (vidx v = 0; v < n_; ++v) b_mean += b[static_cast<std::size_t>(v)];
  b_mean /= static_cast<double>(n_);
  std::vector<double> rb;
  rb.reserve(static_cast<std::size_t>(n_) - 1);
  for (vidx v = 0; v < n_; ++v) {
    if (v != grounded_) rb.push_back(b[static_cast<std::size_t>(v)] - b_mean);
  }
  const std::vector<double> rx = ldl_.solve(rb);
  double mean = 0.0;
  std::size_t k = 0;
  for (vidx v = 0; v < n_; ++v) {
    if (v == grounded_) {
      x[static_cast<std::size_t>(v)] = 0.0;
    } else {
      x[static_cast<std::size_t>(v)] = rx[k++];
    }
    mean += x[static_cast<std::size_t>(v)];
  }
  mean /= static_cast<double>(n_);
  for (vidx v = 0; v < n_; ++v) x[static_cast<std::size_t>(v)] -= mean;
}

}  // namespace hicond
