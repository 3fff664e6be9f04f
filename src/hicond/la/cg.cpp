#include "hicond/la/cg.hpp"

#include <cmath>
#include <initializer_list>

#include "hicond/la/cg_block.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/block.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

namespace {

/// Keep the listed columns of a vertex-major block of width `from`, in
/// order: dst becomes the block of width keep.size() over the same n rows.
/// Pure moves of bytes, so compaction cannot perturb a kept column.
void compact_columns(std::size_t n, std::size_t from,
                     std::span<const int> keep, std::span<const double> src,
                     std::span<double> dst) {
  const std::size_t to = keep.size();
  parallel_for(n, [&](std::size_t v) {
    for (std::size_t c = 0; c < to; ++c) {
      dst[v * to + c] = src[v * from + static_cast<std::size_t>(keep[c])];
    }
  });
}

/// The one CG kernel. k right-hand sides run in lockstep, each column with
/// its own scalar recurrence; a column that converges or breaks down is
/// frozen out of later operator applications. A null `m_inv` is plain CG
/// (z = r); `flexible` (which needs `m_inv`) switches beta from
/// Fletcher-Reeves to Polak-Ribiere.
///
/// b and x are column-major, the caller's layout. Every other block is
/// vertex-major over the active columns (util/block.hpp): x is staged into
/// p for the first A x, b is read in place, and x is updated in place. The
/// vector work of an iteration is seven fused passes over the rows:
///   1. column sums of Ap;            2. Ap -= mean, with p'Ap;
///   3. x += alpha p and r += (-alpha) Ap, with the column sums of r;
///   4. r -= mean, with ||r||^2;      5. column sums of z;
///   6. z -= mean, with r'z and r'z_prev;   7. p = z + beta p.
/// Without projection the means are +0.0, and subtracting +0.0 is exact,
/// so passes 1 and 5 are skipped and the others run unchanged. Every pass
/// keeps each column's arithmetic and its fixed-block sums, so column j
/// gets the bits of the same solve run alone with k = 1.
std::vector<SolveStats> block_cg(const BlockOperator& a,
                                 const BlockOperator* m_inv,
                                 std::span<const double> b,
                                 std::span<double> x, int k,
                                 const CgOptions& opt, bool flexible) {
  HICOND_SPAN("cg.solve");
  HICOND_CHECK(k >= 1, "batched solve needs at least one right-hand side");
  HICOND_CHECK(b.size() % static_cast<std::size_t>(k) == 0,
               "rhs block size not a multiple of k");
  const std::size_t n = b.size() / static_cast<std::size_t>(k);
  HICOND_CHECK(x.size() == b.size(), "solution block size mismatch");
  HICOND_ASSERT(m_inv != nullptr || !flexible);
  const auto uk = static_cast<std::size_t>(k);

  std::vector<SolveStats> stats(uk);
  // Vertex-major state over the kc active columns; compact column c is the
  // caller's column cols[c]. Plain CG keeps no z: z is r.
  std::vector<double> r(uk * n);
  std::vector<double> p(uk * n);
  std::vector<double> ap(uk * n);
  std::vector<double> z(m_inv != nullptr ? uk * n : 0);
  std::vector<double> z_prev(flexible ? uk * n : 0);
  std::vector<int> cols(uk);
  for (std::size_t j = 0; j < uk; ++j) cols[j] = static_cast<int>(j);
  std::size_t kc = uk;
  // Per caller column.
  std::vector<double> rz(uk, 0.0);
  std::vector<double> b_norm(uk, 0.0);
  std::vector<double> stop(uk, 0.0);
  std::vector<double> r_norm(uk, 0.0);
  // Per compact column: one pass's sums (up to two each), the means they
  // give, alpha or beta, the caller's column of x (null once frozen), and
  // the columns that stay active.
  std::vector<double> sums(2 * uk);
  std::vector<double> mean(2 * uk);
  std::vector<double> coef(uk);
  std::vector<double*> x_col(uk);
  std::vector<int> keep;
  keep.reserve(uk);

  const auto block = [&](std::vector<double>& v) {
    return std::span<double>(v.data(), n * kc);
  };
  const auto sums_of = [&](std::size_t count) {
    return std::span<double>(sums.data(), count * kc);
  };
  // The means of the last pass's first `count` sums; +0.0 when not
  // projecting.
  const auto take_means = [&](std::size_t count, bool projected) {
    for (std::size_t t = 0; t < count * kc; ++t) {
      mean[t] = projected ? sums[t] / static_cast<double>(n) : 0.0;
    }
  };
  // Drop the columns `keep` does not list from the `live` blocks; the
  // others hold no values yet. The live blocks move through ap, whose
  // values are dead wherever this runs.
  const auto compact = [&](std::initializer_list<std::vector<double>*> live) {
    if (keep.size() == kc) return;
    for (std::vector<double>* block_of : live) {
      if (block_of->empty()) continue;
      compact_columns(n, kc, keep, block(*block_of), block(ap));
      block_of->swap(ap);
    }
    for (std::size_t c = 0; c < keep.size(); ++c) {
      cols[c] = cols[static_cast<std::size_t>(keep[c])];
    }
    kc = keep.size();
    cols.resize(kc);
  };
  // z = M^-1 r on the active columns, and z's means (pass 5).
  const bool project_z = opt.project_constant && m_inv != nullptr;
  const auto precondition = [&] {
    if (m_inv != nullptr) (*m_inv)(block(r), block(z), static_cast<int>(kc));
    if (project_z) {
      with_block_width(static_cast<int>(kc), [&]<std::size_t K>() {
        for_each_row<K, 1>(n, kc, sums_of(1),
                           [&](std::size_t, std::size_t c, std::size_t i,
                               double* acc) { acc[c] += z[i]; });
      });
    }
    take_means(1, project_z);
  };

  // r = b - A x on every column, then its norm and b's.
  with_block_width(k, [&]<std::size_t K>() {
    const std::size_t s = block_stride<K>(uk);
    for_each_row<K>(n, uk, {},
                    [&](std::size_t v, std::size_t j, std::size_t i,
                        double*) { p[i] = x[j * n + v]; });
    a(p, r, k);
    for_each_row<K, 2>(n, uk, sums_of(2),
                       [&](std::size_t v, std::size_t j, std::size_t i,
                           double* acc) {
                         const double bv = b[j * n + v];
                         r[i] = bv - r[i];
                         acc[j] += r[i];
                         acc[s + j] += bv;
                       });
    take_means(2, opt.project_constant);
    for_each_row<K, 2>(n, uk, sums_of(2),
                       [&](std::size_t v, std::size_t j, std::size_t i,
                           double* acc) {
                         r[i] -= mean[j];
                         acc[j] += r[i] * r[i];
                         const double bc = b[j * n + v] - mean[s + j];
                         acc[s + j] += bc * bc;
                       });
  });
  for (std::size_t j = 0; j < uk; ++j) {
    b_norm[j] = std::sqrt(sums[uk + j]);
    stop[j] = opt.rel_tolerance * (b_norm[j] > 0.0 ? b_norm[j] : 1.0);
    r_norm[j] = std::sqrt(sums[j]);
    if (opt.record_history) stats[j].residual_history.push_back(r_norm[j]);
    if (r_norm[j] <= stop[j]) {
      stats[j].converged = true;
    } else {
      keep.push_back(static_cast<int>(j));
    }
  }
  compact({&r});

  // Initial preconditioner application and first search direction.
  if (kc > 0) {
    precondition();
    const double* zv = m_inv != nullptr ? z.data() : r.data();
    with_block_width(static_cast<int>(kc), [&]<std::size_t K>() {
      for_each_row<K, 1>(n, kc, sums_of(1),
                         [&](std::size_t, std::size_t c, std::size_t i,
                             double* acc) {
                           if (project_z) z[i] -= mean[c];
                           acc[c] += r[i] * zv[i];
                           p[i] = zv[i];
                         });
    });
    for (std::size_t c = 0; c < kc; ++c) {
      rz[static_cast<std::size_t>(cols[c])] = sums[c];
    }
    if (flexible) z.swap(z_prev);
  }

  for (int it = 1; it <= opt.max_iterations && kc > 0; ++it) {
    a(block(p), block(ap), static_cast<int>(kc));
    keep.clear();
    with_block_width(static_cast<int>(kc), [&]<std::size_t K>() {
      if (opt.project_constant) {
        for_each_row<K, 1>(n, kc, sums_of(1),
                           [&](std::size_t, std::size_t c, std::size_t i,
                               double* acc) { acc[c] += ap[i]; });
      }
      take_means(1, opt.project_constant);
      for_each_row<K, 1>(n, kc, sums_of(1),
                         [&](std::size_t, std::size_t c, std::size_t i,
                             double* acc) {
                           ap[i] -= mean[c];
                           acc[c] += p[i] * ap[i];
                         });
      for (std::size_t c = 0; c < kc; ++c) {
        const auto j = static_cast<std::size_t>(cols[c]);
        const double p_ap = sums[c];
        // An indefinite or null direction freezes the column unconverged;
        // its alpha of 0 leaves its dead blocks finite.
        const bool live = p_ap > 0.0;
        coef[c] = live ? rz[j] / p_ap : 0.0;
        x_col[c] = live ? x.data() + j * n : nullptr;
      }
      for_each_row<K, 1>(n, kc, sums_of(1),
                         [&](std::size_t v, std::size_t c, std::size_t i,
                             double* acc) {
                           if (x_col[c] != nullptr) {
                             x_col[c][v] += coef[c] * p[i];
                           }
                           r[i] += -coef[c] * ap[i];
                           acc[c] += r[i];
                         });
      take_means(1, opt.project_constant);
      for_each_row<K, 1>(n, kc, sums_of(1),
                         [&](std::size_t, std::size_t c, std::size_t i,
                             double* acc) {
                           r[i] -= mean[c];
                           acc[c] += r[i] * r[i];
                         });
    });
    for (std::size_t c = 0; c < kc; ++c) {
      if (x_col[c] == nullptr) continue;
      const auto j = static_cast<std::size_t>(cols[c]);
      r_norm[j] = std::sqrt(sums[c]);
      if (opt.record_history) stats[j].residual_history.push_back(r_norm[j]);
      stats[j].iterations = it;
      if (r_norm[j] <= stop[j]) {
        stats[j].converged = true;
      } else {
        keep.push_back(static_cast<int>(c));
      }
    }
    compact({&r, &p, &z_prev});
    if (kc == 0) break;

    precondition();
    keep.clear();
    const double* zv = m_inv != nullptr ? z.data() : r.data();
    with_block_width(static_cast<int>(kc), [&]<std::size_t K>() {
      const std::size_t s = block_stride<K>(kc);
      if (flexible) {
        for_each_row<K, 2>(n, kc, sums_of(2),
                           [&](std::size_t, std::size_t c, std::size_t i,
                               double* acc) {
                             z[i] -= mean[c];
                             acc[c] += r[i] * z[i];
                             acc[s + c] += r[i] * z_prev[i];
                           });
      } else {
        for_each_row<K, 1>(n, kc, sums_of(1),
                           [&](std::size_t, std::size_t c, std::size_t i,
                               double* acc) {
                             if (project_z) z[i] -= mean[c];
                             acc[c] += r[i] * zv[i];
                           });
      }
      for (std::size_t c = 0; c < kc; ++c) {
        const auto j = static_cast<std::size_t>(cols[c]);
        const double rz_new = sums[c];
        // Polak-Ribiere: beta = r'(z - z_prev) / rz.
        coef[c] = flexible ? (rz_new - sums[s + c]) / rz[j] : rz_new / rz[j];
        rz[j] = rz_new;
        if (std::abs(rz[j]) > 0.0) keep.push_back(static_cast<int>(c));
      }
      for_each_row<K>(n, kc, {},
                      [&](std::size_t, std::size_t c, std::size_t i,
                          double*) { p[i] = zv[i] + coef[c] * p[i]; });
    });
    if (flexible) z.swap(z_prev);
    compact({&r, &p, &z_prev});  // r'z = 0: the column stagnated, freeze
  }

  for (std::size_t j = 0; j < uk; ++j) {
    stats[j].final_relative_residual =
        b_norm[j] > 0.0 ? r_norm[j] / b_norm[j] : r_norm[j];
  }
  return stats;
}

/// A single-vector operator as the k = 1 block operator it is.
BlockOperator single_column(const LinearOperator& op) {
  return [&op](std::span<const double> in, std::span<double> out, int) {
    op(in, out);
  };
}

}  // namespace

SolveStats cg_solve(const LinearOperator& a, std::span<const double> b,
                    std::span<double> x, const CgOptions& options) {
  return block_cg(single_column(a), nullptr, b, x, 1, options, false)[0];
}

SolveStats pcg_solve(const LinearOperator& a, const LinearOperator& m_inv,
                     std::span<const double> b, std::span<double> x,
                     const CgOptions& options) {
  const BlockOperator m = single_column(m_inv);
  return block_cg(single_column(a), &m, b, x, 1, options, false)[0];
}

SolveStats flexible_pcg_solve(const LinearOperator& a,
                              const LinearOperator& m_inv,
                              std::span<const double> b, std::span<double> x,
                              const CgOptions& options) {
  const BlockOperator m = single_column(m_inv);
  return block_cg(single_column(a), &m, b, x, 1, options, true)[0];
}

std::vector<SolveStats> batched_flexible_pcg_solve(
    const BlockOperator& a, const BlockOperator& m_inv,
    std::span<const double> b, std::span<double> x, int k,
    const CgOptions& options) {
  return block_cg(a, &m_inv, b, x, k, options, true);
}

}  // namespace hicond
