#include "hicond/la/cg.hpp"

#include <cmath>

#include "hicond/la/cg_block.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/metrics.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

namespace {

/// Copy the listed columns of a k-wide column-major block into a compact
/// `cols.size()`-wide block (and back). Pure moves of bytes: gathering
/// active columns before a block application cannot perturb their values.
void gather_columns(std::span<const double> src, std::size_t n,
                    std::span<const int> cols, std::span<double> dst) {
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const auto j = static_cast<std::size_t>(cols[c]);
    la::copy(src.subspan(j * n, n), dst.subspan(c * n, n));
  }
}

void scatter_columns(std::span<const double> src, std::size_t n,
                     std::span<const int> cols, std::span<double> dst) {
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const auto j = static_cast<std::size_t>(cols[c]);
    la::copy(src.subspan(c * n, n), dst.subspan(j * n, n));
  }
}

/// The one CG kernel. k right-hand sides run in lockstep, each column with
/// its own scalar recurrence; a column that converges or breaks down is
/// frozen out of later operator applications. A null `m_inv` is plain CG
/// (z = r); `flexible` switches beta from Fletcher-Reeves to Polak-Ribiere.
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
  const auto uk = static_cast<std::size_t>(k);

  std::vector<SolveStats> stats(uk);
  // Per-column state, column-major like the inputs.
  std::vector<double> r(uk * n);
  std::vector<double> z(uk * n);
  std::vector<double> p(uk * n);
  std::vector<double> ap(uk * n);
  std::vector<double> z_prev(flexible ? uk * n : 0);
  std::vector<double> rz(uk, 0.0);
  std::vector<double> b_norm(uk, 0.0);
  std::vector<double> stop(uk, 0.0);
  std::vector<double> r_norm(uk, 0.0);

  auto col = [n](std::span<double> block, std::size_t j) {
    return block.subspan(j * n, n);
  };
  auto ccol = [n](std::span<const double> block, std::size_t j) {
    return block.subspan(j * n, n);
  };
  auto project = [&](std::span<double> v) {
    if (opt.project_constant) la::remove_mean(v);
  };

  // r = b - A x, all columns at once (every column is live here).
  a(x, r, k);
  std::vector<int> active;
  active.reserve(uk);
  for (std::size_t j = 0; j < uk; ++j) {
    auto rj = col(r, j);
    const auto bj = ccol(b, j);
    parallel_for(n, [&](std::size_t i) { rj[i] = bj[i] - rj[i]; });
    project(rj);
    std::vector<double> b_proj(bj.begin(), bj.end());
    project(b_proj);
    b_norm[j] = la::norm2(b_proj);
    stop[j] = opt.rel_tolerance * (b_norm[j] > 0.0 ? b_norm[j] : 1.0);
    r_norm[j] = la::norm2(rj);
    if (opt.record_history) stats[j].residual_history.push_back(r_norm[j]);
    if (r_norm[j] <= stop[j]) {
      stats[j].converged = true;
    } else {
      active.push_back(static_cast<int>(j));
    }
  }

  // While every column is active the operators see the caller's blocks
  // directly; once one freezes, the active columns are compacted into
  // workspace that is allocated on first use.
  std::vector<double> gather_in;
  std::vector<double> gather_out;
  auto apply_active = [&](const BlockOperator& op,
                          std::span<const double> src,
                          std::span<double> dst) {
    if (active.size() == uk) {
      op(src, dst, k);
      return;
    }
    const std::size_t len = active.size() * n;
    gather_in.resize(len);
    gather_out.resize(len);
    gather_columns(src, n, active, gather_in);
    op(gather_in, gather_out, static_cast<int>(active.size()));
    scatter_columns(gather_out, n, active, dst);
  };
  // z = M^-1 r on the active columns.
  auto precondition = [&] {
    if (m_inv == nullptr) {
      for (const int j : active) {
        la::copy(ccol(r, static_cast<std::size_t>(j)),
                 col(z, static_cast<std::size_t>(j)));
      }
      return;
    }
    apply_active(*m_inv, r, z);
    for (const int j : active) project(col(z, static_cast<std::size_t>(j)));
  };

  // Initial preconditioner application and first search direction.
  if (!active.empty()) precondition();
  for (const int ji : active) {
    const auto j = static_cast<std::size_t>(ji);
    la::copy(ccol(z, j), col(p, j));
    rz[j] = la::dot(ccol(r, j), ccol(z, j));
    if (flexible) la::copy(ccol(z, j), col(z_prev, j));
  }

  std::vector<int> still_active;
  still_active.reserve(uk);
  for (int it = 1; it <= opt.max_iterations && !active.empty(); ++it) {
    apply_active(a, p, ap);
    still_active.clear();
    for (const int ji : active) {
      const auto j = static_cast<std::size_t>(ji);
      auto apj = col(ap, j);
      project(apj);
      const double p_ap = la::dot(ccol(p, j), apj);
      if (!(p_ap > 0.0)) {
        continue;  // indefinite/null direction: freeze, report no convergence
      }
      const double alpha = rz[j] / p_ap;
      la::axpy(alpha, ccol(p, j), col(x, j));
      la::axpy(-alpha, apj, col(r, j));
      project(col(r, j));
      r_norm[j] = la::norm2(ccol(r, j));
      if (opt.record_history) stats[j].residual_history.push_back(r_norm[j]);
      stats[j].iterations = it;
      if (r_norm[j] <= stop[j]) {
        stats[j].converged = true;
        continue;
      }
      still_active.push_back(ji);
    }
    active.swap(still_active);
    if (active.empty()) break;

    precondition();
    still_active.clear();
    for (const int ji : active) {
      const auto j = static_cast<std::size_t>(ji);
      const auto rj = ccol(r, j);
      const double rz_new = la::dot(rj, ccol(z, j));
      double beta;
      if (flexible) {
        // Polak-Ribiere: beta = r'(z - z_prev) / rz. Fixed-block reduction:
        // same rounding at every thread count.
        const auto zpj = ccol(z_prev, j);
        const double rz_prev_dot =
            parallel_sum(n, [&](std::size_t i) { return rj[i] * zpj[i]; });
        beta = (rz_new - rz_prev_dot) / rz[j];
        la::copy(ccol(z, j), col(z_prev, j));
      } else {
        beta = rz_new / rz[j];
      }
      rz[j] = rz_new;
      if (!(std::abs(rz[j]) > 0.0)) continue;  // stagnated: freeze
      la::xpby(ccol(z, j), beta, col(p, j));
      still_active.push_back(ji);
    }
    active.swap(still_active);
  }

  auto& metrics = obs::MetricsRegistry::global();
  for (std::size_t j = 0; j < uk; ++j) {
    stats[j].final_relative_residual =
        b_norm[j] > 0.0 ? r_norm[j] / b_norm[j] : r_norm[j];
    metrics.counter_add("cg.solves");
    metrics.counter_add("cg.iterations", stats[j].iterations);
    if (stats[j].iterations > 0) {
      metrics.histogram_record("cg.iterations_per_solve",
                               static_cast<double>(stats[j].iterations));
    }
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
