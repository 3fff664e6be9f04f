#include "hicond/precond/multilevel.hpp"

#include <algorithm>

#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/metrics.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/parallel.hpp"
#include "hicond/util/timer.hpp"

namespace hicond {

MultilevelSteinerSolver MultilevelSteinerSolver::build(
    LaminarHierarchy hierarchy, const MultilevelOptions& options) {
  return build_impl(std::move(hierarchy), options, nullptr);
}

MultilevelSteinerSolver MultilevelSteinerSolver::build(
    LaminarHierarchy hierarchy, const MultilevelOptions& options,
    const MultilevelSteinerSolver& reuse) {
  return build_impl(std::move(hierarchy), options, reuse.state_.get());
}

MultilevelSteinerSolver MultilevelSteinerSolver::build_impl(
    LaminarHierarchy hierarchy, const MultilevelOptions& options,
    const State* reuse) {
  HICOND_CHECK(!hierarchy.levels.empty() ||
                   hierarchy.coarsest.num_vertices() > 0,
               "empty hierarchy");
  HICOND_SPAN("multilevel.build");
  MultilevelSteinerSolver s;
  s.state_ = std::make_shared<State>();
  s.state_->hierarchy = std::move(hierarchy);
  s.state_->options = options;
  for (const auto& level : s.state_->hierarchy.levels) {
    std::vector<double> inv(static_cast<std::size_t>(level.graph.num_vertices()));
    parallel_for(inv.size(), [&](std::size_t v) {
      const double vol = level.graph.vol(static_cast<vidx>(v));
      inv[v] = vol > 0.0 ? 1.0 / vol : 0.0;
    });
    s.state_->inv_diag.push_back(std::move(inv));
    s.state_->restriction.push_back(ClusterIndex::build(
        level.decomposition.assignment, level.decomposition.num_clusters));
    if (options.smoother == SmootherKind::chebyshev) {
      s.state_->chebyshev.push_back(std::make_unique<ChebyshevSmoother>(
          level.graph, options.chebyshev_degree));
    } else {
      s.state_->chebyshev.push_back(nullptr);
    }
  }
  if (s.state_->hierarchy.coarsest.num_vertices() > 1) {
    // The factorization is a pure function of the coarsest graph, so when an
    // earlier solver factored the identical graph, alias it: same bits, no
    // refactorization. This is what makes repaired-hierarchy rebuilds cheap
    // when the quotient chain survived an update.
    if (reuse != nullptr && reuse->coarsest_solver != nullptr &&
        s.state_->hierarchy.coarsest.identical_to(reuse->hierarchy.coarsest)) {
      s.state_->coarsest_solver = reuse->coarsest_solver;
      obs::MetricsRegistry::global().counter_add("multilevel.coarsest_reuses");
    } else {
      s.state_->coarsest_solver = std::make_shared<LaplacianDirectSolver>(
          s.state_->hierarchy.coarsest);
    }
  }
  s.state_->cycle_stats.assign(
      static_cast<std::size_t>(s.state_->hierarchy.num_levels()) + 1, {});
  obs::MetricsRegistry::global().counter_add("multilevel.builds");
  return s;
}

void MultilevelSteinerSolver::cycle_block(int level,
                                          std::span<const double> r,
                                          std::span<double> z, int k) const {
  State& st = *state_;
  // Inclusive per-level attribution; apply_block() is single-caller, so
  // plain accumulation into the shared state is race-free.
  LevelCycleStats& attribution =
      st.cycle_stats[static_cast<std::size_t>(level)];
  const Timer level_timer;
  struct Accumulate {
    const Timer& timer;
    LevelCycleStats& stats;
    ~Accumulate() {
      ++stats.calls;
      stats.seconds += timer.seconds();
    }
  } accumulate{level_timer, attribution};

  const auto uk = static_cast<std::size_t>(k);
  if (level == st.hierarchy.num_levels()) {
    coarsest_solve(r, z, k);
    return;
  }
  const HierarchyLevel& lv =
      st.hierarchy.levels[static_cast<std::size_t>(level)];
  const Graph& a = lv.graph;
  const auto n = static_cast<std::size_t>(a.num_vertices());
  const auto& inv_diag = st.inv_diag[static_cast<std::size_t>(level)];
  const auto& assignment = lv.decomposition.assignment;
  const auto m = static_cast<std::size_t>(lv.decomposition.num_clusters);

  std::vector<double> work(uk * n);
  std::vector<double> residual(uk * n);

  // The SpMVs are blocked; every other update runs column by column, so
  // each column's arithmetic is independent of the others and of k.
  const ChebyshevSmoother* cheb =
      st.chebyshev[static_cast<std::size_t>(level)].get();
  auto smooth_pass = [&](std::span<double> iterate) {
    for (int s = 0; s < st.options.smoothing_steps; ++s) {
      if (cheb != nullptr) {
        for (std::size_t j = 0; j < uk; ++j) {
          cheb->smooth(r.subspan(j * n, n), iterate.subspan(j * n, n));
        }
        continue;
      }
      a.laplacian_apply_block(iterate, work, k);
      for (std::size_t j = 0; j < uk; ++j) {
        const auto rj = r.subspan(j * n, n);
        const auto wj = std::span<const double>(work).subspan(j * n, n);
        auto zj = iterate.subspan(j * n, n);
        parallel_for(n, [&](std::size_t i) {
          zj[i] += st.options.jacobi_weight * inv_diag[i] * (rj[i] - wj[i]);
        });
      }
    }
  };

  // Pre-smoothing from z = 0.
  la::fill(z, 0.0);
  smooth_pass(z);
  // Coarse correction on the residual. The restriction is parallel over
  // clusters (owner-computes; see ClusterIndex).
  a.laplacian_apply_block(z, work, k);
  std::vector<double> rc(uk * m, 0.0);
  for (std::size_t j = 0; j < uk; ++j) {
    const auto rj = r.subspan(j * n, n);
    const auto wj = std::span<const double>(work).subspan(j * n, n);
    const auto resj = std::span(residual).subspan(j * n, n);
    parallel_for(n, [&](std::size_t i) { resj[i] = rj[i] - wj[i]; });
    st.restriction[static_cast<std::size_t>(level)].restrict_sum(
        resj, std::span(rc).subspan(j * m, m));
  }
  std::vector<double> zc(uk * m, 0.0);
  cycle_block(level + 1, rc, zc, k);
  for (std::size_t j = 0; j < uk; ++j) {
    auto zj = z.subspan(j * n, n);
    const auto zcj = std::span<const double>(zc).subspan(j * m, m);
    parallel_for(n, [&](std::size_t v) {
      zj[v] += zcj[static_cast<std::size_t>(assignment[v])];
    });
  }
  // Post-smoothing (symmetric to the pre-smoothing).
  smooth_pass(z);
}

void MultilevelSteinerSolver::coarsest_solve(std::span<const double> r,
                                             std::span<double> z,
                                             int k) const {
  const State& st = *state_;
  const auto uk = static_cast<std::size_t>(k);
  const std::size_t n = r.size() / uk;
  for (std::size_t j = 0; j < uk; ++j) {
    if (st.coarsest_solver != nullptr) {
      st.coarsest_solver->apply(r.subspan(j * n, n), z.subspan(j * n, n));
    } else {
      la::fill(z.subspan(j * n, n), 0.0);
    }
  }
}

void MultilevelSteinerSolver::apply_block(std::span<const double> r,
                                          std::span<double> z, int k) const {
  HICOND_SPAN("multilevel.apply");
  HICOND_CHECK(k >= 1, "block width must be positive");
  HICOND_CHECK(r.size() == z.size(), "block size mismatch");
  HICOND_CHECK(r.size() % static_cast<std::size_t>(k) == 0,
               "block size not a multiple of k");
  const State& st = *state_;
  if (st.hierarchy.num_levels() == 0) {
    coarsest_solve(r, z, k);
    return;
  }
  // First cycle from zero initial guess.
  cycle_block(0, r, z, k);
  // Additional cycles refine on the residual.
  if (st.options.cycles > 1) {
    const Graph& a = st.hierarchy.levels.front().graph;
    std::vector<double> work(r.size());
    std::vector<double> correction(r.size());
    for (int c = 1; c < st.options.cycles; ++c) {
      a.laplacian_apply_block(z, work, k);
      parallel_for(work.size(),
                   [&](std::size_t i) { work[i] = r[i] - work[i]; });
      cycle_block(0, work, correction, k);
      la::axpy(1.0, correction, z);
    }
  }
  const auto uk = static_cast<std::size_t>(k);
  const std::size_t n = r.size() / uk;
  for (std::size_t j = 0; j < uk; ++j) la::remove_mean(z.subspan(j * n, n));
}

void MultilevelSteinerSolver::apply(std::span<const double> r,
                                    std::span<double> z) const {
  apply_block(r, z, 1);
}

LinearOperator MultilevelSteinerSolver::as_operator() const {
  auto self = *this;  // shares state_
  return [self](std::span<const double> r, std::span<double> z) {
    self.apply_block(r, z, 1);
  };
}

BlockOperator MultilevelSteinerSolver::as_block_operator() const {
  auto self = *this;  // shares state_
  return [self](std::span<const double> r, std::span<double> z, int k) {
    self.apply_block(r, z, k);
  };
}

double MultilevelSteinerSolver::operator_complexity() const {
  const State& st = *state_;
  if (st.hierarchy.levels.empty()) return 1.0;
  double total = 0.0;
  for (const auto& lv : st.hierarchy.levels) {
    total += static_cast<double>(lv.graph.num_vertices());
  }
  total += static_cast<double>(st.hierarchy.coarsest.num_vertices());
  return total /
         static_cast<double>(st.hierarchy.levels.front().graph.num_vertices());
}

}  // namespace hicond
