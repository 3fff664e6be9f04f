#include "hicond/precond/multilevel.hpp"

#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/metrics.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/parallel.hpp"
#include "hicond/util/timer.hpp"

namespace hicond {

namespace {

/// Damped-Jacobi relaxation weight of both smoothing sweeps.
constexpr double kJacobiWeight = 0.7;

}  // namespace

MultilevelSteinerSolver MultilevelSteinerSolver::build(
    LaminarHierarchy hierarchy, const MultilevelOptions& /*options*/) {
  return build_impl(std::move(hierarchy), nullptr);
}

MultilevelSteinerSolver MultilevelSteinerSolver::build(
    LaminarHierarchy hierarchy, const MultilevelSteinerSolver& reuse) {
  return build_impl(std::move(hierarchy), reuse.state_.get());
}

MultilevelSteinerSolver MultilevelSteinerSolver::build_impl(
    LaminarHierarchy hierarchy, const State* reuse) {
  HICOND_CHECK(!hierarchy.levels.empty() ||
                   hierarchy.coarsest.num_vertices() > 0,
               "empty hierarchy");
  HICOND_SPAN("multilevel.build");
  MultilevelSteinerSolver s;
  s.state_ = std::make_shared<State>();
  s.state_->hierarchy = std::move(hierarchy);
  for (const auto& level : s.state_->hierarchy.levels) {
    std::vector<double> inv(static_cast<std::size_t>(level.graph.num_vertices()));
    parallel_for(inv.size(), [&](std::size_t v) {
      const double vol = level.graph.vol(static_cast<vidx>(v));
      inv[v] = vol > 0.0 ? 1.0 / vol : 0.0;
    });
    s.state_->inv_diag.push_back(std::move(inv));
    s.state_->restriction.push_back(ClusterIndex::build(
        level.decomposition.assignment, level.decomposition.num_clusters));
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

/// Scratch of one operator: per level one n*k vector (the residual, then
/// the prolonged iterate) and the restricted residual and coarse correction
/// (m*k each). Buffers grow to the widest k seen and are never assumed to
/// hold zeros.
struct MultilevelSteinerSolver::Workspace {
  struct Level {
    std::vector<double> fine;
    std::vector<double> rc;
    std::vector<double> zc;
  };
  std::vector<Level> levels;
};

namespace {

/// The first `size` entries of `buf`, growing it if it is shorter.
std::span<double> take(std::vector<double>& buf, std::size_t size) {
  if (buf.size() < size) buf.resize(size);
  return {buf.data(), size};
}

}  // namespace

void MultilevelSteinerSolver::cycle_block(int level,
                                          std::span<const double> r,
                                          std::span<double> z, int k,
                                          Workspace& ws) const {
  State& st = *state_;
  // Inclusive per-level attribution; an operator serves one caller at a
  // time, so plain accumulation into the shared state is race-free.
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
  const auto l = static_cast<std::size_t>(level);
  const HierarchyLevel& lv = st.hierarchy.levels[l];
  const Graph& a = lv.graph;
  const auto n = static_cast<std::size_t>(a.num_vertices());
  const auto& inv_diag = st.inv_diag[l];
  const auto& assignment = lv.decomposition.assignment;
  const auto m = static_cast<std::size_t>(lv.decomposition.num_clusters);
  Workspace::Level& scratch = ws.levels[l];
  const std::span<double> fine = take(scratch.fine, uk * n);
  const std::span<double> rc = take(scratch.rc, uk * m);
  const std::span<double> zc = take(scratch.zc, uk * m);

  // Every update runs per column in a fixed order, so column j's bits do
  // not depend on the other columns or on k. Two SpMV passes per level: the
  // pre-smoothing sweep from z = 0 needs none, the residual and the
  // post-smoothing sweep each fuse their elementwise update into the SpMV.

  // Pre-smoothing from z = 0: the sweep z + w D^-1 (r - A z) with z = 0 and
  // A z = +0 written out, which keeps the sweep's bits.
  parallel_for(n, [&](std::size_t v) {
    for (std::size_t j = 0; j < uk; ++j) {
      const std::size_t i = j * n + v;
      z[i] = 0.0 + kJacobiWeight * inv_diag[v] * (r[i] - 0.0);
    }
  });
  // Coarse correction on the residual. The restriction is parallel over
  // clusters (owner-computes; see ClusterIndex).
  a.laplacian_residual_block(z, r, fine, k);
  for (std::size_t j = 0; j < uk; ++j) {
    st.restriction[l].restrict_sum(fine.subspan(j * n, n),
                                   rc.subspan(j * m, m));
  }
  cycle_block(level + 1, rc, zc, k, ws);
  // Prolongation into `fine`, then the post-smoothing sweep (symmetric to
  // the pre-smoothing) reads it and writes z; the sweep reads neighbours,
  // so it cannot run in place.
  parallel_for(n, [&](std::size_t v) {
    const auto c = static_cast<std::size_t>(assignment[v]);
    for (std::size_t j = 0; j < uk; ++j) {
      fine[j * n + v] = z[j * n + v] + zc[j * m + c];
    }
  });
  a.jacobi_sweep_block(fine, r, inv_diag, kJacobiWeight, z, k);
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
  Workspace ws;
  apply_block(r, z, k, ws);
}

void MultilevelSteinerSolver::apply_block(std::span<const double> r,
                                          std::span<double> z, int k,
                                          Workspace& ws) const {
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
  ws.levels.resize(static_cast<std::size_t>(st.hierarchy.num_levels()));
  cycle_block(0, r, z, k, ws);
  const auto uk = static_cast<std::size_t>(k);
  const std::size_t n = r.size() / uk;
  for (std::size_t j = 0; j < uk; ++j) la::remove_mean(z.subspan(j * n, n));
}

void MultilevelSteinerSolver::apply(std::span<const double> r,
                                    std::span<double> z) const {
  apply_block(r, z, 1);
}

LinearOperator MultilevelSteinerSolver::as_operator() const {
  // Shares state_; the workspace is this operator's own.
  return [self = *this, ws = Workspace{}](std::span<const double> r,
                                          std::span<double> z) mutable {
    self.apply_block(r, z, 1, ws);
  };
}

BlockOperator MultilevelSteinerSolver::as_block_operator() const {
  return [self = *this, ws = Workspace{}](std::span<const double> r,
                                          std::span<double> z,
                                          int k) mutable {
    self.apply_block(r, z, k, ws);
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
