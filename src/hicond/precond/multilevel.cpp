#include "hicond/precond/multilevel.hpp"

#include <cmath>

#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/block.hpp"
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
    std::vector<double> damping(
        static_cast<std::size_t>(level.graph.num_vertices()));
    parallel_for(damping.size(), [&](std::size_t v) {
      const double vol = level.graph.vol(static_cast<vidx>(v));
      damping[v] = kJacobiWeight * (vol > 0.0 ? 1.0 / vol : 0.0);
    });
    s.state_->damping.push_back(std::move(damping));
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
    } else {
      s.state_->coarsest_solver = std::make_shared<LaplacianDirectSolver>(
          s.state_->hierarchy.coarsest);
    }
  }
  s.state_->cycle_stats.assign(
      static_cast<std::size_t>(s.state_->hierarchy.num_levels()) + 1, {});
  return s;
}

/// Scratch of one operator: per level one n*k block (the residual after
/// pre-smoothing), the restricted residual and the coarse correction (m*k
/// each), and per column the coarse correction's gain and step (k each);
/// one column of the coarsest level for its column-by-column direct solve.
/// Buffers grow to the widest k seen and are never assumed to hold zeros.
struct MultilevelSteinerSolver::Workspace {
  struct Level {
    std::vector<double> fine;
    std::vector<double> rc;
    std::vector<double> zc;
    std::vector<double> gain;
    std::vector<double> step;
  };
  std::vector<Level> levels;
  std::vector<double> coarsest_r;
  std::vector<double> coarsest_z;
};

namespace {

/// The first `size` entries of `buf`, growing it if it is shorter.
std::span<double> take(std::vector<double>& buf, std::size_t size) {
  if (buf.size() < size) buf.resize(size);
  return {buf.data(), size};
}

/// The step that minimizes the A-norm error of z0 + step * e, where e = P zc
/// prolongs the coarse correction zc of the restricted residual rc:
/// <e, s> / <e, A e> with rc = P' s, which is `gain` = <zc, rc> over
/// `energy` = <e, A e>. Falls back to 1, and counts it, when either dot is
/// not a finite positive number.
double energy_optimal_step(double gain, double energy,
                           LevelCycleStats& stats) {
  double step = 1.0;
  if (std::isfinite(gain) && std::isfinite(energy) && gain > 0.0 &&
      energy > 0.0 && std::isfinite(gain / energy)) {
    step = gain / energy;
  } else {
    ++stats.step_fallbacks;
  }
  stats.step_min = stats.steps == 0 ? step : std::min(stats.step_min, step);
  stats.step_sum += step;
  ++stats.steps;
  return step;
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
    coarsest_solve(r, z, k, ws);
    return;
  }
  const auto l = static_cast<std::size_t>(level);
  const HierarchyLevel& lv = st.hierarchy.levels[l];
  const Graph& a = lv.graph;
  const auto n = static_cast<std::size_t>(a.num_vertices());
  const auto& damping = st.damping[l];
  const auto& assignment = lv.decomposition.assignment;
  const auto m = static_cast<std::size_t>(lv.decomposition.num_clusters);
  Workspace::Level& scratch = ws.levels[l];
  const std::span<double> fine = take(scratch.fine, uk * n);
  const std::span<double> rc = take(scratch.rc, uk * m);
  const std::span<double> zc = take(scratch.zc, uk * m);
  const std::span<double> gain = take(scratch.gain, uk);
  const std::span<double> step = take(scratch.step, uk);

  // Every block is vertex-major and every update runs per column in a
  // fixed order, so column j's bits do not depend on the other columns or
  // on k. Two SpMV passes per level: the residual after pre-smoothing, and
  // A e for the prolonged coarse correction e, which also yields the
  // energy <e, A e>.

  // Pre-smoothing from z = 0 gives z0 = w D^-1 r, which the residual
  // s = r - A z0 reads entry by entry; s goes into `fine` and is restricted
  // by cluster sums (owner-computes over clusters; see ClusterIndex).
  a.laplacian_scaled_residual_block(damping, r, fine, k);
  st.restriction[l].restrict_sum(fine, rc, k);
  cycle_block(level + 1, rc, zc, k, ws);
  // u = A e into z, with the energy <e, u> into `step`, which then becomes
  // the step.
  a.laplacian_apply_prolonged_block(assignment, zc, z, step, k);
  // The gain <zc, rc> of each column: bitwise la::dot of the two columns.
  with_block_width(k, [&]<std::size_t K>() {
    for_each_row<K, 1>(m, uk, gain,
                       [&](std::size_t, std::size_t j, std::size_t i,
                           double* acc) { acc[j] += zc[i] * rc[i]; });
  });
  for (std::size_t j = 0; j < uk; ++j) {
    step[j] = energy_optimal_step(gain[j], step[j], attribution);
  }
  // Post-smoothing from x = z0 + step e. By linearity A x = (r - s) + step
  // u, so the sweep x + w D^-1 (r - A x) = x + w D^-1 (s - step u) needs no
  // further SpMV; it overwrites u in place.
  with_block_width(k, [&]<std::size_t K>() {
    for_each_row<K>(n, uk, {}, [&](std::size_t v, std::size_t j,
                                   std::size_t i, double*) {
      const double d = damping[v];
      const auto c = static_cast<std::size_t>(assignment[v]);
      const double x = d * r[i] + step[j] * zc[c * block_stride<K>(uk) + j];
      z[i] = x + d * (fine[i] - step[j] * z[i]);
    });
  });
}

void MultilevelSteinerSolver::coarsest_solve(std::span<const double> r,
                                             std::span<double> z, int k,
                                             Workspace& ws) const {
  const State& st = *state_;
  const auto uk = static_cast<std::size_t>(k);
  const std::size_t n = r.size() / uk;
  if (st.coarsest_solver == nullptr) {
    la::fill(z, 0.0);
    return;
  }
  // The direct solve takes one contiguous column at a time.
  const std::span<double> rj = take(ws.coarsest_r, n);
  const std::span<double> zj = take(ws.coarsest_z, n);
  for (std::size_t j = 0; j < uk; ++j) {
    for (std::size_t v = 0; v < n; ++v) rj[v] = r[v * uk + j];
    st.coarsest_solver->apply(rj, zj);
    for (std::size_t v = 0; v < n; ++v) z[v * uk + j] = zj[v];
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
    coarsest_solve(r, z, k, ws);
    return;
  }
  ws.levels.resize(static_cast<std::size_t>(st.hierarchy.num_levels()));
  cycle_block(0, r, z, k, ws);
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
