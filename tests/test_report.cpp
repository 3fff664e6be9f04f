// Tests for obs/report (LaplacianSolver round-trip: the report must be
// consistent with the hierarchy it describes).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/obs/report.hpp"
#include "hicond/solver.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

// ---------------------------------------------------------------------------
// SolverReport round-trip
// ---------------------------------------------------------------------------

class SolverReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = gen::grid2d(32, 32, gen::WeightSpec::uniform(1.0, 2.0), 11);
    solver_ = std::make_unique<LaplacianSolver>(
        graph_, LaplacianSolverOptions{.hierarchy = {.coarsest_size = 64}});
    const auto n = static_cast<std::size_t>(graph_.num_vertices());
    b_.assign(n, 0.0);
    Rng rng(17);
    for (auto& v : b_) v = rng.uniform(-1.0, 1.0);
    la::remove_mean(b_);
    x_.assign(n, 0.0);
    stats_ = solver_->solve(b_, x_);
  }

  Graph graph_;
  std::unique_ptr<LaplacianSolver> solver_;
  std::vector<double> b_;
  std::vector<double> x_;
  SolveStats stats_;
};

TEST_F(SolverReportTest, HierarchyShapeIsConsistent) {
  const obs::SolverReport report = solver_->report();
  ASSERT_FALSE(report.levels.empty());
  EXPECT_EQ(report.vertices, graph_.num_vertices());
  EXPECT_EQ(report.edges, graph_.num_edges());
  EXPECT_EQ(static_cast<int>(report.levels.size()), report.num_levels);
  // Level l's clusters are level l+1's vertices; the last level contracts
  // into the coarsest graph.
  for (std::size_t l = 0; l + 1 < report.levels.size(); ++l) {
    EXPECT_EQ(report.levels[l].clusters, report.levels[l + 1].vertices);
  }
  EXPECT_EQ(report.levels.back().clusters, report.coarsest_vertices);
  EXPECT_EQ(report.levels.front().vertices, graph_.num_vertices());
  EXPECT_GE(report.operator_complexity, 1.0);
}

TEST_F(SolverReportTest, QualityDistributionIsSane) {
  const obs::SolverReport report = solver_->report();
  for (const obs::LevelReport& lv : report.levels) {
    EXPECT_GT(lv.phi_min, 0.0);
    EXPECT_LE(lv.phi_min, lv.phi_p50);
    EXPECT_LE(lv.phi_p50, lv.phi_p90);
    EXPECT_LE(lv.phi_p90, 1.0);
    EXPECT_GE(lv.cut_fraction, 0.0);
    EXPECT_LE(lv.cut_fraction, 1.0);
    EXPECT_GT(lv.reduction, 1.0);
  }
}

TEST_F(SolverReportTest, TimingAttributionIsConsistent) {
  const obs::SolverReport report = solver_->report();
  EXPECT_GT(report.setup_seconds, 0.0);
  EXPECT_EQ(report.solves, 1);
  EXPECT_GT(report.solve_seconds, 0.0);
  // One V-cycle per PCG iteration plus possibly the iteration-0 precondition
  // application; every level is visited once per cycle.
  ASSERT_FALSE(report.levels.empty());
  const std::int64_t cycles = report.levels.front().cycle_calls;
  EXPECT_GE(cycles, static_cast<std::int64_t>(stats_.iterations));
  for (const obs::LevelReport& lv : report.levels) {
    EXPECT_EQ(lv.cycle_calls, cycles);
    EXPECT_GE(lv.cycle_seconds, lv.cycle_seconds_exclusive);
  }
  EXPECT_EQ(report.coarsest_calls, cycles);
  // Exclusive times plus the coarsest solve account for the inclusive root.
  double exclusive_total = report.coarsest_seconds;
  for (const obs::LevelReport& lv : report.levels) {
    exclusive_total += lv.cycle_seconds_exclusive;
  }
  EXPECT_LE(exclusive_total,
            report.levels.front().cycle_seconds * 1.5 + 1e-6);
}

TEST_F(SolverReportTest, CoarseCorrectionStepsArePerLevel) {
  const obs::SolverReport report = solver_->report();
  ASSERT_FALSE(report.levels.empty());
  for (const obs::LevelReport& lv : report.levels) {
    EXPECT_GT(lv.step_min, 0.0);
    EXPECT_LE(lv.step_min, lv.step_mean);
    EXPECT_EQ(lv.step_fallbacks, 0);
  }
  // The last level's coarse system is solved exactly, so its step is 1.
  EXPECT_NEAR(report.levels.back().step_mean, 1.0, 1e-8);
  EXPECT_NEAR(report.levels.back().step_min, 1.0, 1e-8);
  const obs::JsonValue doc = obs::parse_json(report.to_json());
  const obs::JsonValue& top = doc.at("levels").array.front();
  EXPECT_EQ(top.at("step_mean").number, report.levels.front().step_mean);
  EXPECT_EQ(top.at("step_min").number, report.levels.front().step_min);
  EXPECT_EQ(top.at("step_fallbacks").number, 0.0);
  EXPECT_NE(report.to_text().find("step_mean"), std::string::npos);
}

TEST_F(SolverReportTest, ResidualTraceMatchesSolveAndConverges) {
  const obs::SolverReport report = solver_->report();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, stats_.iterations);
  ASSERT_EQ(report.residual_history.size(),
            static_cast<std::size_t>(stats_.iterations) + 1);
  // PCG residuals need not decrease strictly step-to-step, but convergence
  // means the final residual is far below the initial one.
  EXPECT_LT(report.residual_history.back(),
            report.residual_history.front() * 1e-6);
  // ... and the trace never blows up: no entry exceeds the initial residual
  // by more than a small factor.
  for (const double r : report.residual_history) {
    EXPECT_LE(r, report.residual_history.front() * 10.0);
  }
}

TEST_F(SolverReportTest, JsonRoundTrip) {
  const obs::SolverReport report = solver_->report();
  const obs::JsonValue doc = obs::parse_json(report.to_json());
  EXPECT_DOUBLE_EQ(doc.at("vertices").number,
                   static_cast<double>(graph_.num_vertices()));
  EXPECT_EQ(doc.at("levels").array.size(), report.levels.size());
  const obs::JsonValue& solve = doc.at("solve");
  EXPECT_DOUBLE_EQ(solve.at("iterations").number,
                   static_cast<double>(report.iterations));
  EXPECT_TRUE(solve.at("converged").boolean);
  EXPECT_EQ(solve.at("residual_history").array.size(),
            report.residual_history.size());
  // Text rendering mentions the shape too.
  const std::string text = report.to_text();
  EXPECT_NE(text.find("SolverReport"), std::string::npos);
  EXPECT_NE(text.find("coarse"), std::string::npos);
}

TEST_F(SolverReportTest, PhiIsExactOnEveryOctLevel) {
  // Fixed-degree clusters of a 3D volume have closures of more than 20
  // vertices at level 0 and more still on the denser quotients above, yet
  // each has at most 4 members, so every level's phi is exact.
  const LaplacianSolver solver(gen::oct_volume(12, 12, 12, {}, 7),
                               LaplacianSolverOptions{
                                   .hierarchy = {.coarsest_size = 64}});
  const obs::SolverReport report = solver.report();
  ASSERT_GE(report.levels.size(), 2u);
  for (const obs::LevelReport& lv : report.levels) {
    EXPECT_TRUE(lv.phi_exact) << "level " << lv.level;
    EXPECT_GT(lv.phi_min, 0.0) << "level " << lv.level;
  }
}

}  // namespace
}  // namespace hicond
