#include "hicond/obs/report.hpp"

#include <algorithm>
#include <cstdio>

#include "hicond/obs/json.hpp"
#include "hicond/partition/decomposition.hpp"
#include "hicond/util/stats.hpp"
#include "hicond/util/timer.hpp"

namespace hicond::obs {

namespace {

/// Closure-conductance distribution of one level's decomposition: certified
/// lower bounds per cluster, summarized as min / p50 / p90.
void fill_phi_distribution(const Graph& g, const Decomposition& d,
                           LevelReport& out) {
  const std::vector<ConductanceBounds> bounds =
      cluster_conductance_bounds(g, d);
  if (bounds.empty()) return;
  std::vector<double> lower;
  lower.reserve(bounds.size());
  bool all_exact = true;
  for (const ConductanceBounds& b : bounds) {
    // Single-vertex closures have no cuts (infinite conductance); clamp so
    // the summary stays finite and JSON-representable.
    lower.push_back(std::min(b.lower, 1.0));
    all_exact = all_exact && b.exact;
  }
  out.phi_min = *std::min_element(lower.begin(), lower.end());
  out.phi_p50 = percentile(lower, 50.0);
  out.phi_p90 = percentile(lower, 90.0);
  out.phi_exact = all_exact;
}

void append_level_json(JsonWriter& w, const LevelReport& lv) {
  w.begin_object();
  w.kv("level", lv.level);
  w.kv("vertices", static_cast<std::int64_t>(lv.vertices));
  w.kv("edges", lv.edges);
  w.kv("clusters", static_cast<std::int64_t>(lv.clusters));
  w.kv("reduction", lv.reduction);
  w.kv("build_seconds", lv.build_seconds);
  w.kv("phi_min", lv.phi_min);
  w.kv("phi_p50", lv.phi_p50);
  w.kv("phi_p90", lv.phi_p90);
  w.kv("phi_exact", lv.phi_exact);
  w.kv("cut_fraction", lv.cut_fraction);
  w.kv("cycle_calls", lv.cycle_calls);
  w.kv("cycle_seconds", lv.cycle_seconds);
  w.kv("cycle_seconds_exclusive", lv.cycle_seconds_exclusive);
  w.kv("step_mean", lv.step_mean);
  w.kv("step_min", lv.step_min);
  w.kv("step_fallbacks", lv.step_fallbacks);
  w.end_object();
}

}  // namespace

SolverReport make_solver_report(const MultilevelSteinerSolver& solver) {
  const LaminarHierarchy& h = solver.hierarchy();
  SolverReport report;
  report.num_levels = h.num_levels();
  report.coarsest_vertices = h.coarsest.num_vertices();
  report.coarsest_edges = h.coarsest.num_edges();
  report.operator_complexity = solver.operator_complexity();
  if (!h.levels.empty()) {
    report.vertices = h.levels.front().graph.num_vertices();
    report.edges = h.levels.front().graph.num_edges();
  } else {
    report.vertices = h.coarsest.num_vertices();
    report.edges = h.coarsest.num_edges();
  }

  const std::vector<LevelCycleStats> cycle = solver.cycle_stats();
  HICOND_CHECK(cycle.size() ==
                   static_cast<std::size_t>(h.num_levels()) + 1,
               "cycle stats / hierarchy shape mismatch");
  for (int l = 0; l < h.num_levels(); ++l) {
    const HierarchyLevel& hl = h.levels[static_cast<std::size_t>(l)];
    LevelReport lv;
    lv.level = l;
    lv.vertices = hl.graph.num_vertices();
    lv.edges = hl.graph.num_edges();
    lv.clusters = hl.decomposition.num_clusters;
    lv.reduction = hl.decomposition.reduction_factor();
    lv.build_seconds = hl.build_seconds;
    lv.cut_fraction = cut_weight_fraction(hl.graph, hl.decomposition);
    fill_phi_distribution(hl.graph, hl.decomposition, lv);
    const LevelCycleStats& inclusive = cycle[static_cast<std::size_t>(l)];
    const LevelCycleStats& child = cycle[static_cast<std::size_t>(l) + 1];
    lv.cycle_calls = inclusive.calls;
    lv.cycle_seconds = inclusive.seconds;
    lv.cycle_seconds_exclusive =
        std::max(0.0, inclusive.seconds - child.seconds);
    lv.step_mean = inclusive.step_mean();
    lv.step_min = inclusive.step_min;
    lv.step_fallbacks = inclusive.step_fallbacks;
    report.levels.push_back(std::move(lv));
  }
  report.coarsest_calls = cycle.back().calls;
  report.coarsest_seconds = cycle.back().seconds;
  return report;
}

std::string SolverReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("vertices", static_cast<std::int64_t>(vertices));
  w.kv("edges", edges);
  w.kv("num_levels", num_levels);
  w.kv("coarsest_vertices", static_cast<std::int64_t>(coarsest_vertices));
  w.kv("coarsest_edges", coarsest_edges);
  w.kv("operator_complexity", operator_complexity);
  w.kv("setup_seconds", setup_seconds);
  w.key("levels").begin_array();
  for (const LevelReport& lv : levels) append_level_json(w, lv);
  w.end_array();
  w.kv("coarsest_calls", coarsest_calls);
  w.kv("coarsest_seconds", coarsest_seconds);
  w.key("solve").begin_object();
  w.kv("solves", solves);
  w.kv("iterations", iterations);
  w.kv("converged", converged);
  w.kv("final_relative_residual", final_relative_residual);
  w.kv("solve_seconds", solve_seconds);
  w.key("residual_history").values(residual_history);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string SolverReport::to_text() const {
  std::string out;
  char buf[256];
  auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
    out += '\n';
  };
  line("SolverReport: n=%d m=%lld, %d levels + coarsest (n=%d), "
       "operator complexity %.3f",
       vertices, static_cast<long long>(edges), num_levels,
       coarsest_vertices, operator_complexity);
  line("setup %s, %d solve(s) in %s", format_duration(setup_seconds).c_str(),
       solves, format_duration(solve_seconds).c_str());
  line("%-5s %10s %10s %7s %8s %8s %8s %10s %12s %9s %9s %9s", "level",
       "vertices", "clusters", "rho", "phi_min", "phi_p50", "cut", "build",
       "vcycle(ex)", "step_mean", "step_min", "fallbacks");
  for (const LevelReport& lv : levels) {
    line("%-5d %10d %10d %7.2f %8.4f %8.4f %8.4f %10s %12s %9.4f %9.4f %9lld",
         lv.level, lv.vertices, lv.clusters, lv.reduction, lv.phi_min,
         lv.phi_p50, lv.cut_fraction, format_duration(lv.build_seconds).c_str(),
         format_duration(lv.cycle_seconds_exclusive).c_str(), lv.step_mean,
         lv.step_min, static_cast<long long>(lv.step_fallbacks));
  }
  line("coarse %9d %10s %7s %8s %8s %8s %10s %12s", coarsest_vertices, "-",
       "-", "-", "-", "-", "-", format_duration(coarsest_seconds).c_str());
  if (solves > 0) {
    line("last solve: %d iterations, converged=%s, relative residual %.3e",
         iterations, converged ? "yes" : "no", final_relative_residual);
  }
  return out;
}

}  // namespace hicond::obs
