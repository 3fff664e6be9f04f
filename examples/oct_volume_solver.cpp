// Solve a Laplacian system derived from a synthetic 3D OCT-like scan
// (Section 3.2's application domain): large global weight variation plus
// speckle noise, solved with the full multilevel Steiner hierarchy and
// compared against two-level Steiner, subgraph (Vaidya) and Jacobi
// preconditioning.
//
//   ./oct_volume_solver [side] [field_orders]
#include <cstdio>
#include <cstdlib>

#include "hicond/graph/generators.hpp"
#include "hicond/la/cg.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/multilevel.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/precond/subgraph.hpp"
#include "hicond/util/rng.hpp"
#include "hicond/util/timer.hpp"

namespace {

struct Row {
  const char* name;
  int iterations;
  double seconds;
  bool converged;
};

Row solve(const char* name, const hicond::Graph& g,
          const hicond::LinearOperator& m, bool flexible) {
  using namespace hicond;
  const vidx n = g.num_vertices();
  Rng rng(11);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const CgOptions opt{.max_iterations = 5000, .rel_tolerance = 1e-8,
                      .project_constant = true};
  Timer t;
  const SolveStats stats = flexible ? flexible_pcg_solve(a, m, b, x, opt)
                                    : pcg_solve(a, m, b, x, opt);
  return {name, stats.iterations, t.seconds(), stats.converged};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hicond;
  const vidx side = argc > 1 ? static_cast<vidx>(std::atoi(argv[1])) : 20;
  const double orders = argc > 2 ? std::atof(argv[2]) : 3.0;

  Timer t;
  const Graph g = gen::oct_volume(
      side, side, side, {.field_orders = orders, .speckle_sigma = 0.5}, 3);
  const vidx n = g.num_vertices();
  std::printf("synthetic OCT volume %dx%dx%d: n=%d, m=%lld, weights span "
              "%.1f orders of magnitude (+ speckle), built in %s\n",
              side, side, side, n, static_cast<long long>(g.num_edges()),
              orders, format_duration(t.seconds()).c_str());

  // Multilevel Steiner hierarchy (recursive Section 3.1 contraction).
  t.reset();
  const LaminarHierarchy hierarchy = build_hierarchy(
      g, {.contraction = {.max_cluster_size = 4}, .coarsest_size = 200});
  std::printf("hierarchy (%d levels + coarsest %d) built in %s; levels:",
              hierarchy.num_levels(), hierarchy.coarsest.num_vertices(),
              format_duration(t.seconds()).c_str());
  for (const auto& lv : hierarchy.levels) {
    std::printf(" %d", lv.graph.num_vertices());
  }
  std::printf(" %d\n", hierarchy.coarsest.num_vertices());
  const MultilevelSteinerSolver ml = MultilevelSteinerSolver::build(hierarchy);

  // Two-level Steiner.
  const FixedDegreeResult fd =
      fixed_degree_decomposition(g, {.max_cluster_size = 4});
  const SteinerPreconditioner two_level =
      SteinerPreconditioner::build(g, fd.decomposition);

  // Subgraph (Vaidya) preconditioner.
  SubgraphPrecondOptions sub_opt;
  sub_opt.target_subtrees = std::max<vidx>(2, n / 32);
  const SubgraphPreconditioner subgraph =
      SubgraphPreconditioner::build(g, sub_opt);

  auto jacobi = [&g](std::span<const double> r, std::span<double> z) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      z[i] = g.vol(static_cast<vidx>(i)) > 0.0
                 ? r[i] / g.vol(static_cast<vidx>(i))
                 : 0.0;
    }
  };

  std::printf("\n%-22s %12s %12s\n", "preconditioner", "iterations", "time");
  for (const Row& row : {
           solve("jacobi", g, jacobi, false),
           solve("subgraph (vaidya)", g, subgraph.as_operator(), false),
           solve("steiner two-level", g, two_level.as_operator(), false),
           solve("steiner multilevel", g, ml.as_operator(), true),
       }) {
    std::printf("%-22s %12d %12s%s\n", row.name, row.iterations,
                format_duration(row.seconds).c_str(),
                row.converged ? "" : "  (not converged)");
  }
  return 0;
}
