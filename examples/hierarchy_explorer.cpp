// Explore the laminar hierarchy produced by recursive [phi, rho]
// decompositions (Section 1.1 / Remark 3): per-level sizes, reduction
// factors, decomposition quality, and the resulting multilevel solver's
// operator complexity.
//
//   ./hierarchy_explorer [family] [size]
//     family: grid2d | grid3d | oct | planar | regular   (default grid2d)
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "hicond/graph/generators.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/multilevel.hpp"
#include "hicond/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hicond;
  const char* family = argc > 1 ? argv[1] : "grid2d";
  const vidx size = argc > 2 ? static_cast<vidx>(std::atoi(argv[2])) : 64;

  Graph g;
  if (std::strcmp(family, "grid2d") == 0) {
    g = gen::grid2d(size, size, gen::WeightSpec::uniform(1.0, 2.0), 3);
  } else if (std::strcmp(family, "grid3d") == 0) {
    g = gen::grid3d(size, size, size, gen::WeightSpec::uniform(1.0, 2.0), 3);
  } else if (std::strcmp(family, "oct") == 0) {
    g = gen::oct_volume(size, size, size, {.field_orders = 3.0}, 3);
  } else if (std::strcmp(family, "planar") == 0) {
    g = gen::random_planar_triangulation(
        size * size, gen::WeightSpec::uniform(1.0, 4.0), 3);
  } else if (std::strcmp(family, "regular") == 0) {
    g = gen::random_regular(size * size, 4, gen::WeightSpec::uniform(1.0, 2.0),
                            3);
  } else {
    std::fprintf(stderr, "unknown family '%s'\n", family);
    return 1;
  }
  std::printf("family=%s: n=%d, m=%lld, max degree %d\n", family,
              g.num_vertices(), static_cast<long long>(g.num_edges()),
              g.max_degree());

  Timer t;
  const LaminarHierarchy h = build_hierarchy(
      g, {.contraction = {.max_cluster_size = 4}, .coarsest_size = 64});
  std::printf("hierarchy built in %s\n\n", format_duration(t.seconds()).c_str());

  std::printf("%5s %10s %12s %8s %10s %10s %10s\n", "level", "n", "m", "rho",
              "phi_lo", "phi_hi", "gamma");
  for (int l = 0; l < h.num_levels(); ++l) {
    const auto& lv = h.levels[static_cast<std::size_t>(l)];
    // Clusters of the size cap's order are scored exactly, so phi_lo and
    // phi_hi agree.
    const DecompositionStats stats =
        evaluate_decomposition(lv.graph, lv.decomposition);
    std::printf("%5d %10d %12lld %8.2f %10.4f %10.4f %10.4f\n", l,
                lv.graph.num_vertices(),
                static_cast<long long>(lv.graph.num_edges()),
                lv.decomposition.reduction_factor(), stats.min_phi_lower,
                stats.min_phi_upper, stats.min_gamma);
  }
  std::printf("%5s %10d %12lld\n", "coarse", h.coarsest.num_vertices(),
              static_cast<long long>(h.coarsest.num_edges()));

  const MultilevelSteinerSolver solver = MultilevelSteinerSolver::build(h);
  std::printf("\nmultilevel solver: %d levels, operator complexity %.3f\n",
              solver.num_levels(), solver.operator_complexity());
  return 0;
}
