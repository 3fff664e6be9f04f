#include "hicond/partition/hierarchy.hpp"

#include "hicond/graph/quotient.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/timer.hpp"

namespace hicond {

Decomposition LaminarHierarchy::flatten() const {
  HICOND_CHECK(!levels.empty(), "empty hierarchy");
  Decomposition acc = levels.front().decomposition;
  for (std::size_t l = 1; l < levels.size(); ++l) {
    acc = compose(acc, levels[l].decomposition);
  }
  return acc;
}

LaminarHierarchy build_hierarchy(const Graph& g,
                                 const HierarchyOptions& opt) {
  HICOND_CHECK(opt.coarsest_size >= 1, "coarsest_size must be >= 1");
  HICOND_SPAN("hierarchy.build");
  // Resolve the contraction backend once; throws on an unknown name before
  // any work happens.
  (void)partition::get_backend(opt.contraction.backend);
  LaminarHierarchy h;
  Graph current = g;
  partition::BackendOptions contraction = opt.contraction;
  for (int level = 0; level < opt.max_levels; ++level) {
    if (current.num_vertices() <= opt.coarsest_size) break;
    HICOND_SPAN("hierarchy.level");
    const Timer level_timer;
    // Vary the perturbation seed per level so contractions decorrelate.
    contraction.seed = opt.contraction.seed + static_cast<std::uint64_t>(level);
    Decomposition level_decomp =
        partition::checked_decompose(current, contraction);
    if (opt.refine) {
      level_decomp =
          refine_decomposition(current, level_decomp, opt.refinement)
              .decomposition;
    }
    const vidx m = level_decomp.num_clusters;
    if (m >= current.num_vertices()) break;  // no progress (edgeless graph)
    Graph next = quotient_graph(current, level_decomp.assignment);
    HICOND_RUN_VALIDATION(expensive, level_decomp.validate(current));
    const double level_seconds = level_timer.seconds();
    h.levels.push_back(
        {std::move(current), std::move(level_decomp), level_seconds});
    current = std::move(next);
  }
  h.coarsest = std::move(current);
  HICOND_RUN_VALIDATION(expensive, h.coarsest.validate());
  return h;
}

}  // namespace hicond
