#include "hicond/partition/refinement.hpp"

#include <algorithm>
#include <unordered_map>

#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/util/float_eq.hpp"

namespace hicond {

RefinementResult refine_decomposition(const Graph& g, const Decomposition& d,
                                      const RefinementOptions& opt) {
  d.validate(g);
  HICOND_CHECK(opt.gamma_floor >= 0.0 && opt.gamma_floor <= 1.0,
               "gamma_floor must be in [0, 1]");
  HICOND_CHECK(opt.max_rounds >= 0, "max_rounds must be >= 0");
  const vidx n = g.num_vertices();
  RefinementResult result;
  std::vector<vidx> assignment = d.assignment;

  std::unordered_map<vidx, double> share;
  std::vector<vidx> touched;  // cluster ids present in `share`, sorted below
  for (int round = 0; round < opt.max_rounds; ++round) {
    vidx moves_this_round = 0;
    for (vidx v = 0; v < n; ++v) {
      if (g.vol(v) <= 0.0) continue;
      share.clear();
      touched.clear();
      const auto nbrs = g.neighbors(v);
      const auto ws = g.weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const auto [it, inserted] = share.try_emplace(
            assignment[static_cast<std::size_t>(nbrs[i])], 0.0);
        it->second += ws[i];
        if (inserted) touched.push_back(it->first);
      }
      const vidx own = assignment[static_cast<std::size_t>(v)];
      const auto own_it = share.find(own);
      const double own_share = own_it != share.end() ? own_it->second : 0.0;
      if (own_share >= opt.gamma_floor * g.vol(v)) continue;
      // Argmax over the touched clusters in ascending-id order (never in
      // unordered_map order): ties on exactly-equal shares pick the lowest
      // cluster id, so the winner is the same on every run and platform.
      std::sort(touched.begin(), touched.end());
      vidx best = own;
      double best_share = own_share;
      for (const vidx c : touched) {
        const double w = share.at(c);
        if (w > best_share || (exactly_equal(w, best_share) && c < best)) {
          best_share = w;
          best = c;
        }
      }
      if (best != own && best_share > own_share) {
        assignment[static_cast<std::size_t>(v)] = best;
        ++moves_this_round;
      }
    }
    result.moves += moves_this_round;
    result.rounds = round + 1;
    if (moves_this_round == 0) break;
  }

  // Re-label: every connected piece of every (possibly split or emptied)
  // cluster becomes its own compact cluster id.
  std::vector<vidx> relabeled(static_cast<std::size_t>(n), -1);
  vidx next = 0;
  std::vector<vidx> stack;
  for (vidx s = 0; s < n; ++s) {
    if (relabeled[static_cast<std::size_t>(s)] != -1) continue;
    const vidx cluster = assignment[static_cast<std::size_t>(s)];
    const vidx id = next++;
    relabeled[static_cast<std::size_t>(s)] = id;
    stack.push_back(s);
    while (!stack.empty()) {
      const vidx v = stack.back();
      stack.pop_back();
      for (vidx u : g.neighbors(v)) {
        if (relabeled[static_cast<std::size_t>(u)] == -1 &&
            assignment[static_cast<std::size_t>(u)] == cluster) {
          relabeled[static_cast<std::size_t>(u)] = id;
          stack.push_back(u);
        }
      }
    }
  }
  result.decomposition.assignment = std::move(relabeled);
  result.decomposition.num_clusters = next;
  HICOND_RUN_VALIDATION(expensive, result.decomposition.validate(g));
  return result;
}

}  // namespace hicond
