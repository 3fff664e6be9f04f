#include "hicond/serve/batch.hpp"

#include <algorithm>

#include "hicond/serve/snapshot.hpp"
#include "hicond/util/timer.hpp"

namespace hicond::serve {

std::uint64_t solution_fingerprint(std::span<const double> x) {
  return fnv1a(kFnvOffsetBasis, x.data(), x.size() * sizeof(double));
}

BatchSolveResult batch_solve(const LaplacianSolver& solver,
                             const std::vector<std::vector<double>>& rhs) {
  const auto n = static_cast<std::size_t>(solver.graph().num_vertices());
  const int k = static_cast<int>(rhs.size());
  HICOND_CHECK(k >= 1, "batch_solve needs at least one right-hand side");
  for (const auto& b : rhs) {
    HICOND_CHECK(b.size() == n, "rhs length does not match the graph");
  }

  // Pack column-major: column j is right-hand side j.
  std::vector<double> b_block(static_cast<std::size_t>(k) * n);
  for (int j = 0; j < k; ++j) {
    std::copy(rhs[static_cast<std::size_t>(j)].begin(),
              rhs[static_cast<std::size_t>(j)].end(),
              b_block.begin() + static_cast<std::ptrdiff_t>(
                                    static_cast<std::size_t>(j) * n));
  }
  std::vector<double> x_block(b_block.size(), 0.0);

  const Timer timer;
  BatchSolveResult result;
  result.stats = solver.solve_batch(b_block, x_block, k);
  result.solve_seconds = timer.seconds();

  result.x.reserve(static_cast<std::size_t>(k));
  result.solution_hash.reserve(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    const auto begin = x_block.begin() + static_cast<std::ptrdiff_t>(
                                             static_cast<std::size_t>(j) * n);
    result.x.emplace_back(begin, begin + static_cast<std::ptrdiff_t>(n));
    result.solution_hash.push_back(solution_fingerprint(result.x.back()));
  }
  return result;
}

}  // namespace hicond::serve
