// Inputs the workloads generate from --seed: grid-shaped graphs, request
// lines, Zipf popularity and edge-update strokes. The program under test
// only ever sees what these produce (snapshots and NDJSON lines).
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hicond/dynamic/update.hpp"
#include "hicond/graph/graph.hpp"
#include "hicond/util/rng.hpp"

namespace bench {

/// Dimensions of a 2D (nz == 1) or 3D grid graph built by hicond::gen.
struct GridShape {
  hicond::vidx nx = 1;
  hicond::vidx ny = 1;
  hicond::vidx nz = 1;

  [[nodiscard]] hicond::vidx vertices() const { return nx * ny * nz; }
};

/// Request bodies (JSON objects without an "id"). with_id() splices one in.
[[nodiscard]] std::string load_body(const std::string& path);
[[nodiscard]] std::string seeded_solve_body(const std::string& fp,
                                            std::uint64_t rhs_seed);
[[nodiscard]] std::string seeded_batch_body(const std::string& fp, int k,
                                            std::uint64_t rhs_seed);
/// Explicit right-hand side(s), solution(s) returned.
[[nodiscard]] std::string vector_solve_body(const std::string& fp,
                                            std::span<const double> b);
[[nodiscard]] std::string vector_batch_body(
    const std::string& fp, const std::vector<const std::vector<double>*>& rhs);
[[nodiscard]] std::string update_body(
    const std::string& fp, std::span<const hicond::dynamic::EdgeUpdate> updates);
[[nodiscard]] std::string with_id(std::string_view body, std::int64_t id);

/// The "id" a response echoes, read from its leading bytes without parsing
/// the (possibly megabyte-sized) rest; -1 when absent.
[[nodiscard]] std::int64_t response_id(std::string_view line);

/// Zipf(1) popularity over items 0..n-1; item i has rank i.
class ZipfPicker {
 public:
  explicit ZipfPicker(int n);
  [[nodiscard]] int pick(hicond::Rng& rng) const;
  [[nodiscard]] double probability(int item) const;

 private:
  std::vector<double> cdf_;
};

/// Edge-update batches on a grid-shaped graph that never disconnect it:
/// grid edges are only reweighted, and only chords this generator inserted
/// are ever deleted.
class StrokeGenerator {
 public:
  StrokeGenerator(GridShape shape, std::uint64_t seed);

  /// 1-8 edits: reweights of grid edges plus chord inserts/deletes, weights
  /// log-uniform over [1e-3, 10]. The weakest edits cut a cluster's closure
  /// conductance below the repair floor, so some strokes leave dirty
  /// clusters for the repair to re-cluster.
  [[nodiscard]] std::vector<hicond::dynamic::EdgeUpdate> local_stroke();
  /// Weaken `fraction` of all grid edges (distinct edges) to log-uniform
  /// weights over [1e-3, 0.1]: enough dirty clusters that repair declines
  /// and the update takes the cold path.
  [[nodiscard]] std::vector<hicond::dynamic::EdgeUpdate> bulk_reweight(
      double fraction);

 private:
  [[nodiscard]] std::pair<hicond::vidx, hicond::vidx> random_grid_edge();
  /// 10^uniform(-3, max_log10).
  [[nodiscard]] double edit_weight(double max_log10);

  GridShape shape_;
  hicond::Rng rng_;
  std::set<std::pair<hicond::vidx, hicond::vidx>> chords_;
};

}  // namespace bench
