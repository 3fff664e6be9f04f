// Outside-in per-layer ledger of the library on one graph: every number is
// a timed call into a public function of graph/, partition/, tree/,
// precond/, la/, solver or dynamic/ (replaying what the facade does
// internally), so the parts can be checked against the facade's total.
#pragma once

#include "harness.hpp"
#include "hicond/solver.hpp"
#include "inputs.hpp"

namespace bench {

/// A graph the ledgers run on, with the default LaplacianSolverOptions.
struct LedgerGraph {
  const hicond::Graph* graph = nullptr;
  GridShape shape;  ///< for the update strokes of the dynamic ledger
  std::uint64_t seed = 1;
};

/// graph.*, partition.*, tree.*, precond.*, la.*, solver.* and
/// bench.trace_overhead_frac at library_threads() OpenMP threads (plus the
/// single-thread baseline). The ledger's first build is the process's
/// first, solver.first_setup_s. On graphs above 200 000 vertices it repeats
/// the MST, the solves and the blocked iterations fewer times, so that a
/// traced run of the 10^6-vertex volume takes about 25 s.
void library_ledger(const LedgerGraph& in, Report& report);

/// dynamic.* and serve.update_entry_*: a chain of local update strokes
/// applied through HierarchyCache::update_entry (repair allowed) against a
/// forced cold rebuild of the same graph, at one OpenMP thread as a
/// deployed worker runs.
void dynamic_ledger(const LedgerGraph& in, Report& report);

}  // namespace bench
