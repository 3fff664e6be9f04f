// The benchmark's workloads (see benchmark/README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace bench {

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;   ///< length of the measured phase(s)
  bool trace = false;      ///< per-layer ledger run instead of end-to-end
  bool quick = false;      ///< tiny inputs and 1 s phases (test only)
  std::string work_dir;    ///< snapshots and worker sockets of this run
};

/// Each fills `report` with the end-to-end metrics (trace off) or the
/// per-layer ledger (trace on), counting every operation it attempts.
void run_paper_oct3d_1m(const RunContext& ctx, Report& report);
void run_batch_oct3d_110k(const RunContext& ctx, Report& report);
void run_serve_vectors_routed(const RunContext& ctx, Report& report);
void run_serve_update_stream(const RunContext& ctx, Report& report);

/// Machine reference value measured in every traced run.
void report_triad(Report& report);

}  // namespace bench
