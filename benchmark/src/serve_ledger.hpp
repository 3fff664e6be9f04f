// Per-layer ledger of the serving stack: the same request lines replayed
// one at a time through an in-process ServerCore (submit / step / solve /
// wire split) and through an idle routed deployment (the router hop).
#pragma once

#include <string>
#include <vector>

#include "deployment.hpp"
#include "harness.hpp"

namespace bench {

struct ServeReplay {
  std::vector<std::string> loads;     ///< load bodies, sent first
  std::vector<std::string> warmups;   ///< bodies sent before timing starts
  std::vector<std::string> requests;  ///< bodies replayed one at a time
  std::string socket_dir;
  /// Take serve.cache_* and shard.busiest_worker_share from the replay
  /// deployment (workloads without a deployment of their own).
  bool deployment_stats = false;
};

/// serve.* (in-process ServerCore), shard.hop_p50_ms (idle router) and the
/// routed ledger; returns the idle routed round trip's median in ms. The
/// replay and the deployment it starts run pinned to one processor.
double serve_ledger(const ServeReplay& replay, Report& report);

/// Read a deployment's `stats` and report serve.cache_hit_frac,
/// serve.cache_evictions and shard.busiest_worker_share, plus the router's
/// shed and retry counts (each shed request is a failed operation).
void report_deployment_stats(Deployment& deployment, Report& report);

}  // namespace bench
