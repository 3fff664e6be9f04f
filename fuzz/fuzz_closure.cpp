// Fuzz target: closure_conductance against its closure-graph oracle. Decodes
// bytes into a graph of at most 10 vertices with weights spanning 1e-6 to
// 1e6, plus a member mask. Contract: the cluster-only evaluation equals the
// minimum sparsity over every cut of the explicitly built closure graph (up
// to rounding), is exactly 0 for a cluster that is disconnected among its
// members, and +infinity when the closure has no cuts.
//
// The oracle evaluates each cut with cut_sparsity, oriented so that the
// flagged side is the one of smaller volume: cut_sparsity derives the other
// side's volume by subtraction from the total, which is exact enough only
// when the subtracted side is the smaller one. Every other sum is a direct
// sum of positive terms, so the two sides agree to a few ulps whatever the
// weight spread.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "fuzz_util.hpp"
#include "hicond/graph/builder.hpp"
#include "hicond/graph/closure.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/util/float_eq.hpp"

namespace {

/// Closures up to this many vertices are checked against the oracle
/// (2^16 cuts); larger ones only have their result range checked.
constexpr hicond::vidx kOracleMaxVertices = 16;

double oracle(const hicond::Graph& closure) {
  const auto n = static_cast<std::size_t>(closure.num_vertices());
  double best = hicond::kInfiniteConductance;
  std::vector<char> in_s(n, 0);
  for (std::uint32_t mask = 1; mask + 1 < (1U << n); ++mask) {
    double vol_in = 0.0;
    double vol_out = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      in_s[v] = static_cast<char>((mask >> v) & 1U);
      (in_s[v] ? vol_in : vol_out) += closure.vol(static_cast<hicond::vidx>(v));
    }
    if (vol_in > vol_out) continue;  // the complement mask covers this cut
    best = std::min(best, hicond::cut_sparsity(closure, in_s));
  }
  return best;
}

[[noreturn]] void fail(const char* what, double got, double want) {
  std::cerr << "fuzz_closure: " << what << ": closure_conductance " << got
            << ", oracle " << want << "\n";
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  hicond::fuzz::ByteReader r(data, size);
  const auto n = static_cast<hicond::vidx>(1 + r.u8() % 10);
  auto mask = static_cast<std::uint32_t>(r.u16()) & ((1U << n) - 1U);
  if (mask == 0) mask = 1;  // clusters are non-empty
  const std::size_t edges = r.u8() % 46;

  hicond::GraphBuilder b(n);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<hicond::vidx>(r.u8() % n);
    const auto v = static_cast<hicond::vidx>(r.u8() % n);
    // Log-uniform over 12 orders of magnitude: 1e-6 ... 1e6.
    const double w = std::pow(10.0, -6.0 + 12.0 * r.u16() / 65535.0);
    if (u != v) b.add_edge(u, v, w);  // parallel edges merge (weights sum)
  }
  const hicond::Graph g = b.build();
  std::vector<hicond::vidx> cluster;
  for (hicond::vidx v = 0; v < n; ++v) {
    if ((mask >> v) & 1U) cluster.push_back(v);
  }

  const double got = hicond::closure_conductance(g, cluster);
  const hicond::Graph closure = hicond::closure_graph(g, cluster).graph;
  if (!hicond::is_connected(closure)) {
    if (!hicond::exact_zero(got)) fail("disconnected cluster", got, 0.0);
    return 0;
  }
  if (closure.num_vertices() < 2) {
    if (!std::isinf(got)) fail("closure without cuts", got, 0.0);
    return 0;
  }
  if (!(got > 0.0 && got <= 1.0)) fail("out of (0, 1]", got, 0.0);
  if (closure.num_vertices() <= kOracleMaxVertices) {
    const double want = oracle(closure);
    if (!(std::abs(got - want) <= 1e-12 * want)) fail("mismatch", got, want);
  }
  return 0;
}
