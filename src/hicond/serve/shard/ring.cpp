#include "hicond/serve/shard/ring.hpp"

#include <algorithm>
#include <string>

#include "hicond/serve/snapshot.hpp"
#include "hicond/util/common.hpp"

namespace hicond::serve::shard {

namespace {

/// Finalizer (splitmix64): FNV-1a is byte-sequential and avalanches poorly
/// on short, similar inputs like "worker-0/vnode-17" -- without this mix the
/// vnode points cluster and one worker can own a few percent of the ring
/// instead of ~1/N (the spread test pins this).
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t hash_bytes(const std::string& s) {
  return mix(fnv1a(kFnvOffsetBasis, s.data(), s.size()));
}

}  // namespace

HashRing::HashRing(int workers, int vnodes_per_worker)
    : vnodes_(vnodes_per_worker) {
  HICOND_CHECK(workers >= 1, "hash ring needs at least one worker");
  HICOND_CHECK(vnodes_per_worker >= 1,
               "hash ring needs at least one vnode per worker");
  points_.reserve(static_cast<std::size_t>(workers) *
                  static_cast<std::size_t>(vnodes_per_worker));
  for (int w = 0; w < workers; ++w) {
    for (int v = 0; v < vnodes_per_worker; ++v) {
      const std::string tag =
          "worker-" + std::to_string(w) + "/vnode-" + std::to_string(v);
      points_.push_back(Point{hash_bytes(tag), w});
    }
  }
  std::sort(points_.begin(), points_.end(), [](const Point& a,
                                               const Point& b) {
    // Tie-break on worker id so the order is total and deterministic even
    // in the (astronomically unlikely) event of a 64-bit hash collision.
    return a.hash != b.hash ? a.hash < b.hash : a.worker < b.worker;
  });
}

int HashRing::primary(std::uint64_t fingerprint) const {
  // Re-mix the fingerprint so ring position is decorrelated from the raw
  // content hash (which callers compare and log; placement should not be
  // readable off its low bits).
  const std::uint64_t h =
      mix(fnv1a(kFnvOffsetBasis, &fingerprint, sizeof fingerprint));
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t key) { return p.hash < key; });
  return (it == points_.end() ? points_.front() : *it).worker;
}

}  // namespace hicond::serve::shard
