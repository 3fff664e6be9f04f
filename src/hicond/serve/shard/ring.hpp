// Consistent-hash ring: fingerprint -> worker placement for the router.
//
// The router shards graphs across workers by content fingerprint so each
// hierarchy is built (and cached) exactly where its traffic lands. The
// standard consistent-hashing construction is used: every worker owns
// `vnodes_per_worker` pseudo-random points on a 64-bit ring (FNV-1a of a
// worker/vnode tag), and a fingerprint maps to the owner of the first point
// clockwise from its own hash. Properties the tests pin:
//
//   * deterministic -- placement depends only on (workers, vnodes,
//     fingerprint), never on request order or time, so a restarted router
//     reproduces the same shard map;
//   * spread -- with enough vnodes every worker owns a comparable share of
//     fingerprint space;
//   * stability -- adding one worker moves only ~1/N of the keyspace; the
//     placements of keys that stay put are unchanged.
#pragma once

#include <cstdint>
#include <vector>

namespace hicond::serve::shard {

class HashRing {
 public:
  /// A ring over `workers` workers with `vnodes_per_worker` points each.
  /// Both must be at least 1.
  explicit HashRing(int workers, int vnodes_per_worker = 64);

  [[nodiscard]] int vnodes_per_worker() const noexcept { return vnodes_; }

  /// Owning worker for a fingerprint.
  [[nodiscard]] int primary(std::uint64_t fingerprint) const;

 private:
  struct Point {
    std::uint64_t hash;
    std::int32_t worker;
  };

  std::vector<Point> points_;  ///< sorted by hash
  int vnodes_;
};

}  // namespace hicond::serve::shard
