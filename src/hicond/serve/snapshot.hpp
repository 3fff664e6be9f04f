// Versioned, checksummed binary graph snapshots.
//
// The text formats in graph/io are fine for interchange but cost a full
// parse per load; a serving process wants to mmap-or-stream the CSR arrays
// back in one pass and to key caches by *content*, not by path. A snapshot
// is the little-endian framing below around the Graph's CSR arrays, closed
// by an FNV-1a checksum so bit rot and truncation are detected before
// Graph::from_csr ever sees the data:
//
//   magic   "HSNP"                      4 bytes
//   u32     format version (= 1)
//   u64     n            vertex count
//   u64     arcs         directed arc count (2m)
//   u32     section count (= 3)
//   3 x  { u32 tag; u64 byte_length; payload }
//          tag 1: offsets  (n + 1) x i64
//          tag 2: targets  arcs x i32
//          tag 3: weights  arcs x f64 (IEEE-754 bit patterns)
//   u64     FNV-1a 64 checksum of every preceding byte
//
// The *fingerprint* is independent of this framing: it hashes the canonical
// content (n, arcs, offsets, targets, weight bits), so it can be computed
// from an in-memory Graph without serializing and is the cache key of
// serve/cache.hpp. Two graphs have equal fingerprints iff their CSR arrays
// are bitwise identical.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "hicond/graph/graph.hpp"

namespace hicond::serve {

inline constexpr std::uint32_t kSnapshotVersion = 1;

/// FNV-1a 64-bit running hash (offset basis when starting fresh).
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Fold `len` bytes into a running FNV-1a 64 hash.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                                  std::size_t len) noexcept;

/// Content hash of a graph's CSR arrays (framing-independent; the snapshot
/// cache key). Equal iff the graphs are bitwise-identical CSR structures.
[[nodiscard]] std::uint64_t graph_fingerprint(const Graph& g);

/// 16-hex-digit lowercase rendering of a fingerprint (the wire form used in
/// serve requests and `hicond_tool fingerprint`).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

/// Parse the 16-hex-digit form back; throws invalid_argument_error on
/// malformed input.
[[nodiscard]] std::uint64_t parse_fingerprint(const std::string& hex);

void write_snapshot(std::ostream& out, const Graph& g);
void write_snapshot_file(const std::string& path, const Graph& g);

/// Read a snapshot. Throws invalid_argument_error naming the violation on
/// truncation, bad magic/version, corrupt section framing, or checksum
/// mismatch; the decoded arrays then pass through Graph::from_csr, so a
/// snapshot that frames a structurally invalid graph is also rejected.
[[nodiscard]] Graph read_snapshot(std::istream& in);
[[nodiscard]] Graph read_snapshot_file(const std::string& path);

/// Extension-dispatched graph reader shared by the worker server and the
/// router: `.hsnap` loads a snapshot, `.metis`/`.graph` the METIS format,
/// anything else a weighted edge list (graph/io.hpp).
[[nodiscard]] Graph read_graph_auto(const std::string& path);

}  // namespace hicond::serve
