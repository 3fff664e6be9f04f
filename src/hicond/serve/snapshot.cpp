#include "hicond/serve/snapshot.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "hicond/graph/io.hpp"
#include "hicond/util/common.hpp"

namespace hicond::serve {

namespace {

constexpr char kMagic[4] = {'H', 'S', 'N', 'P'};
constexpr std::uint32_t kSectionCount = 3;
constexpr std::uint32_t kTagOffsets = 1;
constexpr std::uint32_t kTagTargets = 2;
constexpr std::uint32_t kTagWeights = 3;

// Caps a hostile header before any allocation happens: 2^40 arcs would ask
// the reader for terabytes. Real graphs at this library's vidx scale stay
// far below both limits.
constexpr std::uint64_t kMaxVertices =
    static_cast<std::uint64_t>(std::numeric_limits<vidx>::max());
constexpr std::uint64_t kMaxArcs = std::uint64_t{1} << 36;

// --- little-endian primitives ---------------------------------------------

void put_bytes(std::string& out, const void* data, std::size_t len) {
  out.append(static_cast<const char*>(data), len);
}

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  put_bytes(out, b, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  put_bytes(out, b, 8);
}

/// Bounded cursor over the snapshot bytes; every read is length-checked so a
/// truncated stream throws instead of reading past the end.
struct Reader {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t len, const char* what) const {
    HICOND_CHECK(len <= size - pos,
                 std::string("snapshot truncated reading ") + what);
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return v;
  }
};

// The CSR arrays are written element-wise through the same little-endian
// helpers on every host; x86/aarch64 memcpy fast paths are not worth a
// byte-order trap on the odd big-endian machine.

void append_offsets(std::string& out, std::span<const eidx> offsets) {
  for (const eidx o : offsets) put_u64(out, static_cast<std::uint64_t>(o));
}

void append_targets(std::string& out, std::span<const vidx> targets) {
  for (const vidx t : targets) put_u32(out, static_cast<std::uint32_t>(t));
}

void append_weights(std::string& out, std::span<const double> weights) {
  for (const double w : weights) put_u64(out, std::bit_cast<std::uint64_t>(w));
}

std::string encode_snapshot(const Graph& g) {
  const vidx n = g.num_vertices();
  const auto arcs = static_cast<std::uint64_t>(g.num_arcs());
  std::vector<eidx> offsets(static_cast<std::size_t>(n) + 1);
  for (vidx v = 0; v < n; ++v) {
    offsets[static_cast<std::size_t>(v)] = g.arc_begin(v);
  }
  offsets[static_cast<std::size_t>(n)] = g.num_arcs();

  std::string out;
  out.reserve(64 + offsets.size() * 8 + arcs * 12);
  put_bytes(out, kMagic, 4);
  put_u32(out, kSnapshotVersion);
  put_u64(out, static_cast<std::uint64_t>(n));
  put_u64(out, arcs);
  put_u32(out, kSectionCount);

  put_u32(out, kTagOffsets);
  put_u64(out, offsets.size() * 8);
  append_offsets(out, offsets);

  put_u32(out, kTagTargets);
  put_u64(out, arcs * 4);
  std::string targets;
  targets.reserve(arcs * 4);
  for (vidx v = 0; v < n; ++v) append_targets(targets, g.neighbors(v));
  out += targets;

  put_u32(out, kTagWeights);
  put_u64(out, arcs * 8);
  std::string weights;
  weights.reserve(arcs * 8);
  for (vidx v = 0; v < n; ++v) append_weights(weights, g.weights(v));
  out += weights;

  put_u64(out, fnv1a(kFnvOffsetBasis, out.data(), out.size()));
  return out;
}

Graph decode_snapshot(const unsigned char* bytes, std::size_t size) {
  Reader r{bytes, size};
  r.need(4, "magic");
  HICOND_CHECK(std::memcmp(r.data, kMagic, 4) == 0, "snapshot bad magic");
  r.pos += 4;
  const std::uint32_t version = r.u32("version");
  HICOND_CHECK(version == kSnapshotVersion,
               "snapshot version " + std::to_string(version) +
                   " unsupported (expected " +
                   std::to_string(kSnapshotVersion) + ")");
  const std::uint64_t n64 = r.u64("vertex count");
  const std::uint64_t arcs = r.u64("arc count");
  HICOND_CHECK(n64 <= kMaxVertices, "snapshot vertex count out of range");
  HICOND_CHECK(arcs <= kMaxArcs, "snapshot arc count out of range");
  const std::uint32_t sections = r.u32("section count");
  HICOND_CHECK(sections == kSectionCount, "snapshot bad section count");

  // Checksum covers everything up to the trailing 8 bytes; verify before
  // decoding the payloads so corrupt sections are reported as corruption,
  // not as whatever invariant they happen to break downstream.
  HICOND_CHECK(size >= 8, "snapshot truncated reading checksum");
  const std::size_t body = size - 8;
  HICOND_CHECK(r.pos <= body, "snapshot truncated reading checksum");
  Reader trailer{bytes, size, body};
  const std::uint64_t stored = trailer.u64("checksum");
  const std::uint64_t actual = fnv1a(kFnvOffsetBasis, bytes, body);
  HICOND_CHECK(stored == actual, "snapshot checksum mismatch");

  const std::size_t n = static_cast<std::size_t>(n64);
  std::vector<eidx> offsets;
  std::vector<vidx> targets;
  std::vector<double> weights;
  bool seen[4] = {false, false, false, false};
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t tag = r.u32("section tag");
    const std::uint64_t len = r.u64("section length");
    HICOND_CHECK(tag >= kTagOffsets && tag <= kTagWeights,
                 "snapshot unknown section tag " + std::to_string(tag));
    HICOND_CHECK(!seen[tag], "snapshot duplicate section tag");
    seen[tag] = true;
    HICOND_CHECK(r.pos <= body && len <= body - r.pos,
                 "snapshot section length exceeds file");
    switch (tag) {
      case kTagOffsets: {
        HICOND_CHECK(len == (n64 + 1) * 8, "snapshot offsets length mismatch");
        offsets.resize(n + 1);
        for (auto& o : offsets) {
          o = static_cast<eidx>(r.u64("offsets section"));
        }
        break;
      }
      case kTagTargets: {
        HICOND_CHECK(len == arcs * 4, "snapshot targets length mismatch");
        targets.resize(static_cast<std::size_t>(arcs));
        for (auto& t : targets) {
          t = static_cast<vidx>(r.u32("targets section"));
        }
        break;
      }
      default: {
        HICOND_CHECK(len == arcs * 8, "snapshot weights length mismatch");
        weights.resize(static_cast<std::size_t>(arcs));
        for (auto& w : weights) {
          w = std::bit_cast<double>(r.u64("weights section"));
        }
        break;
      }
    }
  }
  HICOND_CHECK(r.pos == body, "snapshot trailing garbage before checksum");

  // from_csr re-validates structure (sorted rows, symmetry, positive finite
  // weights): the snapshot layer only vouches for transport integrity.
  return Graph::from_csr(static_cast<vidx>(n64), std::move(offsets),
                         std::move(targets), std::move(weights));
}

}  // namespace

std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                    std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t graph_fingerprint(const Graph& g) {
  HICOND_RUN_VALIDATION(expensive, g.validate());
  std::uint64_t h = kFnvOffsetBasis;
  auto fold_u64 = [&h](std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    }
    h = fnv1a(h, b, 8);
  };
  const vidx n = g.num_vertices();
  fold_u64(static_cast<std::uint64_t>(n));
  fold_u64(static_cast<std::uint64_t>(g.num_arcs()));
  for (vidx v = 0; v <= n; ++v) {
    fold_u64(static_cast<std::uint64_t>(v < n ? g.arc_begin(v)
                                              : g.num_arcs()));
  }
  for (vidx v = 0; v < n; ++v) {
    for (const vidx t : g.neighbors(v)) {
      fold_u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(t)));
    }
  }
  for (vidx v = 0; v < n; ++v) {
    for (const double w : g.weights(v)) {
      fold_u64(std::bit_cast<std::uint64_t>(w));
    }
  }
  return h;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[fingerprint & 0xf];
    fingerprint >>= 4;
  }
  return out;
}

std::uint64_t parse_fingerprint(const std::string& hex) {
  HICOND_CHECK(hex.size() == 16, "fingerprint must be 16 hex digits");
  std::uint64_t v = 0;
  for (const char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      HICOND_CHECK(false, "fingerprint has a non-hex character");
    }
  }
  return v;
}

void write_snapshot(std::ostream& out, const Graph& g) {
  const std::string bytes = encode_snapshot(g);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  HICOND_CHECK(out.good(), "snapshot write failed");
}

void write_snapshot_file(const std::string& path, const Graph& g) {
  std::ofstream out(path, std::ios::binary);
  HICOND_CHECK(out.good(), "cannot open snapshot file for writing: " + path);
  write_snapshot(out, g);
}

Graph read_snapshot(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = std::move(buffer).str();
  return decode_snapshot(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
}

Graph read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HICOND_CHECK(in.good(), "cannot open snapshot file: " + path);
  return read_snapshot(in);
}

Graph read_graph_auto(const std::string& path) {
  const auto ends_with = [&path](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           std::string_view(path).substr(path.size() - suffix.size()) ==
               suffix;
  };
  if (ends_with(".hsnap")) {
    return read_snapshot_file(path);
  }
  if (ends_with(".metis") || ends_with(".graph")) {
    return read_metis_file(path);
  }
  return read_graph_file(path);
}

}  // namespace hicond::serve
