// Fuzz target: the serve/ wire transport (hicond/serve/wire.hpp).
//
// Three properties, all byte-exact regardless of where the fuzzer places
// chunk boundaries and '\n' delimiters:
//
//   1. LineBuffer framing matches a naive reference splitter: appending the
//      input in fuzzer-chosen chunks yields exactly the '\n'-terminated
//      lines of the whole input, in order, with the unterminated tail left
//      buffered.
//   2. A socketpair round-trip through drain_nonblocking/read_into delivers
//      every byte exactly once, and closing the write side surfaces as a
//      clean ReadStatus::eof, never an error or a hang.
//   3. Each framed line fed through serve::parse_envelope (the parse stage
//      both the server and the router run) either parses or comes back as
//      a parse_error response that is itself well-formed JSON -- never a
//      crash, an escaping exception, or undefined behaviour on a hostile
//      "id".
//
// The harness itself goes through wire:: and unique_fd for all I/O; it is
// subject to the same syscall-discipline and fd-ownership checks as the
// library (socketpair's out-parameter array is the one raw acquisition).

#include <sys/socket.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hicond/obs/json.hpp"
#include "hicond/serve/request.hpp"
#include "hicond/serve/wire.hpp"
#include "hicond/util/unique_fd.hpp"

namespace {

namespace wire = hicond::serve::wire;

/// Reference framing: every complete '\n'-terminated line, delimiter
/// stripped. This is the specification LineBuffer must reproduce.
std::vector<std::string> naive_split(std::string_view bytes) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') {
      lines.emplace_back(bytes.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

/// Bytes after the last '\n' -- what a framer must keep buffered.
std::size_t unterminated_tail(std::string_view bytes) {
  const std::size_t last = bytes.rfind('\n');
  return last == std::string_view::npos ? bytes.size()
                                        : bytes.size() - last - 1;
}

/// The parse stage of every request engine. A refused line must come back
/// as a well-formed JSON object.
void check_envelope(const std::string& line) {
  hicond::serve::Envelope envelope;
  if (const auto refused = hicond::serve::parse_envelope(line, 0.0, envelope)) {
    if (!hicond::obs::parse_json(*refused).is_object()) {
      __builtin_trap();
    }
  }
}

void check_chunked_framing(std::string_view bytes) {
  const std::vector<std::string> expected = naive_split(bytes);

  wire::LineBuffer buffer;
  std::vector<std::string> got;
  std::string line;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    // Chunk sizes come from the input itself, so the fuzzer controls where
    // append boundaries fall relative to the '\n' delimiters.
    const std::size_t chunk =
        std::min(bytes.size() - pos,
                 static_cast<std::size_t>(
                     static_cast<unsigned char>(bytes[pos])) %
                         13 +
                     1);
    buffer.append(bytes.data() + pos, chunk);
    pos += chunk;
    while (buffer.next_line(line)) {
      got.push_back(line);
    }
  }
  if (got != expected) {
    __builtin_trap();
  }
  if (buffer.buffered() != unterminated_tail(bytes)) {
    __builtin_trap();
  }
  for (const std::string& framed : got) {
    check_envelope(framed);
  }
}

void check_socketpair_roundtrip(std::string_view bytes) {
  int raw[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, raw) != 0) {
    return;  // resource exhaustion is not the transport's bug
  }
  hicond::unique_fd tx(raw[0]);
  const hicond::unique_fd rx(raw[1]);
  if (!wire::set_nonblocking(tx.get()) || !wire::set_nonblocking(rx.get())) {
    return;
  }

  std::string outbound(bytes);
  wire::LineBuffer inbound;
  for (int spins = 0; !outbound.empty(); ++spins) {
    if (spins > 1000000) {
      __builtin_trap();  // transport wedged: no forward progress
    }
    if (!wire::drain_nonblocking(tx.get(), outbound)) {
      __builtin_trap();
    }
    if (outbound.empty()) {
      break;
    }
    // The kernel buffer is full, so the peer must have bytes ready now.
    if (wire::read_into(rx.get(), inbound) != wire::ReadStatus::data) {
      __builtin_trap();
    }
  }

  // Close the write side: the reader must see the remaining bytes and then
  // a clean eof -- never error, and never would_block forever.
  tx.reset();
  for (;;) {
    const wire::ReadStatus status = wire::read_into(rx.get(), inbound);
    if (status == wire::ReadStatus::eof) {
      break;
    }
    if (status != wire::ReadStatus::data) {
      __builtin_trap();
    }
  }

  if (inbound.buffered() != bytes.size()) {
    __builtin_trap();
  }
  std::vector<std::string> got;
  std::string line;
  while (inbound.next_line(line)) {
    got.push_back(line);
  }
  if (got != naive_split(bytes)) {
    __builtin_trap();
  }
  if (inbound.buffered() != unterminated_tail(bytes)) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Bound per-exec work; 64 KiB spans several read_into chunks and, on most
  // kernels, at least one full socketpair buffer.
  const std::string_view bytes(reinterpret_cast<const char*>(data),
                               std::min<std::size_t>(size, 65536));
  check_chunked_framing(bytes);
  check_socketpair_roundtrip(bytes);
  return 0;
}
