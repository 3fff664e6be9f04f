// Unit coverage for the sharding subsystem's deterministic pieces: the
// consistent-hash ring (placement must depend only on configuration and
// fingerprint -- a restarted router has to reproduce the same shard map) and
// the wire helpers every shard transport is built on (full-write semantics
// under partial writes, line reassembly under arbitrary chunking). The
// process-level behaviour -- supervision, replay, retry, bitwise equality
// through the router -- is exercised end-to-end by tools/shard_smoke.py
// against the real binaries; router.hpp and worker_pool.hpp are included
// here so their contracts compile into a test TU.

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hicond/serve/shard/ring.hpp"
#include "hicond/serve/shard/router.hpp"
#include "hicond/serve/shard/worker_pool.hpp"
#include "hicond/serve/wire.hpp"
#include "hicond/util/common.hpp"
#include "hicond/util/rng.hpp"
#include "hicond/util/unique_fd.hpp"

namespace hicond {
namespace {

using serve::shard::HashRing;
namespace wire = serve::wire;

std::vector<std::uint64_t> sample_fingerprints(std::size_t count) {
  Rng rng(7);
  std::vector<std::uint64_t> fps;
  fps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    fps.push_back(rng.next_u64());
  }
  return fps;
}

TEST(shard_ring, PlacementIsDeterministic) {
  const HashRing a(5, 64);
  const HashRing b(5, 64);
  for (const std::uint64_t fp : sample_fingerprints(512)) {
    EXPECT_EQ(a.primary(fp), b.primary(fp));
  }
}

TEST(shard_ring, RejectsDegenerateConfigurations) {
  EXPECT_THROW(HashRing(0, 64), invalid_argument_error);
  EXPECT_THROW(HashRing(3, 0), invalid_argument_error);
}

TEST(shard_ring, SpreadsKeysAcrossWorkers) {
  const int workers = 4;
  const HashRing ring(workers, 64);
  const std::size_t keys = 4096;
  std::map<int, std::size_t> per_worker;
  for (const std::uint64_t fp : sample_fingerprints(keys)) {
    const int w = ring.primary(fp);
    ASSERT_GE(w, 0);
    ASSERT_LT(w, workers);
    per_worker[w] += 1;
  }
  // Every worker owns a real share: at least half of the uniform share.
  // With 64 vnodes the observed spread is much tighter; this bound only
  // catches a broken ring (one worker owning nearly everything).
  for (int w = 0; w < workers; ++w) {
    EXPECT_GT(per_worker[w], keys / (2 * workers))
        << "worker " << w << " owns too little of the keyspace";
  }
}

TEST(shard_ring, SingleWorkerOwnsEveryKey) {
  const HashRing ring(1, 64);
  for (const std::uint64_t fp : sample_fingerprints(64)) {
    EXPECT_EQ(ring.primary(fp), 0);
  }
}

TEST(shard_ring, AddingAWorkerMovesOnlyItsShare) {
  const HashRing before(4, 64);
  const HashRing after(5, 64);
  const std::size_t keys = 4096;
  std::size_t moved = 0;
  for (const std::uint64_t fp : sample_fingerprints(keys)) {
    const int was = before.primary(fp);
    const int now = after.primary(fp);
    if (was != now) {
      ++moved;
      // A key that moves must move to the *new* worker -- consistent
      // hashing never shuffles keys between surviving workers.
      EXPECT_EQ(now, 4) << "key moved between old workers";
    }
  }
  // Expected churn is 1/5 of the keyspace; allow slack for vnode variance
  // but fail the rehash-everything regression (which moves ~4/5).
  EXPECT_LT(moved, keys * 2 / 5)
      << "adding one worker moved " << moved << " of " << keys << " keys";
  EXPECT_GT(moved, 0U);
}

// ---------------------------------------------------------------------------
// wire helpers
// ---------------------------------------------------------------------------

TEST(shard_wire, WriteAllDeliversAcrossPartialWrites) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A payload far larger than the socket buffer forces write() to go
  // partial; a reader thread is avoided by draining in lockstep instead.
  const std::string payload(1 << 16, 'x');
  std::string received;
  int sndbuf = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
  ASSERT_TRUE(wire::set_nonblocking(fds[0]));
  std::string outbound = payload;
  outbound += '\n';
  while (!outbound.empty()) {
    ASSERT_TRUE(wire::drain_nonblocking(fds[0], outbound));
    char chunk[8192];
    ssize_t got;
    while ((got = ::recv(fds[1], chunk, sizeof chunk, MSG_DONTWAIT)) > 0) {
      received.append(chunk, static_cast<std::size_t>(got));
    }
  }
  EXPECT_EQ(received, payload + "\n");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(shard_wire, WritevGathersAllParts) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string a = "alpha ";
  const std::string b;  // empty parts must be skipped, not break the iovec
  const std::string c = "beta";
  const std::string_view parts[] = {a, b, c, "\n"};
  ASSERT_TRUE(wire::write_all(fds[0], parts));
  char chunk[64];
  const ssize_t got = ::recv(fds[1], chunk, sizeof chunk, 0);
  ASSERT_GT(got, 0);
  EXPECT_EQ(std::string(chunk, static_cast<std::size_t>(got)),
            "alpha beta\n");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(shard_wire, WriteAllReportsClosedPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // SIGPIPE must not fire (the router runs with it ignored; the test
  // harness does the same so the failure surfaces as a return code).
  ::signal(SIGPIPE, SIG_IGN);
  EXPECT_FALSE(wire::write_line(fds[0], "into the void"));
  ::close(fds[0]);
}

TEST(shard_wire, LineBufferReassemblesArbitraryChunking) {
  const std::string stream =
      "{\"id\":1}\n{\"id\":2}\n\n{\"id\":3,\"pad\":\"xyzzy\"}\n";
  // Feed every chunk size from 1 byte upward; the reassembled lines must
  // never depend on how the bytes arrived.
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    wire::LineBuffer buffer;
    std::vector<std::string> lines;
    std::string line;
    for (std::size_t pos = 0; pos < stream.size(); pos += chunk) {
      buffer.append(stream.data() + pos,
                    std::min(chunk, stream.size() - pos));
      while (buffer.next_line(line)) {
        lines.push_back(line);
      }
    }
    ASSERT_EQ(lines.size(), 4U) << "chunk size " << chunk;
    EXPECT_EQ(lines[0], "{\"id\":1}");
    EXPECT_EQ(lines[1], "{\"id\":2}");
    EXPECT_EQ(lines[2], "");
    EXPECT_EQ(lines[3], "{\"id\":3,\"pad\":\"xyzzy\"}");
    EXPECT_EQ(buffer.buffered(), 0U);
  }
}

TEST(shard_wire, LineBufferKeepsPartialTail) {
  wire::LineBuffer buffer;
  buffer.append("first\nsecond-half", 17);
  std::string line;
  ASSERT_TRUE(buffer.next_line(line));
  EXPECT_EQ(line, "first");
  EXPECT_FALSE(buffer.next_line(line));
  EXPECT_EQ(buffer.buffered(), 11U);
  buffer.append("\n", 1);
  ASSERT_TRUE(buffer.next_line(line));
  EXPECT_EQ(line, "second-half");
}

TEST(shard_wire, ReadIntoReportsDataWouldBlockAndEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  unique_fd tx(fds[0]);
  const unique_fd rx(fds[1]);
  ASSERT_TRUE(wire::set_nonblocking(rx.get()));

  wire::LineBuffer buffer;
  EXPECT_EQ(wire::read_into(rx.get(), buffer),
            wire::ReadStatus::would_block);
  ASSERT_TRUE(wire::write_line(tx.get(), "hello"));
  EXPECT_EQ(wire::read_into(rx.get(), buffer), wire::ReadStatus::data);
  std::string line;
  ASSERT_TRUE(buffer.next_line(line));
  EXPECT_EQ(line, "hello");

  // Closing the write side must surface as a clean eof, not an error.
  tx.reset();
  EXPECT_EQ(wire::read_into(rx.get(), buffer), wire::ReadStatus::eof);
}

TEST(shard_wire, ReadIntoReportsHardErrors) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  ::close(fds[1]);
  wire::LineBuffer buffer;
  // EBADF is a hard error, distinct from eof and would_block.
  EXPECT_EQ(wire::read_into(fds[1], buffer), wire::ReadStatus::error);
}

TEST(shard_wire, ReadIntoReassemblesLinesAcrossChunks) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  unique_fd tx(fds[0]);
  const unique_fd rx(fds[1]);

  const std::string stream = "{\"id\":1}\n{\"id\":2}\npartial";
  for (std::size_t pos = 0; pos < stream.size(); pos += 5) {
    ASSERT_TRUE(wire::write_all(tx.get(), stream.data() + pos,
                                std::min<std::size_t>(5,
                                                      stream.size() - pos)));
  }
  tx.reset();

  wire::LineBuffer buffer;
  std::vector<std::string> lines;
  std::string line;
  for (;;) {
    const wire::ReadStatus status = wire::read_into(rx.get(), buffer);
    if (status == wire::ReadStatus::eof) {
      break;
    }
    ASSERT_EQ(status, wire::ReadStatus::data);
    while (buffer.next_line(line)) {
      lines.push_back(line);
    }
  }
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_EQ(lines[0], "{\"id\":1}");
  EXPECT_EQ(lines[1], "{\"id\":2}");
  // The unterminated tail stays buffered, exactly as written.
  EXPECT_EQ(buffer.buffered(), 7U);
}

// ---------------------------------------------------------------------------
// unique_fd
// ---------------------------------------------------------------------------

TEST(shard_unique_fd, OwnsMovesAndReleases) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int raw = fds[0];
  {
    unique_fd a(raw);
    EXPECT_TRUE(static_cast<bool>(a));
    EXPECT_EQ(a.get(), raw);
    unique_fd b(std::move(a));
    EXPECT_EQ(a.get(), -1);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_EQ(b.get(), raw);
    // Still open while owned: F_GETFD succeeds.
    ASSERT_NE(::fcntl(raw, F_GETFD), -1);
  }
  // Destruction closed it.
  EXPECT_EQ(::fcntl(raw, F_GETFD), -1);

  // release() hands the descriptor back without closing, so a caller can
  // pass ownership on (e.g. to fdopen).
  unique_fd keeper(fds[1]);
  const int released = keeper.release();
  EXPECT_EQ(released, fds[1]);
  EXPECT_FALSE(static_cast<bool>(keeper));
  ASSERT_NE(::fcntl(released, F_GETFD), -1);
  ::close(released);
}

TEST(shard_unique_fd, ResetAndMoveAssignCloseTheHeldDescriptor) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  unique_fd a(fds[0]);
  unique_fd b(fds[1]);
  a = std::move(b);  // must close fds[0], adopt fds[1]
  EXPECT_EQ(::fcntl(fds[0], F_GETFD), -1);
  ASSERT_NE(::fcntl(fds[1], F_GETFD), -1);
  EXPECT_EQ(a.get(), fds[1]);
  EXPECT_EQ(b.get(), -1);
  a.reset();  // must close fds[1]
  EXPECT_EQ(::fcntl(fds[1], F_GETFD), -1);
  EXPECT_EQ(a.get(), -1);
}

// ---------------------------------------------------------------------------
// worker pool descriptor hygiene
// ---------------------------------------------------------------------------

int open_fd_count() {
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(shard_worker_pool, FailedSpawnDoesNotLeakDescriptors) {
  serve::shard::WorkerOptions options;
  options.binary = "/nonexistent/hicond_serve_binary";
  options.socket_dir = ::testing::TempDir();
  options.spawn_timeout_seconds = 5.0;

  const int before = open_fd_count();
  for (int round = 0; round < 3; ++round) {
    serve::shard::WorkerPool pool(options, 1);
    EXPECT_THROW(pool.start_and_connect(0), invalid_argument_error);
    EXPECT_EQ(pool.state(0), serve::shard::WorkerPool::State::down);
    EXPECT_EQ(pool.fd(0), -1);
  }
  // Every connect attempt's socket and every dead child's fd must be
  // closed again: the pool may not leak one descriptor per failure.
  EXPECT_EQ(open_fd_count(), before);
}

}  // namespace
}  // namespace hicond
