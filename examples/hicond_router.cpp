// hicond_router -- sharded frontend over a pool of hicond_serve workers.
//
//   hicond_router [--socket PATH] [--workers N] [--worker-bin PATH]
//                 [--socket-dir DIR] [--cache-bytes N] [--deadline-ms MS]
//                 [--window N] [--vnodes N] [--preload GRAPH...]
//
// Speaks the worker NDJSON protocol (docs/SERVING.md) plus the router-only
// `topology` op: stdin/stdout by default, or a unix domain socket with
// --socket. Each graph fingerprint is consistent-hashed onto one of the
// spawned workers; `--worker-bin` defaults to the hicond_serve binary next
// to this executable, and `--socket-dir` to a fresh temporary directory for
// the worker-<i>.sock files. --cache-bytes and --deadline-ms configure each
// *worker*; --window (in-flight requests per worker) and --vnodes are
// router policy (docs/SERVING.md, "Sharded serving").
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "hicond/serve/shard/router.hpp"
#include "hicond/serve/snapshot.hpp"

namespace {

using namespace hicond;

int usage() {
  std::fprintf(
      stderr,
      "usage: hicond_router [--socket PATH] [--workers N] [--worker-bin "
      "PATH] [--socket-dir DIR] [--cache-bytes N] [--deadline-ms MS] "
      "[--window N] [--vnodes N] [--preload GRAPH...]\n");
  return 2;
}

/// Directory component of `path` ("." when there is none).
std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

}  // namespace

int main(int argc, char** argv) {
  serve::shard::RouterOptions options;
  std::string socket_path;
  std::vector<std::string> preload;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      options.workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--worker-bin") == 0 && i + 1 < argc) {
      options.worker.binary = argv[++i];
    } else if (std::strcmp(argv[i], "--socket-dir") == 0 && i + 1 < argc) {
      options.worker.socket_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-bytes") == 0 && i + 1 < argc) {
      options.worker.cache_bytes =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      options.default_deadline_ms = std::strtod(argv[++i], nullptr);
      options.worker.deadline_ms = options.default_deadline_ms;
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      options.inflight_window = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--vnodes") == 0 && i + 1 < argc) {
      options.vnodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--preload") == 0 && i + 1 < argc) {
      preload.emplace_back(argv[++i]);
    } else {
      return usage();
    }
  }
  if (options.workers < 1 || options.inflight_window < 1 ||
      options.vnodes < 1) {
    return usage();
  }
  if (options.worker.binary.empty()) {
    options.worker.binary = dirname_of(argv[0]) + "/hicond_serve";
  }
  char tmpl[] = "/tmp/hicond-shard-XXXXXX";
  if (options.worker.socket_dir.empty()) {
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "hicond_router: mkdtemp failed\n");
      return 1;
    }
    options.worker.socket_dir = tmpl;
  }

  try {
    serve::shard::Router router(options);
    for (const std::string& path : preload) {
      const std::uint64_t fp = router.preload(path);
      std::fprintf(stderr, "preloaded %s: %s\n", path.c_str(),
                   serve::fingerprint_hex(fp).c_str());
    }
    if (!socket_path.empty()) {
      return router.run_unix_socket(socket_path);
    }
    return router.run_stream(/*in_fd=*/0, /*out_fd=*/1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hicond_router: %s\n", e.what());
    return 1;
  }
}
