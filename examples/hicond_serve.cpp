// hicond_serve -- NDJSON solver service frontend.
//
//   hicond_serve [--socket PATH] [--cache-bytes N] [--deadline-ms MS]
//                [--preload GRAPH...]
//
// Without --socket, requests are read from stdin and responses written to
// stdout, one JSON object per line; with --socket, the same protocol is
// served over a unix domain socket at PATH (one connection at a time). Each
// --preload file is loaded before serving starts and its fingerprint is
// printed on stderr, so scripted sessions can address graphs without a load
// round-trip. The server handles one request at a time and holds no queue;
// the protocol and the cache and deadline semantics are documented in
// docs/SERVING.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "hicond/graph/io.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/serve/server.hpp"
#include "hicond/serve/snapshot.hpp"

namespace {

using namespace hicond;

int usage() {
  std::fprintf(stderr,
               "usage: hicond_serve [--socket PATH] [--cache-bytes N] "
               "[--deadline-ms MS] [--preload GRAPH...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  std::string socket_path;
  std::vector<std::string> preload;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-bytes") == 0 && i + 1 < argc) {
      options.cache_bytes =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      options.default_deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--preload") == 0 && i + 1 < argc) {
      preload.emplace_back(argv[++i]);
    } else {
      return usage();
    }
  }

  try {
    serve::ServerCore core(options);
    for (const std::string& path : preload) {
      obs::JsonWriter w;
      w.begin_object();
      w.kv("op", "load");
      w.kv("path", path);
      w.end_object();
      std::fprintf(stderr, "preloaded %s: %s\n", path.c_str(),
                   core.handle(w.str()).c_str());
    }
    if (!socket_path.empty()) {
      return serve::serve_unix_socket(core, socket_path);
    }
    return serve::serve_stream(core, std::cin, std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hicond_serve: %s\n", e.what());
    return 1;
  }
}
