#include "hicond/partition/backends/backend.hpp"

#include <cstdio>
#include <cstring>
#include <utility>

#include "hicond/partition/backends/fixed_degree_backend.hpp"
#include "hicond/partition/backends/louvain.hpp"
#include "hicond/partition/backends/low_diameter.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/util/common.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond::partition {

namespace detail {

void append_key_int(std::string& out, const char* name, long long v) {
  out += name;
  out += '=';
  out += std::to_string(v);
  out += ';';
}

void append_key_double(std::string& out, const char* name, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s=%.17g;", name, v);
  out += buf;
}

}  // namespace detail

namespace {

/// Names of the always-registered built-in backends, in registry order.
/// Parsed by the backend-coverage lint rule (tools/check_project_rules.py),
/// which requires every name here to be exercised by the prop suite.
constexpr const char* kBuiltinBackendNames[] = {
    "fixed_degree",
    "louvain",
    "lowdiam",
};

std::vector<std::unique_ptr<PartitionerBackend>>& registry() {
  static std::vector<std::unique_ptr<PartitionerBackend>> backends = [] {
    std::vector<std::unique_ptr<PartitionerBackend>> b;
    b.push_back(std::make_unique<FixedDegreeBackend>());
    b.push_back(std::make_unique<LouvainBackend>());
    b.push_back(std::make_unique<LowDiameterBackend>());
    for (std::size_t i = 0; i < b.size(); ++i) {
      HICOND_CHECK(b[i]->name() == kBuiltinBackendNames[i],
                   "kBuiltinBackendNames is out of sync with the registry");
    }
    return b;
  }();
  return backends;
}

}  // namespace

const PartitionerBackend* find_backend(std::string_view name) noexcept {
  for (const auto& backend : registry()) {
    if (backend->name() == name) {
      return backend.get();
    }
  }
  return nullptr;
}

const PartitionerBackend& get_backend(std::string_view name) {
  const PartitionerBackend* backend = find_backend(name);
  if (backend == nullptr) {
    std::string known;
    for (const auto& b : registry()) {
      if (!known.empty()) known += ", ";
      known += b->name();
    }
    throw invalid_argument_error("unknown partitioner backend \"" +
                                 std::string(name) + "\" (registered: " +
                                 known + ")");
  }
  return *backend;
}

std::vector<const PartitionerBackend*> registered_backends() {
  std::vector<const PartitionerBackend*> out;
  out.reserve(registry().size());
  for (const auto& backend : registry()) {
    out.push_back(backend.get());
  }
  return out;
}

void register_backend(std::unique_ptr<PartitionerBackend> backend) {
  HICOND_CHECK(backend != nullptr, "cannot register a null backend");
  HICOND_CHECK(find_backend(backend->name()) == nullptr,
               "a backend with this name is already registered");
  registry().push_back(std::move(backend));
}

std::string backend_options_key(const BackendOptions& options) {
  const PartitionerBackend& backend = get_backend(options.backend);
  std::string key = "backend=";
  key += options.backend;
  key += ';';
  key += backend.options_key(options);
  return key;
}

void validate_backend_output(const Graph& g, const Decomposition& d,
                             std::string_view backend_name) {
  // An O(n + m) check subsuming Decomposition::validate, in three parallel
  // sweeps that each throw the violation of their lowest vertex or cluster:
  // every vertex carries a well-ranged cluster id; a search from each
  // cluster's lowest member, restricted to its members, covers the cluster
  // (otherwise it is internally disconnected -- its closure conductance is 0
  // and quotient contraction would break); no cluster id is empty. Each
  // rejects the output at the boundary.
  HICOND_CHECK(d.num_clusters >= 0, "cluster count must be nonnegative");
  HICOND_CHECK(d.assignment.size() == static_cast<std::size_t>(g.num_vertices()),
               "assignment size mismatch (orphan or surplus vertices)");
  parallel_check(d.assignment.size(), [&](std::size_t v) {
    const vidx c = d.assignment[v];
    HICOND_CHECK(c >= 0 && c < d.num_clusters,
                 "cluster id out of range (unassigned vertex?)");
  });
  const ClusterIndex idx = ClusterIndex::build(d.assignment, d.num_clusters);
  const auto clusters = static_cast<std::size_t>(d.num_clusters);
  std::vector<char> covered(clusters, 0);
  parallel_region([&] {
    // seen[u] == c: u was reached by cluster c's search (per thread, so
    // concurrent searches never share a cache line).
    std::vector<vidx> seen(d.assignment.size(), -1);
    std::vector<vidx> stack;
#pragma omp for schedule(dynamic, 64) nowait
    for (vidx c = 0; c < d.num_clusters; ++c) {
      const auto members = idx.members(c);
      std::size_t reached = 0;
      if (!members.empty()) {
        reached = 1;
        seen[static_cast<std::size_t>(members.front())] = c;
        stack.assign(1, members.front());
      }
      while (!stack.empty()) {
        const vidx v = stack.back();
        stack.pop_back();
        for (const vidx u : g.neighbors(v)) {
          const auto ui = static_cast<std::size_t>(u);
          if (seen[ui] == c || d.assignment[ui] != c) continue;
          seen[ui] = c;
          ++reached;
          stack.push_back(u);
        }
      }
      covered[static_cast<std::size_t>(c)] = reached == members.size();
    }
  });
  parallel_check(clusters, [&](std::size_t c) {
    HICOND_CHECK(covered[c],
                 "backend \"" + std::string(backend_name) +
                     "\" produced an internally disconnected cluster");
  });
  parallel_check(clusters, [&](std::size_t c) {
    HICOND_CHECK(!idx.members(static_cast<vidx>(c)).empty(),
                 "empty cluster id");
  });
}

Decomposition checked_decompose(const Graph& g,
                                const BackendOptions& options) {
  const PartitionerBackend& backend = get_backend(options.backend);
  Decomposition d = backend.decompose(g, options);
  validate_backend_output(g, d, backend.name());
  return d;
}

}  // namespace hicond::partition
