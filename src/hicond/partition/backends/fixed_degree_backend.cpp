#include "hicond/partition/backends/fixed_degree_backend.hpp"

#include "hicond/partition/fixed_degree.hpp"
#include "hicond/util/common.hpp"

namespace hicond::partition {

std::string FixedDegreeBackend::options_key(
    const BackendOptions& options) const {
  // Consumed fields only: the Louvain/lowdiam knobs never affect this
  // backend's output, so they must not split the hierarchy cache.
  std::string key;
  detail::append_key_int(key, "fd.max_cluster_size",
                         options.max_cluster_size);
  detail::append_key_int(key, "fd.seed",
                         static_cast<long long>(options.seed));
  detail::append_key_int(key, "fd.perturb", options.perturb ? 1 : 0);
  return key;
}

Decomposition FixedDegreeBackend::decompose(
    const Graph& g, const BackendOptions& options) const {
  HICOND_CHECK(options.max_cluster_size >= 1,
               "fixed_degree max_cluster_size must be at least 1");
  FixedDegreeOptions fd;
  fd.max_cluster_size = options.max_cluster_size;
  fd.seed = options.seed;
  fd.perturb = options.perturb;
  return fixed_degree_clusters(g, fd);
}

}  // namespace hicond::partition
