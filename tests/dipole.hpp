// The unit dipole right-hand side shared by the solver tests.
#pragma once

#include <cstddef>
#include <vector>

#include "hicond/graph/graph.hpp"
#include "hicond/util/common.hpp"

namespace hicond::test {

/// A unit dipole: +1 on the first vertex of `g`, -1 on its last. The size
/// check also keeps GCC's -Wnull-dereference quiet about front()/back().
inline std::vector<double> dipole(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  HICOND_CHECK(n >= 2, "a dipole needs two vertices");
  std::vector<double> b(n, 0.0);
  b.front() = 1.0;
  b.back() = -1.0;
  return b;
}

}  // namespace hicond::test
