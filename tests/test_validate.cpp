// Corrupt-structure fixtures for the invariant-validation layer: each broken
// input must be rejected with an invalid_argument_error whose message names
// the violated invariant.

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "hicond/graph/generators.hpp"
#include "hicond/graph/graph.hpp"
#include "hicond/partition/decomposition.hpp"
#include "hicond/tree/rooted_tree.hpp"

namespace hicond {
namespace {

/// Expects `body` to throw invalid_argument_error whose what() mentions
/// `needle` (the name of the violated invariant).
template <typename Body>
void expect_rejected(Body&& body, const std::string& needle) {
  try {
    body();
    FAIL() << "expected invalid_argument_error mentioning \"" << needle
           << "\"";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

// --- Graph::from_csr ------------------------------------------------------

// Well-formed CSR of the triangle 0-1-2 with weights w(0,1)=1, w(1,2)=2,
// w(0,2)=3; rows sorted, both arc directions present.
struct TriangleCsr {
  std::vector<eidx> offsets{0, 2, 4, 6};
  std::vector<vidx> targets{1, 2, 0, 2, 0, 1};
  std::vector<double> weights{1.0, 3.0, 1.0, 2.0, 3.0, 2.0};
};

TEST(GraphFromCsr, AcceptsWellFormedInput) {
  TriangleCsr t;
  const Graph g = Graph::from_csr(3, t.offsets, t.targets, t.weights);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(g.vol(0), 4.0);
  g.validate();  // idempotent on a valid graph
}

TEST(GraphFromCsr, RejectsUnsortedRow) {
  TriangleCsr t;
  std::swap(t.targets[0], t.targets[1]);  // row 0 becomes {2, 1}
  std::swap(t.weights[0], t.weights[1]);
  expect_rejected(
      [&] { std::ignore = Graph::from_csr(3, t.offsets, t.targets, t.weights); },
      "unsorted or duplicate arcs");
}

TEST(GraphFromCsr, RejectsDuplicateArc) {
  TriangleCsr t;
  t.targets[1] = 1;  // row 0 becomes {1, 1}
  expect_rejected(
      [&] { std::ignore = Graph::from_csr(3, t.offsets, t.targets, t.weights); },
      "unsorted or duplicate arcs");
}

TEST(GraphFromCsr, RejectsAsymmetricWeights) {
  TriangleCsr t;
  t.weights[2] = 7.0;  // arc 1->0 no longer matches arc 0->1
  expect_rejected(
      [&] { std::ignore = Graph::from_csr(3, t.offsets, t.targets, t.weights); },
      "mirror arc weight differs");
}

TEST(GraphFromCsr, RejectsMissingMirrorArc) {
  // Arc 0->1 present but 1->0 replaced by 1->2 (duplicate weight kept
  // consistent so only the symmetry check can fire).
  const std::vector<eidx> offsets{0, 1, 2, 3};
  const std::vector<vidx> targets{1, 2, 1};
  const std::vector<double> weights{1.0, 2.0, 2.0};
  expect_rejected([&] { std::ignore = Graph::from_csr(3, offsets, targets, weights); },
                  "mirror arc missing");
}

TEST(GraphFromCsr, RejectsRaggedOffsets) {
  TriangleCsr t;
  t.offsets[1] = 3;
  t.offsets[2] = 2;  // decreasing: ragged
  expect_rejected(
      [&] { std::ignore = Graph::from_csr(3, t.offsets, t.targets, t.weights); },
      "ragged offsets");
}

TEST(GraphFromCsr, RejectsOffsetsNotCoveringArcs) {
  TriangleCsr t;
  t.offsets.back() = 5;  // does not reach the arc count
  expect_rejected(
      [&] { std::ignore = Graph::from_csr(3, t.offsets, t.targets, t.weights); },
      "ragged offsets");
}

TEST(GraphFromCsr, RejectsNonPositiveWeight) {
  TriangleCsr t;
  t.weights[0] = 0.0;
  t.weights[2] = 0.0;
  expect_rejected(
      [&] { std::ignore = Graph::from_csr(3, t.offsets, t.targets, t.weights); },
      "positive and finite");
}

TEST(GraphFromCsr, RejectsSelfLoop) {
  const std::vector<eidx> offsets{0, 1, 2};
  const std::vector<vidx> targets{0, 1};  // 0->0 self-loop
  const std::vector<double> weights{1.0, 1.0};
  expect_rejected([&] { std::ignore = Graph::from_csr(2, offsets, targets, weights); },
                  "self-loops");
}

TEST(GraphFromCsr, RejectsTargetOutOfRange) {
  TriangleCsr t;
  t.targets[1] = 5;
  expect_rejected(
      [&] { std::ignore = Graph::from_csr(3, t.offsets, t.targets, t.weights); },
      "target out of range");
}

// --- Rejection parity across thread counts ---------------------------------

/// The what() of the invalid_argument_error `body` throws with the OpenMP
/// thread count set to `threads`; empty when nothing is thrown.
template <typename Body>
std::string rejection_at(int threads, Body&& body) {
  const int ambient = omp_get_max_threads();
  omp_set_num_threads(threads);
  std::string what;
  try {
    body();
  } catch (const invalid_argument_error& e) {
    what = e.what();
  }
  omp_set_num_threads(ambient);
  return what;
}

/// The CSR arrays of a graph, for corrupting.
struct CsrArrays {
  vidx n = 0;
  std::vector<eidx> offsets;
  std::vector<vidx> targets;
  std::vector<double> weights;

  explicit CsrArrays(const Graph& g) : n(g.num_vertices()) {
    for (vidx v = 0; v < n; ++v) {
      offsets.push_back(g.arc_begin(v));
      targets.insert(targets.end(), g.neighbors(v).begin(),
                     g.neighbors(v).end());
      weights.insert(weights.end(), g.weights(v).begin(), g.weights(v).end());
    }
    offsets.push_back(g.num_arcs());
  }

  /// Index of v's last arc (on a grid, the arc to v's highest neighbour).
  [[nodiscard]] std::size_t last_arc(vidx v) const {
    return static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]) -
           1;
  }

  void from_csr() const {
    std::ignore = Graph::from_csr(n, offsets, targets, weights);
  }
};

// A 64 x 64 grid splits into four 1024-vertex blocks at 4 threads. Each
// defect sits in the last block, on an arc to a higher vertex, so the
// defective row is the lowest violating one; the message at 4 threads must
// be the serial one, character for character.
TEST(GraphFromCsrParity, SameRejectionAtOneAndFourThreads) {
  const Graph grid = gen::grid2d(64, 64, gen::WeightSpec::uniform(1.0, 2.0), 3);
  constexpr vidx kRow = 3500;
  struct Case {
    const char* needle;
    void (*corrupt)(CsrArrays&);
  };
  const Case cases[] = {
      {"target out of range",
       [](CsrArrays& c) { c.targets[c.last_arc(kRow)] = c.n; }},
      {"self-loops",
       [](CsrArrays& c) { c.targets[c.last_arc(kRow)] = kRow; }},
      {"unsorted or duplicate arcs",
       [](CsrArrays& c) {
         const std::size_t k = c.last_arc(kRow);
         std::swap(c.targets[k - 1], c.targets[k]);
         std::swap(c.weights[k - 1], c.weights[k]);
       }},
      {"mirror arc missing",
       // kRow + 64 -> kRow + 65: still sorted, but not a grid neighbour.
       [](CsrArrays& c) { c.targets[c.last_arc(kRow)] += 1; }},
      {"mirror arc weight differs",
       [](CsrArrays& c) { c.weights[c.last_arc(kRow)] *= 2.0; }},
      {"positive and finite",
       [](CsrArrays& c) {
         c.weights[c.last_arc(kRow)] = std::numeric_limits<double>::infinity();
       }},
  };
  for (const Case& tc : cases) {
    CsrArrays csr(grid);
    tc.corrupt(csr);
    const std::string serial = rejection_at(1, [&] { csr.from_csr(); });
    EXPECT_NE(serial.find(tc.needle), std::string::npos)
        << "message was: " << serial;
    EXPECT_EQ(rejection_at(4, [&] { csr.from_csr(); }), serial) << tc.needle;
  }
}

TEST(GraphFromCsrParity, LowestViolatingVertexWinsAtEveryThreadCount) {
  // Two defects in different thread blocks: a NaN weight on vertex 3900 and
  // an out-of-range target on vertex 200. The serial scan reaches 200 first.
  const Graph grid = gen::grid2d(64, 64, gen::WeightSpec::unit(), 1);
  CsrArrays csr(grid);
  csr.weights[csr.last_arc(3900)] = std::nan("");
  csr.targets[csr.last_arc(200)] = -1;
  for (const int threads : {1, 2, 3, 4}) {
    const std::string what = rejection_at(threads, [&] { csr.from_csr(); });
    EXPECT_NE(what.find("target out of range"), std::string::npos)
        << "threads=" << threads << " message was: " << what;
  }
}

// --- Decomposition::validate ----------------------------------------------

TEST(DecompositionValidate, AcceptsExactCover) {
  const Graph g = gen::path(4);
  Decomposition d;
  d.assignment = {0, 0, 1, 1};
  d.num_clusters = 2;
  d.validate(g);
}

TEST(DecompositionValidate, RejectsOrphanVertexPartition) {
  const Graph g = gen::path(4);
  Decomposition d;
  d.assignment = {0, 0, 1};  // vertex 3 orphaned
  d.num_clusters = 2;
  expect_rejected([&] { d.validate(g); }, "orphan or surplus vertices");
}

TEST(DecompositionValidate, RejectsUnassignedVertex) {
  const Graph g = gen::path(3);
  Decomposition d;
  d.assignment = {0, -1, 1};
  d.num_clusters = 2;
  expect_rejected([&] { d.validate(g); }, "cluster id out of range");
}

TEST(DecompositionValidate, RejectsEmptyClusterId) {
  const Graph g = gen::path(3);
  Decomposition d;
  d.assignment = {0, 0, 2};  // id 1 unused
  d.num_clusters = 3;
  expect_rejected([&] { d.validate(g); }, "empty cluster id");
}

// --- RootedForest::from_parents -------------------------------------------

TEST(RootedForestFromParents, AcceptsValidForest) {
  const std::vector<vidx> parents{-1, 0, 0, 1, -1};
  const RootedForest f = RootedForest::from_parents(parents);
  EXPECT_EQ(f.roots().size(), 2u);
  f.validate();
}

TEST(RootedForestFromParents, RejectsCyclicParentArray) {
  // 1 -> 2 -> 3 -> 1 is a cycle unreachable from the root 0.
  const std::vector<vidx> parents{-1, 2, 3, 1};
  expect_rejected([&] { std::ignore = RootedForest::from_parents(parents); },
                  "cyclic parent array");
}

TEST(RootedForestFromParents, RejectsSelfParent) {
  const std::vector<vidx> parents{-1, 1};
  expect_rejected([&] { std::ignore = RootedForest::from_parents(parents); },
                  "its own parent");
}

TEST(RootedForestFromParents, RejectsAllCyclicNoRoot) {
  const std::vector<vidx> parents{1, 0};
  expect_rejected([&] { std::ignore = RootedForest::from_parents(parents); },
                  "cyclic parent array");
}

TEST(RootedForestFromParents, RejectsParentOutOfRange) {
  const std::vector<vidx> parents{-1, 7};
  expect_rejected([&] { std::ignore = RootedForest::from_parents(parents); },
                  "parent index out of range");
}

TEST(RootedForestFromParents, RejectsNonPositiveEdgeWeight) {
  const std::vector<vidx> parents{-1, 0};
  const std::vector<double> weights{0.0, -1.0};
  expect_rejected([&] { std::ignore = RootedForest::from_parents(parents, weights); },
                  "positive and finite");
}

// --- Validation levels ----------------------------------------------------

TEST(ValidationLevels, LevelConstantsAreOrdered) {
  EXPECT_LT(kValidateOff, kValidateCheap);
  EXPECT_LT(kValidateCheap, kValidateExpensive);
  // The build must compile with some recognised level.
  EXPECT_GE(validate_level(), kValidateOff);
  EXPECT_LE(validate_level(), kValidateExpensive);
}

TEST(ValidationLevels, CheapValidateMacroFiresAtCheapLevel) {
  if (validate_level() >= kValidateCheap) {
    EXPECT_THROW(HICOND_VALIDATE(cheap, false, "cheap probe"),
                 invalid_argument_error);
  } else {
    EXPECT_NO_THROW(HICOND_VALIDATE(cheap, false, "cheap probe"));
  }
}

TEST(ValidationLevels, ExpensiveValidateMacroRespectsLevel) {
  if (validate_level() >= kValidateExpensive) {
    EXPECT_THROW(HICOND_VALIDATE(expensive, false, "expensive probe"),
                 invalid_argument_error);
  } else {
    EXPECT_NO_THROW(HICOND_VALIDATE(expensive, false, "expensive probe"));
  }
}

TEST(ValidationLevels, CheckIsAlwaysOn) {
  EXPECT_THROW(HICOND_CHECK(false, "always-on probe"),
               invalid_argument_error);
}

}  // namespace
}  // namespace hicond
