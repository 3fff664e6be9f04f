#include "hicond/tree/tree_decomposition.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"

namespace hicond {
namespace {

struct TreeCase {
  const char* name;
  Graph graph;
};

TreeCase make_case(const char* name, Graph g) { return {name, std::move(g)}; }

class TreeDecompositionFamilies : public testing::TestWithParam<int> {
 public:
  static const std::vector<TreeCase>& cases() {
    static const std::vector<TreeCase> all = make_cases();
    return all;
  }

 private:
  static std::vector<TreeCase> make_cases() {
    std::vector<TreeCase> all;
    all.push_back(make_case("path_unit", gen::path(30)));
    all.push_back(make_case(
        "path_weighted", gen::path(40, gen::WeightSpec::uniform(0.5, 5.0), 3)));
    all.push_back(make_case("star", gen::star(25)));
    all.push_back(make_case("spider", gen::spider(5, 4)));
    all.push_back(make_case("caterpillar", gen::caterpillar(10, 3)));
    all.push_back(make_case("binary", gen::binary_tree(6)));
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      all.push_back(make_case(
          "random_unit",
          gen::random_tree(60, gen::WeightSpec::unit(), seed)));
      all.push_back(make_case(
          "random_weighted",
          gen::random_tree(60, gen::WeightSpec::lognormal(0.0, 1.0), seed)));
      all.push_back(make_case(
          "pruefer",
          gen::random_pruefer_tree(50, gen::WeightSpec::uniform(1.0, 3.0),
                                   seed)));
    }
    return all;
  }
};

TEST_P(TreeDecompositionFamilies, ProducesValidDecomposition) {
  const auto& tc = cases()[static_cast<std::size_t>(GetParam())];
  const Decomposition d = tree_decomposition(tc.graph);
  d.validate(tc.graph);
  const DecompositionStats stats = evaluate_decomposition(tc.graph, d);
  EXPECT_EQ(stats.num_disconnected_clusters, 0) << tc.name;
}

TEST_P(TreeDecompositionFamilies, ReductionFactorAtLeastSixFifths) {
  const auto& tc = cases()[static_cast<std::size_t>(GetParam())];
  const Decomposition d = tree_decomposition(tc.graph);
  EXPECT_GE(d.reduction_factor(), 6.0 / 5.0 - 1e-9) << tc.name;
}

TEST_P(TreeDecompositionFamilies, ClosureConductanceBounded) {
  // The paper states [1/2, 6/5]; under the standard conductance definition
  // a long unit path caps any rho >= 6/5 decomposition at phi = 1/3 (an
  // interior pair's closure is x-u1-u2-y with phi = w/(w + 2 min(b1, b2))).
  // We therefore certify the tight constant phi >= 1/3 for unit-ish weights
  // and a degree-dependent floor in general; EXPERIMENTS.md discusses the
  // discrepancy.
  const auto& tc = cases()[static_cast<std::size_t>(GetParam())];
  const Decomposition d = tree_decomposition(tc.graph);
  const DecompositionStats stats = evaluate_decomposition(tc.graph, d);
  EXPECT_GT(stats.min_phi_lower, 0.0) << tc.name;
  const double dmax = static_cast<double>(tc.graph.max_degree());
  EXPECT_GE(stats.min_phi_lower, 1.0 / (4.0 * dmax) - 1e-9) << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, TreeDecompositionFamilies,
    testing::Range(0, static_cast<int>(
                          TreeDecompositionFamilies::cases().size())));

TEST(TreeDecomposition, UnitPathAchievesOneThird) {
  const Graph g = gen::path(60);
  const Decomposition d = tree_decomposition(g);
  const DecompositionStats stats = evaluate_decomposition(g, d);
  EXPECT_GE(stats.min_phi_lower, 1.0 / 3.0 - 1e-9);
  EXPECT_GE(stats.reduction_factor, 1.2);
}

TEST(TreeDecomposition, TinyTreesAreSingleClusters) {
  for (vidx n : {1, 2, 3}) {
    const Graph g = gen::path(n);
    const Decomposition d = tree_decomposition(g);
    EXPECT_EQ(d.num_clusters, 1) << "n=" << n;
  }
}

TEST(TreeDecomposition, EmptyGraph) {
  const Decomposition d = tree_decomposition(Graph(0));
  EXPECT_EQ(d.num_clusters, 0);
}

TEST(TreeDecomposition, ForestHandledPerComponent) {
  std::vector<WeightedEdge> edges;
  // Three disjoint paths of 8.
  for (int c = 0; c < 3; ++c) {
    for (vidx v = 0; v < 7; ++v) {
      edges.push_back({static_cast<vidx>(c * 8 + v),
                       static_cast<vidx>(c * 8 + v + 1), 1.0});
    }
  }
  const Graph g(24, edges);
  const Decomposition d = tree_decomposition(g);
  d.validate(g);
  // No cluster spans components.
  const auto comp = connected_components(g);
  std::vector<vidx> cluster_comp(static_cast<std::size_t>(d.num_clusters), -1);
  for (vidx v = 0; v < 24; ++v) {
    const vidx c = d.assignment[static_cast<std::size_t>(v)];
    if (cluster_comp[static_cast<std::size_t>(c)] == -1) {
      cluster_comp[static_cast<std::size_t>(c)] =
          comp[static_cast<std::size_t>(v)];
    }
    EXPECT_EQ(cluster_comp[static_cast<std::size_t>(c)],
              comp[static_cast<std::size_t>(v)]);
  }
}

TEST(TreeDecomposition, IsolatedVerticesBecomeSingletons) {
  std::vector<WeightedEdge> edges{{0, 1, 1.0}};
  const Graph g(4, edges);  // vertices 2, 3 isolated
  const Decomposition d = tree_decomposition(g);
  d.validate(g);
  EXPECT_EQ(d.num_clusters, 3);
}

TEST(TreeDecomposition, RejectsNonForest) {
  EXPECT_THROW((void)tree_decomposition(gen::cycle(5)),
               invalid_argument_error);
}

TEST(TreeDecomposition, HeavyPendantTriplesAreKeptTogether) {
  // Spider with unit legs: pairs {inner, leaf} should form (conductance 1),
  // leaving the center as a singleton cluster.
  const Graph g = gen::spider(6, 2);
  const Decomposition d = tree_decomposition(g);
  const DecompositionStats stats = evaluate_decomposition(g, d);
  EXPECT_GE(stats.min_phi_lower, 1.0 - 1e-9);
  EXPECT_EQ(d.num_clusters, 7);  // 6 leg pairs + center
}

TEST(TreeDecomposition, LargeRandomTreesStressValidity) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g =
        gen::random_tree(5000, gen::WeightSpec::lognormal(0.0, 2.0), seed);
    const Decomposition d = tree_decomposition(g);
    d.validate(g);
    EXPECT_GE(d.reduction_factor(), 1.2) << "seed " << seed;
  }
}

TEST(TreeDecomposition, DeterministicForFixedInput) {
  const Graph g = gen::random_tree(100, gen::WeightSpec::uniform(1.0, 2.0), 7);
  const Decomposition d1 = tree_decomposition(g);
  const Decomposition d2 = tree_decomposition(g);
  EXPECT_EQ(d1.assignment, d2.assignment);
}

/// FNV-1a 64 of the cluster count and the assignment bytes.
std::uint64_t assignment_fnv(const Decomposition& d) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  fold(&d.num_clusters, sizeof d.num_clusters);
  fold(d.assignment.data(), d.assignment.size() * sizeof(vidx));
  return h;
}

TEST(TreeDecomposition, AssignmentsMatchPinnedConstants) {
  // The planner's decisions on hub-heavy and weighted trees. Its candidate
  // clusters have 2-3 members and ties between candidates are broken on
  // exactly equal scores, so a change in how a candidate's closure
  // conductance is evaluated (even in the last bits) shows up here.
  struct Pin {
    const char* name;
    Graph graph;
    std::uint64_t fnv;
  };
  const Pin pins[] = {
      {"caterpillar(200, 20)", gen::caterpillar(200, 20),
       3134017298416098237ULL},
      {"spider(30, 5)", gen::spider(30, 5), 8282950339728640932ULL},
      {"star(50)", gen::star(50), 5168460237950343140ULL},
      {"binary_tree(10) lognormal",
       gen::binary_tree(10, gen::WeightSpec::lognormal(0.0, 1.0), 5),
       955507456733103189ULL},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(assignment_fnv(tree_decomposition(pin.graph)), pin.fnv)
        << pin.name;
  }
}

}  // namespace
}  // namespace hicond
