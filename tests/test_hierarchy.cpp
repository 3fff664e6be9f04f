#include "hicond/partition/hierarchy.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"

namespace hicond {
namespace {

TEST(Hierarchy, TerminatesAtCoarsestSize) {
  const Graph g = gen::grid2d(20, 20, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 50});
  EXPECT_LE(h.coarsest.num_vertices(), 50);
  EXPECT_GE(h.num_levels(), 1);
}

TEST(Hierarchy, LevelsShrinkGeometrically) {
  const Graph g = gen::grid2d(24, 24, gen::WeightSpec::uniform(1.0, 2.0), 5);
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 20});
  for (std::size_t l = 0; l + 1 < h.levels.size(); ++l) {
    EXPECT_LE(h.levels[l + 1].graph.num_vertices(),
              h.levels[l].graph.num_vertices() / 2 + 1)
        << "level " << l;
  }
}

TEST(Hierarchy, QuotientChainIsConsistent) {
  const Graph g = gen::grid3d(6, 6, 6, gen::WeightSpec::uniform(1.0, 3.0), 7);
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 10});
  for (std::size_t l = 0; l < h.levels.size(); ++l) {
    const auto& lv = h.levels[l];
    lv.decomposition.validate(lv.graph);
    const vidx next_n = (l + 1 < h.levels.size())
                            ? h.levels[l + 1].graph.num_vertices()
                            : h.coarsest.num_vertices();
    EXPECT_EQ(lv.decomposition.num_clusters, next_n) << "level " << l;
  }
}

TEST(Hierarchy, ConnectivityPreservedByContraction) {
  const Graph g = gen::oct_volume(8, 8, 4, {}, 9);
  ASSERT_TRUE(is_connected(g));
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 8});
  for (const auto& lv : h.levels) EXPECT_TRUE(is_connected(lv.graph));
  EXPECT_TRUE(is_connected(h.coarsest));
}

TEST(Hierarchy, TotalWeightIsNonIncreasing) {
  // Contraction removes intra-cluster weight, so total volume shrinks.
  const Graph g = gen::grid2d(16, 16, gen::WeightSpec::uniform(1.0, 2.0), 11);
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 16});
  double prev = g.total_volume();
  for (std::size_t l = 1; l < h.levels.size(); ++l) {
    EXPECT_LE(h.levels[l].graph.total_volume(), prev + 1e-9);
    prev = h.levels[l].graph.total_volume();
  }
}

TEST(Hierarchy, FlattenComposesToCoarsest) {
  const Graph g = gen::grid2d(12, 12, gen::WeightSpec::uniform(1.0, 2.0), 13);
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 12});
  const Decomposition flat = h.flatten();
  EXPECT_EQ(flat.assignment.size(), 144u);
  EXPECT_EQ(flat.num_clusters, h.coarsest.num_vertices());
  flat.validate(g);
}

TEST(Hierarchy, SmallInputYieldsNoLevels) {
  const Graph g = gen::path(5);
  const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 10});
  EXPECT_EQ(h.num_levels(), 0);
  EXPECT_EQ(h.coarsest.num_vertices(), 5);
}

TEST(Hierarchy, MaxLevelsRespected) {
  const Graph g = gen::grid2d(16, 16, gen::WeightSpec::uniform(1.0, 2.0), 15);
  HierarchyOptions opt;
  opt.coarsest_size = 1;
  opt.max_levels = 2;
  const LaminarHierarchy h = build_hierarchy(g, opt);
  EXPECT_LE(h.num_levels(), 2);
}

}  // namespace
}  // namespace hicond
