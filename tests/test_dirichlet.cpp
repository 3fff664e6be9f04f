#include "hicond/la/dirichlet.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "hicond/graph/generators.hpp"

namespace hicond {
namespace {

TEST(HarmonicExtension, LinearOnUnitPath) {
  // Path with unit weights, boundary at the two ends: the harmonic
  // extension is linear interpolation.
  const Graph g = gen::path(6);
  const std::vector<vidx> boundary{0, 5};
  const std::vector<double> values{0.0, 1.0};
  const auto x = harmonic_extension(g, boundary, values);
  for (vidx v = 0; v < 6; ++v) {
    EXPECT_NEAR(x[static_cast<std::size_t>(v)], v / 5.0, 1e-10);
  }
}

TEST(HarmonicExtension, WeightedPathVoltageDivider) {
  // Conductances 2 and 1 in series between potentials 0 and 1: the middle
  // potential is r1/(r1+r2) = (1/2)/(1/2 + 1) = 1/3.
  std::vector<WeightedEdge> edges{{0, 1, 2.0}, {1, 2, 1.0}};
  const Graph g(3, edges);
  const std::vector<vidx> boundary{0, 2};
  const std::vector<double> values{0.0, 1.0};
  const auto x = harmonic_extension(g, boundary, values);
  EXPECT_NEAR(x[1], 1.0 / 3.0, 1e-12);
}

TEST(HarmonicExtension, MaximumPrinciple) {
  // Interior values lie strictly within the boundary range.
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 3.0), 3);
  std::vector<vidx> boundary;
  std::vector<double> values;
  for (vidx v = 0; v < 8; ++v) {
    boundary.push_back(v);  // top row = 1
    values.push_back(1.0);
    boundary.push_back(56 + v);  // bottom row = -1
    values.push_back(-1.0);
  }
  const auto x = harmonic_extension(g, boundary, values);
  for (double v : x) {
    EXPECT_GE(v, -1.0 - 1e-10);
    EXPECT_LE(v, 1.0 + 1e-10);
  }
  // Somewhere strictly interior.
  EXPECT_GT(x[4 * 8 + 4], -1.0 + 1e-6);
  EXPECT_LT(x[4 * 8 + 4], 1.0 - 1e-6);
}

TEST(HarmonicExtension, SatisfiesLaplaceEquationInInterior) {
  const Graph g = gen::oct_volume(5, 5, 5, {}, 5);
  const std::vector<vidx> boundary{0, 124};
  const std::vector<double> values{2.0, -3.0};
  const auto x = harmonic_extension(g, boundary, values);
  // (L x)_v = 0 for interior v.
  std::vector<double> lx(x.size());
  g.laplacian_apply(x, lx);
  for (vidx v = 1; v < 124; ++v) {
    EXPECT_NEAR(lx[static_cast<std::size_t>(v)], 0.0, 1e-8) << "v=" << v;
  }
}

TEST(HarmonicExtension, AllBoundaryIsIdentity) {
  const Graph g = gen::path(3);
  const std::vector<vidx> boundary{0, 1, 2};
  const std::vector<double> values{3.0, 1.0, 2.0};
  EXPECT_EQ(harmonic_extension(g, boundary, values), values);
}

TEST(HarmonicExtension, RejectsBadInput) {
  const Graph g = gen::path(4);
  const std::vector<vidx> dup{1, 1};
  const std::vector<double> vals{0.0, 1.0};
  EXPECT_THROW((void)harmonic_extension(g, dup, vals),
               invalid_argument_error);
  const std::vector<vidx> oob{9};
  const std::vector<double> one{0.0};
  EXPECT_THROW((void)harmonic_extension(g, oob, one), invalid_argument_error);
  // Component without boundary: singular interior block.
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {2, 3, 1.0}};
  const Graph h(4, edges);
  const std::vector<vidx> b0{0};
  const std::vector<double> v0{1.0};
  EXPECT_THROW((void)harmonic_extension(h, b0, v0), numeric_error);
}

TEST(RandomWalker, ProbabilitiesSumToOne) {
  const Graph g = gen::grid2d(6, 6, gen::WeightSpec::uniform(1.0, 2.0), 9);
  const std::vector<std::vector<vidx>> seeds{{0}, {35}, {5}};
  const auto probs = random_walker_probabilities(g, seeds);
  ASSERT_EQ(probs.size(), 3u);
  for (vidx v = 0; v < 36; ++v) {
    double total = 0.0;
    for (const auto& p : probs) {
      EXPECT_GE(p[static_cast<std::size_t>(v)], -1e-10);
      total += p[static_cast<std::size_t>(v)];
    }
    EXPECT_NEAR(total, 1.0, 1e-8);
  }
}

TEST(RandomWalker, SegmentsPlantedClusters) {
  // Two cliques, one seed each: segmentation = the cliques.
  std::vector<WeightedEdge> edges;
  for (vidx c = 0; c < 2; ++c) {
    for (vidx i = 0; i < 6; ++i) {
      for (vidx j = i + 1; j < 6; ++j) {
        edges.push_back({static_cast<vidx>(c * 6 + i),
                         static_cast<vidx>(c * 6 + j), 1.0});
      }
    }
  }
  edges.push_back({0, 6, 0.01});
  const Graph g(12, edges);
  const std::vector<std::vector<vidx>> seeds{{1}, {7}};
  const auto labels = random_walker_segmentation(g, seeds);
  for (vidx v = 0; v < 6; ++v) EXPECT_EQ(labels[static_cast<std::size_t>(v)], 0);
  for (vidx v = 6; v < 12; ++v) EXPECT_EQ(labels[static_cast<std::size_t>(v)], 1);
}

TEST(RandomWalker, SeedsKeepTheirLabels) {
  const Graph g = gen::grid2d(5, 5, gen::WeightSpec::uniform(1.0, 2.0), 11);
  const std::vector<std::vector<vidx>> seeds{{0, 1}, {24}};
  const auto labels = random_walker_segmentation(g, seeds);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 0);
  EXPECT_EQ(labels[24], 1);
}

TEST(RandomWalker, RejectsDegenerateSeeds) {
  const Graph g = gen::path(5);
  const std::vector<std::vector<vidx>> one{{0}};
  EXPECT_THROW((void)random_walker_probabilities(g, one),
               invalid_argument_error);
  const std::vector<std::vector<vidx>> empty_class{{0}, {}};
  EXPECT_THROW((void)random_walker_probabilities(g, empty_class),
               invalid_argument_error);
}

}  // namespace
}  // namespace hicond
