// Random-walker segmentation on a synthetic noisy image -- the classic
// seeded-segmentation algorithm used on medical scans, i.e. exactly the
// Laplacian workload the paper's Section 3.2 experiments target.
//
// Pixels are vertices, similar neighbours get heavy edges; each user "seed"
// pins a class; the per-class probability that a random walk first hits a
// seed of that class is a harmonic extension (one Dirichlet problem per
// class, all solved as one batch) and the argmax labels every pixel.
//
//   ./random_walker [side] [noise]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "hicond/graph/builder.hpp"
#include "hicond/la/dirichlet.hpp"
#include "hicond/util/rng.hpp"
#include "hicond/util/timer.hpp"

namespace {

using namespace hicond;

std::vector<double> synthesize(vidx side, double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> img(static_cast<std::size_t>(side) *
                          static_cast<std::size_t>(side));
  for (vidx y = 0; y < side; ++y) {
    for (vidx x = 0; x < side; ++x) {
      double value = 0.15;
      const double cx = 0.3 * side;
      const double cy = 0.35 * side;
      const double r = 0.2 * side;
      if ((x - cx) * (x - cx) + (y - cy) * (y - cy) < r * r) value = 0.85;
      if (x > 0.55 * side && y > 0.5 * side && x < 0.92 * side &&
          y < 0.88 * side) {
        value = 0.5;
      }
      img[static_cast<std::size_t>(x + side * y)] =
          value + noise * rng.normal();
    }
  }
  return img;
}

}  // namespace

int main(int argc, char** argv) {
  const vidx side = argc > 1 ? static_cast<vidx>(std::atoi(argv[1])) : 40;
  const double noise = argc > 2 ? std::atof(argv[2]) : 0.08;
  const std::vector<double> img = synthesize(side, noise, 3);

  // Similarity graph (Grady's weighting): w = exp(-beta (dI)^2).
  const double beta = 60.0;
  GraphBuilder b(side * side);
  auto id = [side](vidx x, vidx y) { return x + side * y; };
  auto weight = [&](vidx p, vidx q) {
    const double d = img[static_cast<std::size_t>(p)] -
                     img[static_cast<std::size_t>(q)];
    return std::exp(-beta * d * d) + 1e-6;
  };
  for (vidx y = 0; y < side; ++y) {
    for (vidx x = 0; x < side; ++x) {
      if (x + 1 < side) {
        b.add_edge(id(x, y), id(x + 1, y), weight(id(x, y), id(x + 1, y)));
      }
      if (y + 1 < side) {
        b.add_edge(id(x, y), id(x, y + 1), weight(id(x, y), id(x, y + 1)));
      }
    }
  }
  const Graph g = b.build();

  // Seeds: one pixel inside each region + a few background pixels (one per
  // far corner, as a user would click).
  const std::vector<std::vector<vidx>> seeds{
      {id(static_cast<vidx>(0.3 * side), static_cast<vidx>(0.35 * side))},
      {id(static_cast<vidx>(0.75 * side), static_cast<vidx>(0.7 * side))},
      {id(1, 1), id(side - 2, 1), id(1, side - 2)},
  };
  std::printf("random-walker segmentation: %dx%d image, noise %.2f, "
              "%zu seed classes\n",
              side, side, noise, seeds.size());
  Timer t;
  const auto labels = random_walker_segmentation(g, seeds);
  std::printf("3 Dirichlet solves in %s\n", format_duration(t.seconds()).c_str());

  // Accuracy against the noise-free ground truth.
  const std::vector<double> clean = synthesize(side, 0.0, 3);
  auto truth_of = [&](vidx p) {
    if (clean[static_cast<std::size_t>(p)] > 0.7) return 0;
    if (clean[static_cast<std::size_t>(p)] > 0.3) return 1;
    return 2;
  };
  vidx correct = 0;
  for (vidx p = 0; p < side * side; ++p) {
    if (labels[static_cast<std::size_t>(p)] == truth_of(p)) ++correct;
  }
  std::printf("accuracy vs noise-free truth: %.1f%%\n",
              100.0 * correct / (side * side));

  const char* glyphs = "#=.";
  const vidx step = std::max<vidx>(1, side / 48);
  for (vidx y = 0; y < side; y += step) {
    for (vidx x = 0; x < side; x += step) {
      std::putchar(glyphs[static_cast<std::size_t>(
          labels[static_cast<std::size_t>(id(x, y))]) % 3]);
    }
    std::putchar('\n');
  }
  return 0;
}
