// paper_claims -- every empirical claim of the paper, measured and checked.
//
// Emits one JSON document with one row per check, {id, check, measured,
// bound, holds, gated}; the ids are the experiment ids of DESIGN.md
// section 3, and `series` carries the curves and sweeps behind the rows.
// A row is gated when its measurement is a deterministic function of
// seeded inputs. Wall-clock rows (the TAB-R1 speedup, TAB-TDBU build
// times, TAB-HIER and TAB-ABL-c timings) and the documented Theorem 2.1
// phi gap are reported only. Exits 1 when any gated row fails and names
// each failing row on stderr.
//
//   paper_claims [--scale small|paper] [--out FILE]
//
// `small` is the ctest gate; `paper` regenerates EXPERIMENTS.md.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hicond/graph/builder.hpp"
#include "hicond/graph/conductance.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/quotient.hpp"
#include "hicond/la/cg.hpp"
#include "hicond/la/dense_eigen.hpp"
#include "hicond/la/lanczos.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/partition/planar.hpp"
#include "hicond/partition/refinement.hpp"
#include "hicond/partition/spectral_partition.hpp"
#include "hicond/precond/multilevel.hpp"
#include "hicond/precond/schur.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/precond/steiner_tree.hpp"
#include "hicond/precond/subgraph.hpp"
#include "hicond/precond/support.hpp"
#include "hicond/spectral/portrait.hpp"
#include "hicond/tree/mst.hpp"
#include "hicond/tree/tree_decomposition.hpp"
#include "hicond/util/parallel.hpp"
#include "hicond/util/rng.hpp"
#include "hicond/util/timer.hpp"

namespace {

using namespace hicond;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Problem sizes per scale. `paper` is the configuration EXPERIMENTS.md
/// reports; `small` keeps every claim but shrinks the graphs.
struct Scale {
  vidx fig6_side;                 // OCT volume side, FIG6
  std::vector<vidx> r1_sides;     // 3D grid sides, TAB-R1
  vidx tree_n;                    // tree size, TAB-T21
  vidx planar_n;                  // triangulation size, TAB-T22/T23
  vidx planar_grid;               // grid side, TAB-T22/T23
  vidx s31_side2, s31_side3;      // 2D / 3D sides, TAB-S31 floor
  std::vector<vidx> kappa_sides;  // 2D grid sides, TAB-S31 kappa sweep
  std::vector<vidx> oct_sides;    // OCT sides, TAB-S31 kappa sweep
  std::vector<vidx> hier_sides;   // OCT sides, TAB-HIER
  vidx tdbu_grid, tdbu_oct, tdbu_planar;
  vidx abl_grid, abl_oct;         // TAB-ABL (a), (b)
  std::vector<vidx> abl_sides;    // TAB-ABL (c), (e), (f)
};

Scale small_scale() {
  return {.fig6_side = 12, .r1_sides = {16}, .tree_n = 80, .planar_n = 100,
          .planar_grid = 10, .s31_side2 = 10, .s31_side3 = 5,
          .kappa_sides = {8, 12, 16}, .oct_sides = {6, 8},
          .hier_sides = {6, 8, 10}, .tdbu_grid = 10, .tdbu_oct = 5,
          .tdbu_planar = 100, .abl_grid = 8, .abl_oct = 6,
          .abl_sides = {6, 8}};
}

Scale paper_scale() {
  return {.fig6_side = 16, .r1_sides = {16, 25, 40, 63, 100}, .tree_n = 400,
          .planar_n = 400, .planar_grid = 24, .s31_side2 = 20,
          .s31_side3 = 8, .kappa_sides = {8, 12, 16, 24, 32, 48},
          .oct_sides = {6, 8, 10, 13, 16}, .hier_sides = {8, 12, 16, 20, 26},
          .tdbu_grid = 30, .tdbu_oct = 10, .tdbu_planar = 800,
          .abl_grid = 16, .abl_oct = 10, .abl_sides = {10, 14, 18}};
}

class Ledger {
 public:
  void at_least(const char* id, const char* check, double measured,
                double bound, bool gated = true) {
    rows_.push_back({id, check, measured, bound, measured >= bound, gated});
  }
  void at_most(const char* id, const char* check, double measured,
               double bound, bool gated = true) {
    rows_.push_back({id, check, measured, bound, measured <= bound, gated});
  }
  void series(std::string name, std::vector<double> values) {
    series_.emplace_back(std::move(name), std::move(values));
  }

  /// Writes the document; returns the number of failed gated rows, each
  /// named on stderr.
  int report(std::string_view scale, std::string* out) const {
    int failed = 0;
    obs::JsonWriter w;
    w.begin_object()
        .kv("schema", "hicond.paper_claims/1")
        .kv("scale", scale)
        .kv("threads", num_threads());
    w.key("rows").begin_array();
    for (const Row& r : rows_) {
      w.begin_object()
          .kv("id", r.id)
          .kv("check", r.check)
          .kv("measured", r.measured)
          .kv("bound", r.bound)
          .kv("holds", r.holds)
          .kv("gated", r.gated)
          .end_object();
      if (r.gated && !r.holds) {
        ++failed;
        std::fprintf(stderr, "paper_claims: FAIL %s: %s (measured %g, "
                     "bound %g)\n", r.id, r.check, r.measured, r.bound);
      }
    }
    w.end_array().key("series").begin_object();
    for (const auto& [name, values] : series_) {
      w.key(name).values(values);
    }
    w.end_object().kv("failed", failed).end_object();
    *out = w.str();
    return failed;
  }

 private:
  struct Row {
    const char* id;
    const char* check;
    double measured;
    double bound;
    bool holds;
    bool gated;
  };
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

/// (P)CG on the Laplacian of g from a seeded mean-free right-hand side;
/// m == nullptr is plain CG.
SolveStats solve(const Graph& g, const LinearOperator* m, bool flexible,
                 const CgOptions& opt) {
  Rng rng(17);
  std::vector<double> b(static_cast<std::size_t>(g.num_vertices()));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  std::vector<double> x(b.size(), 0.0);
  if (m == nullptr) return cg_solve(a, b, x, opt);
  return flexible ? flexible_pcg_solve(a, *m, b, x, opt)
                  : pcg_solve(a, *m, b, x, opt);
}

/// PCG iterations to 1e-8 relative residual, or -1 when not converged.
int iterations(const Graph& g, const LinearOperator* m, bool flexible) {
  const SolveStats s = solve(
      g, m, flexible,
      {.max_iterations = 20000, .rel_tolerance = 1e-8,
       .project_constant = true});
  return s.converged ? s.iterations : -1;
}

Decomposition section31(const Graph& g, vidx k = 4) {
  return fixed_degree_decomposition(g, {.max_cluster_size = k}).decomposition;
}

Graph oct(vidx side, std::uint64_t seed) {
  return gen::oct_volume(side, side, side, {.field_orders = 3.0}, seed);
}

LaminarHierarchy hierarchy(const Graph& g) {
  return build_hierarchy(
      g, {.contraction = {.max_cluster_size = 4}, .coarsest_size = 100});
}

void fig6(const Scale& s, Ledger& led) {
  const Graph g = gen::oct_volume(s.fig6_side, s.fig6_side, s.fig6_side,
                                  {.field_orders = 3.0, .speckle_sigma = 0.5},
                                  13);
  const SteinerPreconditioner steiner =
      SteinerPreconditioner::build(g, section31(g));
  // The subgraph core is left about 2x larger than the Steiner quotient,
  // so the comparison favours the subgraph side.
  const SubgraphPreconditioner subgraph = SubgraphPreconditioner::build(
      g, {.target_subtrees = std::max<vidx>(2, g.num_vertices() / 32)});
  auto curve = [&g](const LinearOperator& m) {
    std::vector<double> c =
        solve(g, &m, false, {.max_iterations = 500, .rel_tolerance = 1e-14,
                             .record_history = true,
                             .project_constant = true})
            .residual_history;
    for (double& v : c) v /= c.front();
    const auto hit = std::find_if(c.begin(), c.end(),
                                  [](double v) { return v <= 1e-8; });
    return std::pair{c, static_cast<double>(hit - c.begin())};
  };
  auto [s_curve, s_iters] = curve(steiner.as_operator());
  auto [g_curve, g_iters] = curve(subgraph.as_operator());
  led.at_least("FIG6",
               "subgraph / Steiner PCG iterations to 1e-8 (Steiner "
               "converges faster)",
               g_iters / s_iters, 1.0);
  led.series("FIG6.steiner_residual", std::move(s_curve));
  led.series("FIG6.subgraph_residual", std::move(g_curve));
}

void remark1(const Scale& s, Ledger& led) {
  double speedup = 0.0;
  std::vector<double> series;
  for (vidx side : s.r1_sides) {
    const Graph g = gen::grid3d(side, side, side,
                                gen::WeightSpec::uniform(1.0, 2.0), 7);
    const int reps = side <= 40 ? 3 : 1;
    const double cluster =
        time_best_of(reps, [&g] { (void)section31(g); });
    const double kruskal =
        time_best_of(reps, [&g] { (void)max_spanning_forest_kruskal(g); });
    const double boruvka =
        time_best_of(reps, [&g] { (void)max_spanning_forest_boruvka(g); });
    speedup = std::min(kruskal, boruvka) / cluster;
    series.insert(series.end(), {static_cast<double>(g.num_vertices()),
                                 cluster * 1e3, kruskal * 1e3,
                                 boruvka * 1e3});
  }
  led.at_least("TAB-R1",
               "best MST time / clustering time at the largest grid (wall "
               "clock)",
               speedup, 4.0, false);
  led.series("TAB-R1.n_cluster_kruskal_boruvka_ms", std::move(series));
}

void theorem21(const Scale& s, Ledger& led) {
  const vidx n = s.tree_n;
  std::vector<Graph> unit = {gen::path(n), gen::star(n / 2),
                             gen::spider(n / 20, 10),
                             gen::caterpillar(n / 8, 4),
                             gen::binary_tree(std::bit_width(
                                 static_cast<unsigned>(n)) - 1)};
  std::vector<Graph> weighted = {
      gen::path(n, gen::WeightSpec::lognormal(0, 1), 3)};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    unit.push_back(gen::random_tree(n, gen::WeightSpec::unit(), seed));
    weighted.push_back(
        gen::random_tree(n, gen::WeightSpec::lognormal(0, 2), seed));
    weighted.push_back(
        gen::random_pruefer_tree(n, gen::WeightSpec::uniform(1, 4), seed));
  }
  double rho = kInf;
  double phi_unit = kInf;
  double phi = kInf;
  for (const auto* family : {&unit, &weighted}) {
    for (const Graph& t : *family) {
      const DecompositionStats st =
          evaluate_decomposition(t, tree_decomposition(t));
      rho = std::min(rho, st.reduction_factor);
      phi = std::min(phi, st.min_phi_lower);
      if (family == &unit) phi_unit = std::min(phi_unit, st.min_phi_lower);
    }
  }
  led.at_least("TAB-T21", "min rho over tree families", rho, 6.0 / 5.0);
  led.at_least("TAB-T21",
               "min phi over unit-weight trees (tight value on unit paths)",
               phi_unit, 1.0 / 3.0 - 1e-12);
  led.at_least("TAB-T21",
               "min phi over all trees (paper's 1/2; documented gap)", phi,
               0.5, false);
}

void theorems22_23(const Scale& s, Ledger& led) {
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    graphs.push_back(gen::random_planar_triangulation(
        s.planar_n, gen::WeightSpec::uniform(1, 4), seed));
  }
  graphs.push_back(gen::grid2d(s.planar_grid, s.planar_grid,
                               gen::WeightSpec::uniform(1, 2), 5));
  graphs.push_back(gen::grid2d(s.planar_grid, s.planar_grid,
                               gen::WeightSpec::lognormal(0, 2), 7));
  for (const SpanningTreeKind kind :
       {SpanningTreeKind::max_weight, SpanningTreeKind::low_stretch}) {
    const bool mst = kind == SpanningTreeKind::max_weight;
    double transfer = kInf;
    std::vector<double> k_phi_rho;
    for (const Graph& g : graphs) {
      const PlanarDecompResult r = planar_decomposition(g, {.tree_kind = kind});
      const auto in_a = evaluate_decomposition(g, r.decomposition);
      const auto in_b = evaluate_decomposition(r.subgraph_b, r.decomposition);
      transfer = std::min(
          transfer, in_a.min_phi_lower * r.measured_k / in_b.min_phi_lower);
      k_phi_rho.insert(k_phi_rho.end(),
                       {r.measured_k, in_a.min_phi_lower,
                        in_a.reduction_factor});
    }
    led.at_least(mst ? "TAB-T22" : "TAB-T23",
                 "min phi_A k / phi_B (phi_A >= phi_B / k)", transfer, 1.0);
    led.series(mst ? "TAB-T22.k_phi_rho" : "TAB-T23.k_phi_rho",
               std::move(k_phi_rho));
  }
}

void section31_claims(const Scale& s, Ledger& led) {
  const vidx a = s.s31_side2;
  const vidx b = s.s31_side3;
  const gen::WeightSpec w = gen::WeightSpec::uniform(1, 2);
  const std::vector<Graph> graphs = {
      gen::grid2d(a, a, w, 3), gen::torus2d(a, a, w, 3),
      gen::grid3d(b, b, b, w, 3), gen::random_regular(a * a, 4, w, 3),
      gen::oct_volume(b, b, b, {}, 3)};
  double floor_ratio = kInf;
  double rho = kInf;
  for (const Graph& g : graphs) {
    const double d = static_cast<double>(g.max_degree());
    for (vidx k : {2, 4, 8}) {
      const auto st = evaluate_decomposition(g, section31(g, k));
      floor_ratio =
          std::min(floor_ratio, st.min_phi_lower * (2.0 * d * d * k));
      rho = std::min(rho, st.reduction_factor);
    }
  }
  led.at_least("TAB-S31", "min phi / (1/(2 d^2 k))", floor_ratio, 1.0);
  led.at_least("TAB-S31", "min rho", rho, 2.0);

  // Constant condition number: kappa(A, M_steiner) across the n sweep.
  auto kappa = [](const Graph& g) {
    const SteinerPreconditioner sp =
        SteinerPreconditioner::build(g, section31(g));
    auto op = [&g](std::span<const double> x, std::span<double> y) {
      g.laplacian_apply(x, y);
    };
    return condition_number_estimate(op, sp.as_operator(), g.num_vertices(),
                                      40, 5);
  };
  std::vector<double> grid;
  std::vector<double> volume;
  for (vidx side : s.kappa_sides) {
    grid.push_back(kappa(gen::grid2d(side, side, w, 9)));
  }
  for (vidx side : s.oct_sides) volume.push_back(kappa(oct(side, 9)));
  double growth = 0.0;
  for (const auto* sweep : {&grid, &volume}) {
    const auto [lo, hi] = std::minmax_element(sweep->begin(), sweep->end());
    growth = std::max(growth, *hi / *lo);
  }
  led.at_most("TAB-S31",
              "max / min kappa(A, M_steiner) over each family's n sweep "
              "(constant)",
              growth, 2.0);
  led.series("TAB-S31.kappa_grid2d", std::move(grid));
  led.series("TAB-S31.kappa_oct", std::move(volume));
}

void support_bounds(Ledger& led) {
  std::vector<Graph> smalls = {
      gen::complete(10), gen::grid2d(4, 4, gen::WeightSpec::uniform(1, 2), 3),
      gen::cycle(12)};
  std::vector<Graph> mediums = {
      gen::grid2d(5, 4, gen::WeightSpec::uniform(1, 2), 3),
      gen::grid2d(6, 6, gen::WeightSpec::uniform(1, 2), 5),
      gen::grid3d(3, 3, 3, gen::WeightSpec::uniform(1, 2), 7)};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    smalls.push_back(gen::random_planar_triangulation(
        12, gen::WeightSpec::uniform(1, 3), seed));
    mediums.push_back(gen::random_planar_triangulation(
        20, gen::WeightSpec::uniform(1, 2), seed));
  }
  // Lemma 3.4: the matched star's Schur complement onto the original
  // vertices, with gamma = 1.
  double star_ratio = 0.0;
  for (const Graph& g : smalls) {
    const vidx n = g.num_vertices();
    std::vector<vidx> keep(static_cast<std::size_t>(n));
    for (vidx v = 0; v < n; ++v) keep[static_cast<std::size_t>(v)] = v;
    const Graph schur = induced_subgraph(
        star_schur_complement(matched_star(g), n), keep);
    star_ratio = std::max(star_ratio,
                          support_sigma_dense(schur, g) /
                              star_complement_support_bound(
                                  1.0, conductance_bounds(g).lower));
  }
  led.at_most("TAB-L34", "max sigma(B_star, A) / (2 / (gamma phi_A^2))",
              star_ratio, 1.0);

  // Theorem 3.5 in both forms, with phi measured over closures and gamma
  // over vertices.
  double ratio_phi = 0.0;
  double ratio_pg = 0.0;
  for (const Graph& g : mediums) {
    const Decomposition p = section31(g, 3);
    const double sigma = steiner_support_dense(g, p);
    const double phi = evaluate_decomposition(g, p).min_phi_lower;
    const auto gammas = per_vertex_gamma(g, p);
    const double gamma = *std::min_element(gammas.begin(), gammas.end());
    ratio_phi = std::max(ratio_phi, sigma / steiner_support_bound_phi_rho(phi));
    if (gamma > 0.0) {
      ratio_pg = std::max(ratio_pg, sigma / steiner_support_bound(phi, gamma));
    }
  }
  led.at_most("TAB-T35", "max sigma(S_P, A) / 3(1 + 2/phi^3)", ratio_phi,
              1.0);
  led.at_most("TAB-T35", "max sigma(S_P, A) / 3(1 + 2/(gamma phi^2))",
              ratio_pg, 1.0);
}

/// k cliques of `size` vertices joined in a ring by `bridge`-weight edges,
/// with the cliques as the decomposition.
Graph planted(vidx k, vidx size, double bridge, Decomposition* p) {
  GraphBuilder b(k * size);
  p->num_clusters = k;
  p->assignment.resize(static_cast<std::size_t>(k * size));
  for (vidx c = 0; c < k; ++c) {
    for (vidx i = 0; i < size; ++i) {
      p->assignment[static_cast<std::size_t>(c * size + i)] = c;
      for (vidx j = i + 1; j < size; ++j) {
        b.add_edge(c * size + i, c * size + j, 1.0);
      }
    }
    b.add_edge(c * size, ((c + 1) % k) * size, bridge);
  }
  return b.build();
}

void theorem41(Ledger& led) {
  std::vector<std::pair<Graph, Decomposition>> cases(3);
  cases[0].first = planted(5, 8, 0.01, &cases[0].second);
  cases[1].first = planted(4, 10, 0.1, &cases[1].second);
  cases[2].first = gen::grid2d(7, 7, gen::WeightSpec::uniform(1.0, 3.0), 5);
  cases[2].second = section31(cases[2].first);
  int violations = 0;
  for (const auto& [g, p] : cases) {
    for (const PortraitRow& row : spectral_portrait(g, p).rows) {
      if (row.alignment_sq < row.bound - 1e-9) ++violations;
    }
  }
  led.at_most("TAB-T41", "eigenvectors violating (x'z)^2 >= 1 - 3 lambda "
              "(1 + 2/(gamma phi^2))", violations, 0.0);
}

void hierarchy_scaling(const Scale& s, Ledger& led) {
  std::vector<double> two_level;
  std::vector<double> multilevel;
  std::vector<double> ms_per_vertex;
  std::vector<double> series;
  for (vidx side : s.hier_sides) {
    const Graph g = oct(side, 7);
    const MultilevelSteinerSolver ml =
        MultilevelSteinerSolver::build(hierarchy(g));
    const SteinerPreconditioner two =
        SteinerPreconditioner::build(g, section31(g));
    const LinearOperator two_op = two.as_operator();
    const LinearOperator ml_op = ml.as_operator();
    Timer t;
    const int it_ml = iterations(g, &ml_op, true);
    const double ms = t.millis();
    multilevel.push_back(it_ml);
    ms_per_vertex.push_back(ms / g.num_vertices());
    two_level.push_back(iterations(g, &two_op, false));
    series.insert(series.end(),
                  {static_cast<double>(g.num_vertices()),
                   static_cast<double>(ml.num_levels()),
                   static_cast<double>(iterations(g, nullptr, false)),
                   two_level.back(), static_cast<double>(it_ml), ms});
  }
  led.at_most("TAB-HIER",
              "two-level Steiner PCG iterations, largest n / smallest n "
              "(flat)",
              two_level.back() / two_level.front(), 1.5);
  led.at_most("TAB-HIER",
              "multilevel PCG iterations, largest n / smallest n (flat)",
              multilevel.back() / multilevel.front(), 1.5);
  led.at_most("TAB-HIER",
              "multilevel PCG ms per vertex, largest n / smallest n (wall "
              "clock)",
              ms_per_vertex.back() / ms_per_vertex.front(), 2.0, false);
  led.series("TAB-HIER.n_levels_cg_two_ml_ms", std::move(series));
}

void topdown_vs_bottomup(const Scale& s, Ledger& led) {
  const std::vector<Graph> graphs = {
      gen::grid2d(s.tdbu_grid, s.tdbu_grid, gen::WeightSpec::uniform(1, 2), 3),
      oct(s.tdbu_oct, 5),
      gen::random_planar_triangulation(s.tdbu_planar,
                                       gen::WeightSpec::uniform(1, 4), 7)};
  double time_ratio = kInf;
  double iter_ratio = 0.0;
  std::vector<double> series;
  for (const Graph& g : graphs) {
    Timer t_up;
    const Decomposition up = section31(g);
    const double up_s = t_up.seconds();
    Timer t_down;
    const Decomposition down = recursive_spectral_decomposition(
        g, {.phi_target = 0.25, .min_cluster_size = 4});
    const double down_s = t_down.seconds();
    time_ratio = std::min(time_ratio, down_s / up_s);
    const auto iters = [&g](const Decomposition& d) {
      const SteinerPreconditioner sp = SteinerPreconditioner::build(g, d);
      const LinearOperator op = sp.as_operator();
      return static_cast<double>(iterations(g, &op, false));
    };
    const double it_up = iters(up);
    const double it_down = iters(down);
    iter_ratio = std::max(iter_ratio, it_up / it_down);
    series.insert(series.end(), {static_cast<double>(g.num_vertices()),
                                 up_s * 1e3, down_s * 1e3, it_up, it_down});
  }
  led.at_least("TAB-TDBU",
               "min top-down / bottom-up build time (wall clock)",
               time_ratio, 10.0, false);
  led.at_most("TAB-TDBU",
              "max bottom-up / top-down Steiner PCG iterations (comparable "
              "quality)",
              iter_ratio, 1.5);
  led.series("TAB-TDBU.n_up_ms_down_ms_up_iters_down_iters",
             std::move(series));
}

/// kappa(B_S, A) for a Steiner graph with arbitrary leaf weights c_v:
/// S = [diag(leaf), -V; -V', Q + D_Q~] with V(v, c) = leaf_v on v's cluster.
double steiner_kappa(const Graph& a, const Decomposition& p,
                     const std::vector<double>& leaf) {
  const vidx n = a.num_vertices();
  const auto cl = [&p](vidx v) {
    return p.assignment[static_cast<std::size_t>(v)];
  };
  const auto c = [&leaf](vidx v) {
    return leaf[static_cast<std::size_t>(v)];
  };
  DenseMatrix qd = dense_laplacian(quotient_graph(a, p.assignment));
  for (vidx v = 0; v < n; ++v) qd(cl(v), cl(v)) += c(v);
  const DenseMatrix qd_inv = spd_inverse(qd);
  DenseMatrix b(n, n);
  for (vidx u = 0; u < n; ++u) {
    for (vidx v = 0; v < n; ++v) {
      b(u, v) = -c(u) * c(v) * qd_inv(cl(u), cl(v));
    }
    b(u, u) += c(u);
  }
  const auto eig = generalized_eigen_laplacian(b, dense_laplacian(a));
  return eig.values.back() / eig.values.front();
}

void ablations(const Scale& s, Ledger& led) {
  // (a) The perturbation is what guarantees a unimodal forest on ties.
  int tied = 0;
  for (const Graph& g :
       {gen::grid2d(s.abl_grid, s.abl_grid, gen::WeightSpec::uniform(1, 2), 3),
        gen::torus2d(s.abl_grid, s.abl_grid)}) {
    const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 4});
    tied += is_unimodal_forest(fd.perturbed_forest) ? 0 : 1;
  }
  led.at_most("TAB-ABL-a", "non-unimodal forests with perturbation on", tied,
              0.0);

  // (b) The phi * rho trade over the cluster cap k.
  {
    const Graph g =
        gen::oct_volume(s.abl_oct, s.abl_oct, s.abl_oct, {.field_orders = 2.0},
                        5);
    std::vector<double> phi;
    std::vector<double> series;
    for (vidx k : {2, 3, 4, 6, 8, 12}) {
      const auto st = evaluate_decomposition(g, section31(g, k));
      phi.push_back(st.min_phi_lower);
      series.insert(series.end(), {static_cast<double>(k), st.min_phi_lower,
                                   st.reduction_factor});
    }
    led.at_most("TAB-ABL-b",
                "phi(k = 12) / phi(k = 2) (a larger cap costs phi)",
                phi.back() / phi.front(), 1.0);
    led.series("TAB-ABL-b.k_phi_rho", std::move(series));
  }

  // (c) Two-level vs multilevel quotient solve; (e) Steiner tree vs Steiner
  // graph; (f) gamma-guided refinement.
  double ml_over_two_ms = 0.0;
  double tree_over_graph = kInf;
  double gamma_gain = kInf;
  double cut_change = 0.0;
  std::vector<double> series;
  for (vidx side : s.abl_sides) {
    const Graph g = oct(side, 7);
    const Decomposition p = section31(g);
    const LaminarHierarchy h = hierarchy(g);
    const SteinerPreconditioner two = SteinerPreconditioner::build(g, p);
    const MultilevelSteinerSolver jac = MultilevelSteinerSolver::build(h);
    const SteinerTreePreconditioner tree = SteinerTreePreconditioner::build(h);
    const LinearOperator two_op = two.as_operator();
    const LinearOperator jac_op = jac.as_operator();
    const LinearOperator tree_op = tree.as_operator();
    Timer t_two;
    const double it_two = iterations(g, &two_op, false);
    const double ms_two = t_two.millis();
    Timer t_jac;
    const double it_jac = iterations(g, &jac_op, true);
    ml_over_two_ms = t_jac.millis() / ms_two;
    const double it_tree = iterations(g, &tree_op, false);
    tree_over_graph = std::min(tree_over_graph, it_tree / it_two);
    series.insert(series.end(), {static_cast<double>(g.num_vertices()),
                                 it_two, it_jac, it_tree});

    const Decomposition refined =
        refine_decomposition(g, p, {.gamma_floor = 0.3}).decomposition;
    gamma_gain = std::min(gamma_gain,
                          evaluate_decomposition(g, refined).min_gamma /
                              evaluate_decomposition(g, p).min_gamma);
    cut_change = std::max(cut_change, cut_weight_fraction(g, refined) /
                                          cut_weight_fraction(g, p));
  }
  led.at_most("TAB-ABL-c",
              "multilevel Jacobi / two-level PCG ms at the largest n (wall "
              "clock)",
              ml_over_two_ms, 1.5, false);
  led.series("TAB-ABL-ce.n_two_jacobi_tree_iters",
             std::move(series));

  // (d) Definition 3.1's vol(u) leaf weights vs uniform leaves.
  double uniform_over_vol = kInf;
  for (const Graph& g :
       {gen::grid2d(5, 4, gen::WeightSpec::uniform(1, 2), 3),
        gen::grid2d(6, 6, gen::WeightSpec::lognormal(0, 1.5), 5),
        gen::random_planar_triangulation(24, gen::WeightSpec::uniform(1, 4),
                                         7)}) {
    const Decomposition p = section31(g, 3);
    std::vector<double> vol(static_cast<std::size_t>(g.num_vertices()));
    double mean = 0.0;
    for (vidx v = 0; v < g.num_vertices(); ++v) {
      vol[static_cast<std::size_t>(v)] = g.vol(v);
      mean += g.vol(v) / g.num_vertices();
    }
    const std::vector<double> uniform(vol.size(), mean);
    uniform_over_vol =
        std::min(uniform_over_vol,
                 steiner_kappa(g, p, uniform) / steiner_kappa(g, p, vol));
  }
  led.at_least("TAB-ABL-d",
               "min kappa(uniform leaves) / kappa(vol leaves)",
               uniform_over_vol, 1.0);
  led.at_least("TAB-ABL-e",
               "min Steiner tree / Steiner graph PCG iterations",
               tree_over_graph, 1.0);
  led.at_least("TAB-ABL-f", "min refined / raw min gamma", gamma_gain, 1.0);
  led.at_most("TAB-ABL-f", "max refined / raw cut weight fraction",
              cut_change, 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string_view scale = "small";
  const char* out = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag == "--scale") {
      scale = argv[i + 1];
    } else if (flag == "--out") {
      out = argv[i + 1];
    } else {
      scale = "";
    }
  }
  if ((argc % 2) == 0 || (scale != "small" && scale != "paper")) {
    std::fprintf(stderr,
                 "usage: paper_claims [--scale small|paper] [--out FILE]\n");
    return 2;
  }
  const Scale s = scale == "paper" ? paper_scale() : small_scale();
  Ledger led;
  fig6(s, led);
  remark1(s, led);
  theorem21(s, led);
  theorems22_23(s, led);
  section31_claims(s, led);
  support_bounds(led);
  theorem41(led);
  hierarchy_scaling(s, led);
  topdown_vs_bottomup(s, led);
  ablations(s, led);

  std::string doc;
  const int failed = led.report(scale, &doc);
  std::FILE* f = out == nullptr ? stdout : std::fopen(out, "w");
  if (f == nullptr || std::fprintf(f, "%s\n", doc.c_str()) < 0 ||
      (f != stdout && std::fclose(f) != 0)) {
    std::fprintf(stderr, "paper_claims: cannot write %s\n",
                 out == nullptr ? "stdout" : out);
    return 2;
  }
  return failed == 0 ? 0 : 1;
}
