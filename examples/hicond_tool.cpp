// hicond_tool -- command-line driver for the library on graph files.
//
//   hicond_tool gen <family> <size> <out.wel> [seed]
//       families: grid2d grid3d oct planar tree regular
//   hicond_tool stats <graph>
//       vertex/edge counts, degree and weight ranges, connectivity
//   hicond_tool decompose <graph> [k] [out.assignment]
//       one-shot decomposition (--backend selects the construction;
//       default is the Section 3.1 fixed-degree algorithm) + quality
//       report; optionally writes "vertex cluster" lines
//   hicond_tool compare-backends <graph> [k]
//       run every registered partitioner backend on the graph and emit a
//       JSON score table: phi bounds, reduction factor, cut fraction,
//       certify-oracle verdict, PCG iterations and build times
//   hicond_tool solve <graph> [precond]
//       solve A x = b (random mean-free b) with precond in
//       {none, jacobi, steiner, multilevel, subgraph}
//   hicond_tool snapshot-convert <in> <out>
//       convert between graph formats by extension: .hsnap (binary
//       snapshot, hicond/serve/snapshot.hpp), .metis/.graph, .wel
//   hicond_tool fingerprint <graph>
//       print the 16-hex-digit content fingerprint (the serve cache key)
//   hicond_tool mutate <in> <updates.json> <out>
//       apply an edge-update batch (dynamic/update.hpp) and write the
//       mutated graph; updates.json is {"updates":[...]} or a bare array
//       of {"kind":"insert|delete|reweight","u":U,"v":V,"weight":W}
//
// Global flags (accepted anywhere on the command line):
//   --backend NAME     partitioner backend for decompose / solve
//                      (fixed_degree, louvain, lowdiam; see
//                      docs/PARTITIONERS.md)
//   --trace out.json   record scoped spans, write a Chrome trace-event file
//                      (open in Perfetto or chrome://tracing)
//   --report           solve only: print the structured SolverReport
//                      (per-level hierarchy, timing breakdown and
//                      coarse-correction steps)
//   --json             emit machine-readable JSON instead of text where
//                      supported (decompose stats, solve report, certificate)
//   --certify          decompose only: re-check the decomposition with the
//                      independent certify/ oracle and print the certificate
//                      (JSON with --json, text otherwise); exits nonzero if
//                      certification fails
//
// Every <graph> argument is read by extension (serve::read_graph_auto):
// .hsnap is the binary snapshot, .metis/.graph the METIS text format, and
// anything else the library's weighted edge list (hicond/graph/io.hpp).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hicond/certify/certify.hpp"
#include "hicond/dynamic/update.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/io.hpp"
#include "hicond/la/cg.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/obs/report.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/partition/backends/backend.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/multilevel.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/precond/subgraph.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/solver.hpp"
#include "hicond/util/rng.hpp"
#include "hicond/util/timer.hpp"

namespace {

using namespace hicond;

struct GlobalFlags {
  std::string trace_path;  ///< empty = tracing off
  std::string backend = "fixed_degree";  ///< registered partitioner backend
  bool report = false;
  bool json = false;
  bool certify = false;
};

GlobalFlags g_flags;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hicond_tool gen <family> <size> <out.wel> [seed]\n"
               "  hicond_tool stats <graph>\n"
               "  hicond_tool decompose <graph> [k] [out.assignment]\n"
               "  hicond_tool compare-backends <graph> [k]\n"
               "  hicond_tool solve <graph> [precond]\n"
               "  hicond_tool snapshot-convert <in> <out>\n"
               "  hicond_tool fingerprint <graph>\n"
               "  hicond_tool mutate <in> <updates.json> <out>\n"
               "(.hsnap = binary snapshot, .metis/.graph = METIS, "
               "otherwise .wel)\n"
               "global flags: --backend name | --trace out.json | --report "
               "| --json | --certify\n");
  return 2;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string family = argv[2];
  const vidx size = static_cast<vidx>(std::atoi(argv[3]));
  const std::string path = argv[4];
  const std::uint64_t seed =
      argc > 5 ? static_cast<std::uint64_t>(std::atoll(argv[5])) : 1;
  Graph g;
  if (family == "grid2d") {
    g = gen::grid2d(size, size, gen::WeightSpec::uniform(1.0, 2.0), seed);
  } else if (family == "grid3d") {
    g = gen::grid3d(size, size, size, gen::WeightSpec::uniform(1.0, 2.0),
                    seed);
  } else if (family == "oct") {
    g = gen::oct_volume(size, size, size, {}, seed);
  } else if (family == "planar") {
    g = gen::random_planar_triangulation(size,
                                         gen::WeightSpec::uniform(1.0, 4.0),
                                         seed);
  } else if (family == "tree") {
    g = gen::random_tree(size, gen::WeightSpec::uniform(1.0, 4.0), seed);
  } else if (family == "regular") {
    g = gen::random_regular(size, 4, gen::WeightSpec::uniform(1.0, 2.0), seed);
  } else {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 2;
  }
  write_graph_file(path, g);
  std::printf("wrote %s: n=%d m=%lld\n", path.c_str(), g.num_vertices(),
              static_cast<long long>(g.num_edges()));
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3) return usage();
  const Graph g = serve::read_graph_auto(argv[2]);
  double w_min = 1e300;
  double w_max = 0.0;
  for (const auto& e : g.edge_list()) {
    w_min = std::min(w_min, e.weight);
    w_max = std::max(w_max, e.weight);
  }
  std::printf("vertices        %d\n", g.num_vertices());
  std::printf("edges           %lld\n", static_cast<long long>(g.num_edges()));
  std::printf("max degree      %d\n", g.max_degree());
  std::printf("total volume    %.6g\n", g.total_volume());
  if (g.num_edges() > 0) {
    std::printf("weight range    [%.6g, %.6g]\n", w_min, w_max);
  }
  std::printf("components      %d\n", num_components(g));
  std::printf("is forest       %s\n", is_forest(g) ? "yes" : "no");
  return 0;
}

int cmd_decompose(int argc, char** argv) {
  if (argc < 3) return usage();
  const Graph g = serve::read_graph_auto(argv[2]);
  const vidx k = argc > 3 ? static_cast<vidx>(std::atoi(argv[3])) : 4;
  partition::BackendOptions bo;
  bo.max_cluster_size = k;
  bo.backend = g_flags.backend;
  Timer t;
  const Decomposition d = partition::checked_decompose(g, bo);
  const double build_s = t.seconds();
  const auto stats = evaluate_decomposition(g, d);
  auto write_assignment = [&]() -> int {
    if (argc <= 4) return 0;
    std::ofstream out(argv[4]);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", argv[4]);
      return 1;
    }
    for (vidx v = 0; v < g.num_vertices(); ++v) {
      out << v << ' ' << d.assignment[static_cast<std::size_t>(v)] << '\n';
    }
    return 0;
  };
  auto print_certificate = [&]() -> int {
    if (!g_flags.certify) return 0;
    // Structural targets only (phi = 0, rho = 1): the certificate still
    // records independently recomputed conductance bounds per cluster.
    const certify::Certificate cert =
        certify::certify_decomposition(g, d, 0.0, 1.0);
    if (g_flags.json) {
      std::printf("%s\n", cert.to_json().c_str());
    } else {
      std::printf("%s", cert.to_text().c_str());
    }
    return cert.pass ? 0 : 1;
  };
  if (g_flags.json) {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("vertices", g.num_vertices());
    w.kv("edges", static_cast<std::int64_t>(g.num_edges()));
    w.kv("backend", g_flags.backend);
    w.kv("clusters", d.num_clusters);
    w.kv("reduction", stats.reduction_factor);
    w.kv("build_seconds", build_s);
    w.kv("phi_lower", stats.min_phi_lower);
    w.kv("phi_upper", stats.min_phi_upper);
    w.kv("phi_exact", stats.phi_exact);
    w.kv("min_gamma", stats.min_gamma);
    w.kv("avg_gamma", average_gamma(g, d));
    w.kv("cut_fraction", cut_weight_fraction(g, d));
    w.kv("max_cluster_size", stats.max_cluster_size);
    w.kv("singletons", stats.num_singletons);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    if (const int rc = print_certificate(); rc != 0) return rc;
    return write_assignment();
  }
  std::printf("backend         %s\n", g_flags.backend.c_str());
  std::printf("clusters        %d (reduction %.2f) in %s\n", d.num_clusters,
              stats.reduction_factor, format_duration(build_s).c_str());
  std::printf("phi             [%.4f, %.4f]%s\n", stats.min_phi_lower,
              stats.min_phi_upper, stats.phi_exact ? " (exact)" : "");
  std::printf("gamma (min/avg) %.4f / %.4f\n", stats.min_gamma,
              average_gamma(g, d));
  std::printf("cut fraction    %.4f\n", cut_weight_fraction(g, d));
  std::printf("max cluster     %d, singletons %d\n", stats.max_cluster_size,
              stats.num_singletons);
  if (const int rc = print_certificate(); rc != 0) return rc;
  if (argc > 4) {
    if (const int rc = write_assignment(); rc != 0) return rc;
    std::printf("assignment written to %s\n", argv[4]);
  }
  return 0;
}

int cmd_solve(int argc, char** argv) {
  if (argc < 3) return usage();
  const Graph g = serve::read_graph_auto(argv[2]);
  const std::string kind = argc > 3 ? argv[3] : "steiner";
  if (!is_connected(g)) {
    std::fprintf(stderr, "solve requires a connected graph\n");
    return 1;
  }
  const vidx n = g.num_vertices();
  Rng rng(7);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  const CgOptions opt{.max_iterations = 20000, .rel_tolerance = 1e-8,
                      .project_constant = true};
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  Timer t;
  SolveStats stats;
  partition::BackendOptions bo;
  bo.backend = g_flags.backend;
  if (g_flags.report && kind == "multilevel") {
    // LaplacianSolver owns the hierarchy bookkeeping the report needs.
    const LaplacianSolver solver(
        g, {.hierarchy = {.contraction = bo, .coarsest_size = 200}});
    stats = solver.solve(b, x);
    const obs::SolverReport report = solver.report();
    if (g_flags.json) {
      std::printf("%s\n", report.to_json().c_str());
    } else {
      std::printf("%s", report.to_text().c_str());
    }
    return stats.converged ? 0 : 1;
  }
  if (g_flags.report) {
    std::fprintf(stderr,
                 "note: --report is only available for the multilevel "
                 "preconditioner; solving without a report\n");
  }
  if (kind == "none") {
    stats = cg_solve(a, b, x, opt);
  } else if (kind == "jacobi") {
    auto jacobi = [&g](std::span<const double> r, std::span<double> z) {
      for (std::size_t i = 0; i < r.size(); ++i) {
        z[i] = g.vol(static_cast<vidx>(i)) > 0.0
                   ? r[i] / g.vol(static_cast<vidx>(i))
                   : 0.0;
      }
    };
    stats = pcg_solve(a, jacobi, b, x, opt);
  } else if (kind == "steiner") {
    const Decomposition d = partition::checked_decompose(g, bo);
    const SteinerPreconditioner sp = SteinerPreconditioner::build(g, d);
    stats = pcg_solve(a, sp.as_operator(), b, x, opt);
  } else if (kind == "multilevel") {
    const MultilevelSteinerSolver ml = MultilevelSteinerSolver::build(
        build_hierarchy(g, {.contraction = bo, .coarsest_size = 200}));
    stats = flexible_pcg_solve(a, ml.as_operator(), b, x, opt);
  } else if (kind == "subgraph") {
    SubgraphPrecondOptions so;
    so.target_subtrees = std::max<vidx>(2, n / 32);
    const SubgraphPreconditioner sub = SubgraphPreconditioner::build(g, so);
    stats = pcg_solve(a, sub.as_operator(), b, x, opt);
  } else {
    std::fprintf(stderr, "unknown preconditioner '%s'\n", kind.c_str());
    return 2;
  }
  std::printf("%s: %d iterations in %s, relative residual %.2e%s\n",
              kind.c_str(), stats.iterations,
              format_duration(t.seconds()).c_str(),
              stats.final_relative_residual,
              stats.converged ? "" : " (NOT converged)");
  return stats.converged ? 0 : 1;
}

// Score every registered backend on one graph: decomposition quality (phi
// bounds, reduction, cut fraction, certify-oracle verdict) and end-to-end
// solver behaviour (hierarchy build time, PCG iterations on a shared
// mean-free rhs). Always emits JSON -- the table is meant for scripts and
// bench tooling. Exits nonzero if any backend fails certification.
int cmd_compare_backends(int argc, char** argv) {
  if (argc < 3) return usage();
  const Graph g = serve::read_graph_auto(argv[2]);
  const vidx k = argc > 3 ? static_cast<vidx>(std::atoi(argv[3])) : 4;
  if (!is_connected(g)) {
    std::fprintf(stderr, "compare-backends requires a connected graph\n");
    return 1;
  }
  const auto n = static_cast<std::size_t>(g.num_vertices());
  Rng rng(7);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);

  obs::JsonWriter w;
  w.begin_object();
  w.kv("graph", argv[2]);
  w.kv("vertices", g.num_vertices());
  w.kv("edges", static_cast<std::int64_t>(g.num_edges()));
  w.kv("max_cluster_size", k);
  w.key("backends");
  w.begin_array();
  bool all_certified = true;
  for (const partition::PartitionerBackend* backend :
       partition::registered_backends()) {
    partition::BackendOptions bo;
    bo.max_cluster_size = k;
    bo.backend = std::string(backend->name());
    Timer decompose_timer;
    const Decomposition d = partition::checked_decompose(g, bo);
    const double decompose_s = decompose_timer.seconds();
    const auto stats = evaluate_decomposition(g, d);
    const certify::Certificate cert =
        certify::certify_decomposition(g, d, 0.0, 1.0);
    all_certified = all_certified && cert.pass;

    LaplacianSolverOptions so;
    so.hierarchy.contraction = bo;
    Timer build_timer;
    const LaplacianSolver solver(g, so);
    const double build_s = build_timer.seconds();
    std::vector<double> x(n, 0.0);
    const SolveStats ss = solver.solve(b, x);

    w.begin_object();
    w.kv("backend", std::string(backend->name()));
    w.kv("options_key", partition::backend_options_key(bo));
    w.kv("clusters", d.num_clusters);
    w.kv("reduction", stats.reduction_factor);
    w.kv("phi_lower", stats.min_phi_lower);
    w.kv("phi_upper", stats.min_phi_upper);
    w.kv("min_gamma", stats.min_gamma);
    w.kv("cut_fraction", cut_weight_fraction(g, d));
    w.kv("certified", cert.pass);
    w.kv("decompose_seconds", decompose_s);
    w.kv("hierarchy_build_seconds", build_s);
    w.kv("pcg_iterations", ss.iterations);
    w.kv("converged", ss.converged);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return all_certified ? 0 : 1;
}

// Extension-dispatched writer mirroring serve::read_graph_auto: .hsnap is
// the binary snapshot, .metis/.graph the METIS text format, anything else
// the weighted edge list.
void write_any_graph(const std::string& path, const Graph& g) {
  if (path.ends_with(".hsnap")) {
    serve::write_snapshot_file(path, g);
  } else if (path.ends_with(".metis") || path.ends_with(".graph")) {
    write_metis_file(path, g);
  } else {
    write_graph_file(path, g);
  }
}

int cmd_snapshot_convert(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string in = argv[2];
  const std::string out = argv[3];
  const Graph g = serve::read_graph_auto(in);
  write_any_graph(out, g);
  std::fprintf(stderr, "%s -> %s (n=%lld, m=%lld, fingerprint %s)\n",
               in.c_str(), out.c_str(),
               static_cast<long long>(g.num_vertices()),
               static_cast<long long>(g.num_edges()),
               serve::fingerprint_hex(serve::graph_fingerprint(g)).c_str());
  return 0;
}

int cmd_mutate(int argc, char** argv) {
  if (argc < 5) return usage();
  const Graph g = serve::read_graph_auto(argv[2]);
  std::ifstream in(argv[3]);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read %s\n", argv[3]);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const obs::JsonValue doc = obs::parse_json(text.str());
  // Accept the serve wire shape ({"updates":[...]}) or a bare array, so
  // the same file drives both this command and an `update` request.
  const obs::JsonValue* list = doc.is_object() ? doc.find("updates") : &doc;
  if (list == nullptr) {
    std::fprintf(stderr, "%s has no \"updates\" array\n", argv[3]);
    return 1;
  }
  const std::vector<dynamic::EdgeUpdate> updates =
      dynamic::parse_updates(*list, std::size_t{1} << 20);
  const Graph mutated = dynamic::apply_updates(g, updates);
  write_any_graph(argv[4], mutated);
  std::printf("%s\n",
              serve::fingerprint_hex(serve::graph_fingerprint(mutated)).c_str());
  std::fprintf(stderr, "%s + %zu update(s) -> %s (n=%lld, m=%lld)\n", argv[2],
               updates.size(), argv[4],
               static_cast<long long>(mutated.num_vertices()),
               static_cast<long long>(mutated.num_edges()));
  return 0;
}

int cmd_fingerprint(int argc, char** argv) {
  if (argc < 3) return usage();
  const Graph g = serve::read_graph_auto(argv[2]);
  const std::uint64_t fp = serve::graph_fingerprint(g);
  if (g_flags.json) {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("path", argv[2]);
    w.kv("fingerprint", serve::fingerprint_hex(fp));
    w.kv("n", static_cast<std::int64_t>(g.num_vertices()));
    w.kv("m", static_cast<std::int64_t>(g.num_edges()));
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%s\n", serve::fingerprint_hex(fp).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global flags (accepted anywhere) before subcommand dispatch.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace needs an output file\n");
        return 2;
      }
      g_flags.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--backend") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--backend needs a backend name\n");
        return 2;
      }
      g_flags.backend = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0) {
      g_flags.report = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      g_flags.json = true;
    } else if (std::strcmp(argv[i], "--certify") == 0) {
      g_flags.certify = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const int n_args = static_cast<int>(args.size());
  if (n_args < 2) return usage();

  if (hicond::partition::find_backend(g_flags.backend) == nullptr) {
    std::fprintf(stderr, "unknown backend '%s' (registered:",
                 g_flags.backend.c_str());
    for (const auto* b : hicond::partition::registered_backends()) {
      std::fprintf(stderr, " %s", std::string(b->name()).c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }

  if (!g_flags.trace_path.empty()) {
    if (!HICOND_TRACE_ENABLED) {
      std::fprintf(stderr,
                   "--trace requires a build with -DHICOND_TRACE=ON\n");
      return 2;
    }
    obs::set_trace_enabled(true);
  }

  int rc = 2;
  if (std::strcmp(args[1], "gen") == 0) {
    rc = cmd_gen(n_args, args.data());
  } else if (std::strcmp(args[1], "stats") == 0) {
    rc = cmd_stats(n_args, args.data());
  } else if (std::strcmp(args[1], "decompose") == 0) {
    rc = cmd_decompose(n_args, args.data());
  } else if (std::strcmp(args[1], "compare-backends") == 0) {
    rc = cmd_compare_backends(n_args, args.data());
  } else if (std::strcmp(args[1], "solve") == 0) {
    rc = cmd_solve(n_args, args.data());
  } else if (std::strcmp(args[1], "snapshot-convert") == 0) {
    rc = cmd_snapshot_convert(n_args, args.data());
  } else if (std::strcmp(args[1], "fingerprint") == 0) {
    rc = cmd_fingerprint(n_args, args.data());
  } else if (std::strcmp(args[1], "mutate") == 0) {
    rc = cmd_mutate(n_args, args.data());
  } else {
    rc = usage();
  }

  if (!g_flags.trace_path.empty()) {
    obs::set_trace_enabled(false);
    std::ofstream out(g_flags.trace_path);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", g_flags.trace_path.c_str());
      return rc != 0 ? rc : 1;
    }
    out << obs::export_chrome_trace() << '\n';
    std::fprintf(stderr, "trace: %zu span(s) written to %s%s\n",
                 obs::trace_event_count(), g_flags.trace_path.c_str(),
                 obs::trace_dropped_count() > 0 ? " (some dropped)" : "");
  }
  return rc;
}
