// serve_vectors_routed and serve_update_stream: the real hicond_router with
// three hicond_serve workers (each pinned to one OpenMP thread), driven by
// one benchmark thread over the router's stdio pipes. Output checks run
// after each measured phase, never while the deployment is being timed.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>

#include <omp.h>

#include "deployment.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/serve/snapshot.hpp"
#include "inputs.hpp"
#include "library_ledger.hpp"
#include "serve_ledger.hpp"
#include "workloads.hpp"

namespace bench {

using namespace hicond;
using obs::JsonValue;

namespace {

/// The servers' default tolerance; returned solutions must be within 10x.
constexpr double kTolerance = 1e-8;
/// Open-loop arrival rate of serve_vectors_routed: about a fifth of the
/// closed-loop capacity the deployment reached when the benchmark was
/// defined (~110 requests/s on a 4-vCPU x86-64 KVM guest). Fixed, so a
/// faster server shows as lower latency at the same load rather than as a
/// different load. At 50/s the busiest worker ran at ~40% utilization, and
/// second-long slowdowns of a shared host queued enough requests behind it
/// to move the p95 by half from one run to the next.
constexpr double kVectorsRateRps = 25.0;
constexpr double kSpinSeconds = 0.005;
constexpr int kVectorsOutstanding = 6;
constexpr int kSetups = 5;
/// Generator seed of every served graph: contents are fixed across runs
/// (see vectors_inputs); the run seed drives right-hand sides, the
/// open-loop request order and arrival times, and update strokes.
constexpr std::uint64_t kGraphSeed = 7;
/// How long the deployment gets to answer what is still in flight when a
/// phase ends before the rest counts as failed.
constexpr double kDrainSeconds = 30.0;

/// How long a served workload drives traffic. A traced run drives the same
/// traffic for half as long and spends the rest on its replays, so that it
/// takes about as long as an untraced run.
double traffic_seconds(const RunContext& ctx) {
  if (ctx.quick) return 1.0;
  return ctx.trace ? ctx.seconds / 2.0 : ctx.seconds;
}

struct ServedGraph {
  Graph graph;
  GridShape shape;
  std::string path;
  std::string fp;
  std::string label;  ///< "62x62", names the graph in request spans
};

ServedGraph served_graph(Graph g, GridShape shape, const std::string& path) {
  serve::write_snapshot_file(path, g);
  std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  std::string label = std::to_string(shape.nx) + "x" + std::to_string(shape.ny);
  if (shape.nz > 1) label += "x" + std::to_string(shape.nz);
  return {std::move(g), shape, path, std::move(fp), std::move(label)};
}

bool reply_ok(const JsonValue& doc, std::int64_t id) {
  const JsonValue* ok = doc.find("ok");
  const JsonValue* idv = doc.find("id");
  return ok != nullptr && ok->boolean && idv != nullptr &&
         static_cast<std::int64_t>(idv->number) == id;
}

std::vector<double> numbers(const JsonValue& array) {
  std::vector<double> out;
  out.reserve(array.array.size());
  for (const JsonValue& v : array.array) out.push_back(v.number);
  return out;
}

/// setup_s: `kSetups` fresh deployments, each timed from its first load to
/// the reply to its last warm-up solve (requests sent one at a time); the
/// last deployment is kept for the measured phases.
std::unique_ptr<Deployment> timed_setup(
    const std::vector<const ServedGraph*>& graphs, const RunContext& ctx,
    Report& report) {
  Samples setup;
  std::unique_ptr<Deployment> deployment;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (deployment) deployment->shutdown();
    deployment = std::make_unique<Deployment>(ctx.work_dir + "/sockets");
    const ScopedSpan span("setup (load + warm-up)");
    std::int64_t id = 0;
    for (const ServedGraph* g : graphs) {
      ++report.attempted;
      const JsonValue doc = obs::parse_json(
          deployment->call(with_id(load_body(g->path), ++id)));
      const JsonValue* fp = doc.find("graph");
      if (!reply_ok(doc, id) || fp == nullptr || fp->string != g->fp) {
        report.checks.fail("load of " + g->path + " failed");
      }
    }
    for (const ServedGraph* g : graphs) {
      ++report.attempted;
      const JsonValue doc = obs::parse_json(deployment->call(
          with_id(seeded_solve_body(g->fp, derive_seed(ctx.seed, 5)), ++id)));
      const JsonValue* conv = doc.find("converged");
      if (!reply_ok(doc, id) || conv == nullptr || !conv->boolean) {
        report.checks.fail("warm-up solve on " + g->fp + " failed");
      }
    }
    setup.add(span.seconds());
  }
  report.set("setup_s", setup.median(), "s", setup.count());
  return deployment;
}

/// Requests in flight on one deployment, matched to responses by id.
class Traffic {
 public:
  struct Sent {
    double due = 0.0;  ///< open loop: scheduled send time; else send time
    int tag = 0;       ///< workload-defined
    std::size_t ref = 0;
  };

  explicit Traffic(Deployment& deployment) : deployment_(deployment) {}

  /// The id the next request gets.
  [[nodiscard]] std::int64_t next_id() const { return next_id_; }

  /// Queue a line built ahead with with_id(body, next_id()), so that
  /// sending it costs one append.
  std::int64_t send_line(std::string_view line, double due, int tag,
                         std::size_t ref) {
    const std::int64_t id = next_id_++;
    deployment_.enqueue(line);
    inflight_[id] = {due, tag, ref};
    return id;
  }

  std::int64_t send_body(std::string_view body, double due, int tag,
                         std::size_t ref) {
    return send_line(with_id(body, next_id_), due, tag, ref);
  }

  /// Wait up to `timeout_s` for responses; on_reply(id, sent, line, now)
  /// runs for each. Unmatched responses are failures.
  template <typename OnReply>
  void pump(double timeout_s, Report& report, OnReply&& on_reply) {
    lines_.clear();
    deployment_.pump(timeout_s, lines_);
    const double now = now_s();
    for (std::string& line : lines_) {
      const std::int64_t id = response_id(line);
      const auto it = inflight_.find(id);
      if (it == inflight_.end()) {
        report.checks.fail("response with unknown id " + std::to_string(id));
        continue;
      }
      const Sent sent = it->second;
      inflight_.erase(it);
      on_reply(id, sent, std::move(line), now);
    }
  }

  [[nodiscard]] std::size_t outstanding() const { return inflight_.size(); }

  /// Count every request still in flight as failed.
  void abandon(Report& report) {
    for (const auto& [id, sent] : inflight_) {
      report.checks.fail("request " + std::to_string(id) + " unanswered");
    }
    inflight_.clear();
  }

 private:
  Deployment& deployment_;
  std::int64_t next_id_ = 1000;
  std::unordered_map<std::int64_t, Sent> inflight_;
  std::vector<std::string> lines_;
};

void finish_served(const RunContext& ctx, std::unique_ptr<Deployment>& deployment,
                   Report& report) {
  report_deployment_stats(*deployment, report);
  deployment->shutdown();
  deployment.reset();
  if (!ctx.trace) {
    report.set("peak_rss_mb", peak_rss_children_mb(), "MB");
  }
}

// --- serve_vectors_routed ---------------------------------------------------

struct VectorsInputs {
  std::vector<ServedGraph> graphs;
  std::vector<std::vector<std::vector<double>>> pool;  ///< [graph][j] = b
  std::vector<std::vector<std::string>> solve_bodies;  ///< [graph][j]
  std::vector<std::string> batch_bodies;               ///< [graph], k = 4
  std::unique_ptr<ZipfPicker> zipf;
};

constexpr int kPoolRhs = 4;
constexpr double kBatchShare = 0.15;
/// Grid sides in popularity order (Zipf rank = position): 32..98 in steps
/// of 6, shuffled so hot and cold graphs span every size. Request latencies
/// then form one spread-out distribution, not a few modes whose edges a
/// percentile could straddle from one seed to the next.
constexpr std::array<vidx, 12> kVectorSides = {62, 44, 86, 32, 74, 50,
                                               98, 38, 68, 56, 92, 80};
/// The closed loop replays one fixed request order (the run seed still
/// picks every vector): how many heavy batch requests meet in one worker's
/// queue sets the workers' peak memory, and it should not vary by seed.
constexpr std::uint64_t kClosedLoopMixSeed = 0xc105ed;

/// One request of the mix: graph by Zipf popularity, 85% single solves
/// with an explicit b, 15% batch solves with the graph's 4 pool vectors.
struct MixDraw {
  int graph = 0;
  bool batch = false;
  int rhs = 0;
};

MixDraw draw(const VectorsInputs& in, Rng& rng) {
  MixDraw d;
  d.graph = in.zipf->pick(rng);
  d.batch = rng.uniform() < kBatchShare;
  d.rhs = static_cast<int>(rng.uniform_index(kPoolRhs));
  return d;
}

/// `n` requests whose counts per (graph, single or batch) class match the
/// mix's probabilities exactly (largest remainder), in seeded random
/// order. Batches on the large grids take several times longer than
/// anything else; drawn independently, their number among a few hundred
/// requests varies by a fifth from seed to seed, and a tail percentile with
/// it. Here the seed moves order, arrival times and vectors, not the class
/// counts.
std::vector<MixDraw> stratified_mix(const VectorsInputs& in, int n, Rng& rng) {
  struct Share {
    MixDraw draw;
    double exact = 0.0;
    int count = 0;
  };
  std::vector<Share> shares;
  int assigned = 0;
  for (int g = 0; g < static_cast<int>(in.graphs.size()); ++g) {
    for (const bool batch : {false, true}) {
      const double p = in.zipf->probability(g) *
                       (batch ? kBatchShare : 1.0 - kBatchShare);
      Share s{{g, batch, 0}, p * n, static_cast<int>(p * n)};
      assigned += s.count;
      shares.push_back(s);
    }
  }
  std::vector<Share*> by_remainder;
  for (Share& s : shares) by_remainder.push_back(&s);
  std::stable_sort(by_remainder.begin(), by_remainder.end(),
                   [](const Share* a, const Share* b) {
                     return a->exact - a->count > b->exact - b->count;
                   });
  for (int i = 0; assigned < n; ++i, ++assigned) ++by_remainder[i]->count;
  std::vector<MixDraw> out;
  for (const Share& s : shares) {
    for (int i = 0; i < s.count; ++i) {
      MixDraw d = s.draw;
      d.rhs = static_cast<int>(rng.uniform_index(kPoolRhs));
      out.push_back(d);
    }
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.uniform_index(i)]);
  }
  return out;
}

const std::string& body_of(const VectorsInputs& in, const MixDraw& d) {
  const auto g = static_cast<std::size_t>(d.graph);
  return d.batch ? in.batch_bodies[g]
                 : in.solve_bodies[g][static_cast<std::size_t>(d.rhs)];
}

VectorsInputs vectors_inputs(const RunContext& ctx) {
  const ScopedSpan span("gen.vectors_inputs");
  VectorsInputs in;
  // Graph contents are fixed, not seeded, so which worker owns which graph
  // -- and with it the load balance -- is the same on every seed.
  const std::size_t count = ctx.quick ? 4 : kVectorSides.size();
  for (std::size_t i = 0; i < count; ++i) {
    const vidx side = kVectorSides[i] / (ctx.quick ? 4 : 1);
    const std::string path =
        ctx.work_dir + "/grid" + std::to_string(side) + ".hsnap";
    in.graphs.push_back(served_graph(
        gen::grid2d(side, side, gen::WeightSpec::uniform(1.0, 10.0),
                    kGraphSeed + i),
        {side, side, 1}, path));
  }
  for (std::size_t g = 0; g < in.graphs.size(); ++g) {
    const auto n = static_cast<std::size_t>(in.graphs[g].graph.num_vertices());
    in.pool.emplace_back();
    in.solve_bodies.emplace_back();
    std::vector<const std::vector<double>*> cols;
    for (int j = 0; j < kPoolRhs; ++j) {
      in.pool[g].push_back(random_rhs(n, derive_seed(ctx.seed, 1000 + 16 * g + j)));
    }
    for (const std::vector<double>& b : in.pool[g]) {
      in.solve_bodies[g].push_back(vector_solve_body(in.graphs[g].fp, b));
      cols.push_back(&b);
    }
    in.batch_bodies.push_back(vector_batch_body(in.graphs[g].fp, cols));
  }
  in.zipf = std::make_unique<ZipfPicker>(static_cast<int>(in.graphs.size()));
  return in;
}

/// Echo, convergence and ||L x - b|| / ||b|| of every returned solution
/// column.
Check check_vectors_reply(const VectorsInputs& in, MixDraw d,
                                  std::int64_t id, std::string line) {
  return [&in, d, id, line = std::move(line)](CheckLog& log) {
    const JsonValue doc = obs::parse_json(line);
    const auto g = static_cast<std::size_t>(d.graph);
    const Graph& graph = in.graphs[g].graph;
    if (!reply_ok(doc, id)) {
      log.fail("request " + std::to_string(id) + " failed: " + line.substr(0, 200));
      return;
    }
    std::vector<const std::vector<double>*> bs;
    std::vector<std::vector<double>> xs;
    if (d.batch) {
      for (const JsonValue& c : doc.at("converged").array) {
        if (!c.boolean) {
          log.fail("batch request " + std::to_string(id) + " did not converge");
          return;
        }
      }
      for (const JsonValue& col : doc.at("x").array) xs.push_back(numbers(col));
      for (const std::vector<double>& b : in.pool[g]) bs.push_back(&b);
    } else {
      if (!doc.at("converged").boolean) {
        log.fail("request " + std::to_string(id) + " did not converge");
        return;
      }
      xs.push_back(numbers(doc.at("x")));
      bs.push_back(&in.pool[g][static_cast<std::size_t>(d.rhs)]);
    }
    if (xs.size() != bs.size()) {
      log.fail("request " + std::to_string(id) + " returned the wrong k");
      return;
    }
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (xs[j].size() != bs[j]->size() ||
          relative_residual(graph, xs[j], *bs[j]) > 10.0 * kTolerance) {
        log.fail("request " + std::to_string(id) + " column " +
                 std::to_string(j) + " is not a solution");
        return;
      }
    }
  };
}

}  // namespace

void run_serve_vectors_routed(const RunContext& ctx, Report& report) {
  const VectorsInputs in = vectors_inputs(ctx);
  const ServedGraph& largest = *std::max_element(
      in.graphs.begin(), in.graphs.end(), [](const auto& a, const auto& b) {
        return a.graph.num_vertices() < b.graph.num_vertices();
      });
  const double rate = kVectorsRateRps;
  // Closed-loop throughput swings by tens of percent from one half second
  // to the next (heavy batch requests bunch up behind one worker), so it
  // gets as long a phase as the open loop.
  const double open_s = traffic_seconds(ctx) / 2.0;
  const double closed_s = traffic_seconds(ctx) / 2.0;
  report.info("open_loop_rate_rps", std::to_string(rate));

  const LedgerGraph ledger_graph{&largest.graph, largest.shape, ctx.seed};
  if (ctx.trace) {
    library_ledger(ledger_graph, report);
  }
  omp_set_num_threads(library_threads());

  std::vector<const ServedGraph*> all;
  for (const ServedGraph& g : in.graphs) all.push_back(&g);
  std::unique_ptr<Deployment> deployment = timed_setup(all, ctx, report);
  Traffic traffic(*deployment);
  std::vector<Check> checks;
  std::vector<MixDraw> draws;  // by ref, for the checks
  const auto on_reply = [&](Samples& latency, std::int64_t id,
                            const Traffic::Sent& sent, std::string line,
                            double now) {
    latency.add((now - sent.due) * 1e3);
    if (SpanRecorder::global().enabled()) {
      const MixDraw& d = draws[sent.ref];
      SpanRecorder::global().request(
          (d.batch ? "batch_solve " : "solve ") +
              in.graphs[static_cast<std::size_t>(d.graph)].label,
          id, sent.due, now);
    }
    checks.push_back(check_vectors_reply(in, draws[sent.ref], id, std::move(line)));
  };

  // Open loop: Poisson arrivals at a fixed rate; latency counts from the
  // due time, so a stall also charges the requests queued behind it. The
  // next request's line is built while its due time is still ahead, and
  // the last kSpinSeconds before it are spent polling rather than asleep:
  // on a virtual machine a timed sleep can overshoot by milliseconds.
  Rng order(derive_seed(ctx.seed, 3));
  const std::vector<MixDraw> deck =
      stratified_mix(in, static_cast<int>(std::lround(rate * open_s)), order);
  Samples open_latency, late_ms;
  {
    const ScopedSpan span("phase.open_loop");
    Rng arrivals(derive_seed(ctx.seed, 4));
    double due = now_s() + 0.01;
    std::size_t sent = 0;
    const auto prepare = [&] {
      draws.push_back(deck[sent]);
      return with_id(body_of(in, draws.back()), traffic.next_id());
    };
    std::string line = prepare();
    for (;;) {
      double now = now_s();
      while (sent < deck.size() && due <= now) {
        traffic.send_line(line, due, 0, draws.size() - 1);
        ++report.attempted;
        late_ms.add((now_s() - due) * 1e3);
        due += -std::log1p(-arrivals.uniform()) / rate;
        if (++sent < deck.size()) line = prepare();
        now = now_s();
      }
      const bool all_sent = sent == deck.size();
      if (all_sent && traffic.outstanding() == 0) break;
      if (all_sent && now > due + kDrainSeconds) {
        traffic.abandon(report);
        break;
      }
      const double wait =
          all_sent ? 0.05 : std::max(0.0, due - now - kSpinSeconds);
      traffic.pump(wait, report, [&](auto&&... a) {
        on_reply(open_latency, std::forward<decltype(a)>(a)...);
      });
    }
  }
  run_checks(checks, report.checks);

  // Closed loop: a fixed number of requests outstanding; throughput is the
  // deployment's capacity on this mix.
  Samples closed_latency;
  double rhs_done = 0.0;
  double closed_elapsed = 0.0;
  {
    const ScopedSpan span("phase.closed_loop");
    Rng mix(kClosedLoopMixSeed);
    const double start = now_s();
    const double end = start + closed_s;
    const auto send_next = [&] {
      draws.push_back(draw(in, mix));
      traffic.send_body(body_of(in, draws.back()), now_s(), 0, draws.size() - 1);
      ++report.attempted;
    };
    for (int i = 0; i < kVectorsOutstanding; ++i) send_next();
    double last = start;
    while (traffic.outstanding() > 0) {
      if (now_s() > end + kDrainSeconds) {
        traffic.abandon(report);
        break;
      }
      traffic.pump(0.05, report, [&](std::int64_t id, const Traffic::Sent& sent,
                                     std::string line, double now) {
        rhs_done += draws[sent.ref].batch ? kPoolRhs : 1;
        last = now;
        on_reply(closed_latency, id, sent, std::move(line), now);
        if (now < end) send_next();
      });
    }
    closed_elapsed = last - start;
  }
  run_checks(checks, report.checks);

  // At most the p75. The top 15% of the requests are batch solves, of
  // twelve sizes, plus whatever queued behind one; where the p90 and the
  // p95 fall among them moves with the host's speed. Over ten seeds in a
  // calm quarter hour each spread by about a fifth of its median, the p75
  // by 0.08. Regressions of the batch path show in the closed loop's
  // rhs_per_s.
  report_latency(report, open_latency, 75.0);
  report.set("rhs_per_s", rhs_done / std::max(1e-9, closed_elapsed), "1/s",
             closed_latency.count());
  report.set("closed_loop_p50_ms", closed_latency.median(), "ms",
             closed_latency.count());
  report.set("loadgen.late_p99_ms", late_ms.pct(99.0), "ms", late_ms.count());
  finish_served(ctx, deployment, report);

  if (ctx.trace) {
    // The open-loop requests, replayed one at a time.
    ServeReplay replay;
    for (const ServedGraph& g : in.graphs) {
      replay.loads.push_back(load_body(g.path));
      replay.warmups.push_back(seeded_solve_body(g.fp, derive_seed(ctx.seed, 5)));
    }
    for (const MixDraw& d : deck) replay.requests.push_back(body_of(in, d));
    replay.socket_dir = ctx.work_dir + "/sockets";
    const double idle_rtt_p50_ms = serve_ledger(replay, report);
    report.set("shard.queue_wait_p50_ms", open_latency.median() - idle_rtt_p50_ms,
               "ms");
    dynamic_ledger(ledger_graph, report);
    report_triad(report);
  }
}

// --- serve_update_stream ------------------------------------------------------

namespace {

/// Every tenth stroke reweights 5% of all edges, which makes repair
/// decline and take the cold path; the rest are local strokes. A fixed
/// schedule keeps the p95 update latency inside the bulk mode on every seed.
constexpr int kBulkEvery = 10;
constexpr double kBulkFraction = 0.05;
/// Steps per chain per second of --seconds. Every version stays registered
/// on its worker, so a fixed step count keeps the servers' peak memory a
/// function of the work, not of how fast the run got through it. The grid
/// chain takes about twice the volume chain's steps: its bulk updates are
/// the cheaper ones, and with more of them the p95 sits inside their mode
/// rather than on the edge between the two chains' bulk costs.
constexpr double kGridStepsPerSecond = 7.5;
constexpr double kVolumeStepsPerSecond = 3.5;
/// Steps per chain the traced run's serve ledger replays.
constexpr int kReplaySteps = kBulkEvery;

/// One tenant's chain of versions: update, then a solve on the version the
/// update created, then the next update.
struct Chain {
  std::string fp;
  StrokeGenerator strokes;
  int strokes_made = 0;
  /// Solve bodies with a placeholder fingerprint at `fp_at`.
  std::vector<std::string> solve_templates;
  std::vector<std::vector<double>> pool;
  std::size_t fp_at = 0;
  int steps = 0;
  int steps_total = 0;
  /// The chain's current graph, advanced by the deferred checks (in order).
  std::shared_ptr<Graph> checked;
};

constexpr std::string_view kPlaceholderFp = "0000000000000000";

Chain make_chain(const ServedGraph& base, std::uint64_t seed, int steps_total) {
  Chain c{base.fp, StrokeGenerator(base.shape, derive_seed(seed, 1)),
          0, {}, {}, 0, 0, steps_total, std::make_shared<Graph>(base.graph)};
  const auto n = static_cast<std::size_t>(base.graph.num_vertices());
  for (std::uint64_t j = 0; j < kPoolRhs; ++j) {
    c.pool.push_back(random_rhs(n, derive_seed(seed, 3 + j)));
    c.solve_templates.push_back(
        vector_solve_body(std::string(kPlaceholderFp), c.pool.back()));
  }
  c.fp_at = c.solve_templates.front().find(kPlaceholderFp);
  return c;
}

std::vector<dynamic::EdgeUpdate> next_stroke(Chain& c) {
  return ++c.strokes_made % kBulkEvery == 0
             ? c.strokes.bulk_reweight(kBulkFraction)
             : c.strokes.local_stroke();
}

std::string solve_body(const Chain& c, const std::string& fp, int j) {
  std::string body = c.solve_templates[static_cast<std::size_t>(j)];
  body.replace(c.fp_at, kPlaceholderFp.size(), fp);
  return body;
}

}  // namespace

void run_serve_update_stream(const RunContext& ctx, Report& report) {
  const vidx side2 = ctx.quick ? 24 : 128;
  const vidx side3 = ctx.quick ? 8 : 24;
  std::vector<ServedGraph> bases;
  {
    const ScopedSpan span("gen.update_inputs");
    bases.push_back(served_graph(
        gen::grid2d(side2, side2, gen::WeightSpec::uniform(1.0, 10.0),
                    kGraphSeed),
        {side2, side2, 1}, ctx.work_dir + "/chain_grid2d.hsnap"));
    bases.push_back(served_graph(
        gen::oct_volume(side3, side3, side3, {}, kGraphSeed),
        {side3, side3, side3}, ctx.work_dir + "/chain_oct3d.hsnap"));
  }
  const double phase_s = traffic_seconds(ctx);
  const std::array<int, 2> steps = {
      static_cast<int>(std::lround(kGridStepsPerSecond * phase_s)),
      static_cast<int>(std::lround(kVolumeStepsPerSecond * phase_s))};

  const LedgerGraph ledger_graph{&bases[0].graph, bases[0].shape, ctx.seed};
  if (ctx.trace) {
    library_ledger(ledger_graph, report);
  }
  omp_set_num_threads(library_threads());

  std::unique_ptr<Deployment> deployment =
      timed_setup({&bases[0], &bases[1]}, ctx, report);
  Traffic traffic(*deployment);
  std::vector<Check> checks;
  std::vector<Chain> chains;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    chains.push_back(make_chain(bases[i], derive_seed(ctx.seed, 30 + i), steps[i]));
  }
  // Strokes in flight, by request id (the update check needs them).
  std::map<std::int64_t, std::vector<dynamic::EdgeUpdate>> strokes_sent;
  constexpr int kUpdate = 0;
  constexpr int kSolve = 1;

  Samples update_ms, fresh_ms;
  double repaired = 0.0;
  const double start = now_s();
  // The step counts are sized to take about --seconds; on a much slower
  // machine the chains stop early instead of overrunning.
  const double end = start + 1.5 * phase_s;
  const auto send_update = [&](std::size_t ci) {
    Chain& c = chains[ci];
    std::vector<dynamic::EdgeUpdate> stroke = next_stroke(c);
    const std::int64_t id =
        traffic.send_body(update_body(c.fp, stroke), now_s(), kUpdate, ci);
    strokes_sent[id] = std::move(stroke);
    ++report.attempted;
  };
  {
    const ScopedSpan span("phase.update_stream");
    for (std::size_t ci = 0; ci < chains.size(); ++ci) send_update(ci);
    while (traffic.outstanding() > 0) {
      if (now_s() > end + kDrainSeconds) {
        traffic.abandon(report);
        break;
      }
      traffic.pump(0.05, report, [&](std::int64_t id, const Traffic::Sent& sent,
                                     std::string line, double now) {
        Chain& c = chains[sent.ref];
        if (sent.tag == kUpdate) {
          update_ms.add((now - sent.due) * 1e3);
          SpanRecorder::global().request("update", id, sent.due, now);
          const JsonValue doc = obs::parse_json(line);
          const JsonValue* next = doc.find("new_graph");
          auto stroke = std::move(strokes_sent.at(id));
          strokes_sent.erase(id);
          if (!reply_ok(doc, id) || next == nullptr) {
            report.checks.fail("update " + std::to_string(id) + " failed: " +
                               line.substr(0, 200));
            return;  // the chain ends here
          }
          if (const JsonValue* r = doc.find("repaired"); r != nullptr && r->boolean) {
            repaired += 1.0;
          }
          const std::string new_fp = next->string;
          checks.push_back([checked = c.checked, stroke = std::move(stroke), new_fp,
                         id](CheckLog& log) {
            *checked = dynamic::apply_updates(*checked, stroke);
            if (serve::fingerprint_hex(serve::graph_fingerprint(*checked)) != new_fp) {
              log.fail("update " + std::to_string(id) + " produced graph " +
                       new_fp + ", expected another");
            }
          });
          c.fp = new_fp;
          const int j = c.steps % kPoolRhs;
          traffic.send_body(solve_body(c, c.fp, j), now_s(), kSolve, sent.ref);
          ++report.attempted;
          return;
        }
        fresh_ms.add((now - sent.due) * 1e3);
        SpanRecorder::global().request("solve (fresh version)", id, sent.due, now);
        const std::vector<double>* b = &c.pool[static_cast<std::size_t>(c.steps % kPoolRhs)];
        checks.push_back([checked = c.checked, b, id, line = std::move(line)](CheckLog& log) {
          const JsonValue doc = obs::parse_json(line);
          if (!reply_ok(doc, id) || !doc.at("converged").boolean) {
            log.fail("fresh solve " + std::to_string(id) + " failed");
            return;
          }
          const std::vector<double> x = numbers(doc.at("x"));
          if (x.size() != b->size() ||
              relative_residual(*checked, x, *b) > 10.0 * kTolerance) {
            log.fail("fresh solve " + std::to_string(id) + " is not a solution");
          }
        });
        ++c.steps;
        if (now < end && c.steps < c.steps_total) send_update(sent.ref);
      });
    }
  }
  const double elapsed = now_s() - start;
  run_checks(checks, report.checks);

  // At most the p95: the grid chain's bulk updates, one in ten of its
  // strokes; the p90 sits on the edge between local and bulk updates.
  report_latency(report, update_ms, 95.0);
  report.set("rhs_per_s", static_cast<double>(fresh_ms.count()) / elapsed, "1/s",
             fresh_ms.count());
  report.set("fresh_solve_p50_ms", fresh_ms.median(), "ms", fresh_ms.count());
  report.set("serve.updates_repaired_frac",
             repaired / std::max<double>(1.0, static_cast<double>(update_ms.count())),
             "ratio", update_ms.count());
  finish_served(ctx, deployment, report);

  if (ctx.trace) {
    // The first kReplaySteps steps of both chains (one bulk update each),
    // replayed one request at a time.
    ServeReplay replay;
    for (std::size_t i = 0; i < bases.size(); ++i) {
      replay.loads.push_back(load_body(bases[i].path));
      replay.warmups.push_back(seeded_solve_body(bases[i].fp, derive_seed(ctx.seed, 5)));
      Chain c = make_chain(bases[i], derive_seed(ctx.seed, 30 + i), steps[i]);
      Graph current = bases[i].graph;
      for (int step = 0; step < (ctx.quick ? 4 : kReplaySteps); ++step) {
        const std::vector<dynamic::EdgeUpdate> stroke = next_stroke(c);
        replay.requests.push_back(update_body(c.fp, stroke));
        current = dynamic::apply_updates(current, stroke);
        c.fp = serve::fingerprint_hex(serve::graph_fingerprint(current));
        replay.requests.push_back(solve_body(c, c.fp, step % kPoolRhs));
      }
    }
    replay.socket_dir = ctx.work_dir + "/sockets";
    serve_ledger(replay, report);
    dynamic_ledger(ledger_graph, report);
    report_triad(report);
  }
}

}  // namespace bench
