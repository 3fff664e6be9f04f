#include "serve_ledger.hpp"

#include <sched.h>

#include <algorithm>
#include <optional>

#include "hicond/obs/json.hpp"
#include "hicond/serve/server.hpp"
#include "hicond/util/common.hpp"
#include "inputs.hpp"

namespace bench {

using hicond::obs::JsonValue;

namespace {

/// What one response says about itself; `ok` covers the echo and
/// convergence checks every replayed request must pass.
struct Reply {
  bool ok = false;
  bool is_update = false;
  double compute_s = 0.0;  ///< setup_seconds + solve_seconds
  double solve_s = -1.0;   ///< -1 when the op does not solve
};

Reply inspect(const std::string& line, std::int64_t id) {
  Reply r;
  const JsonValue doc = hicond::obs::parse_json(line);
  const JsonValue* okv = doc.find("ok");
  const JsonValue* idv = doc.find("id");
  r.ok = okv != nullptr && okv->boolean && idv != nullptr &&
         static_cast<std::int64_t>(idv->number) == id;
  if (const JsonValue* op = doc.find("op"); op != nullptr) {
    r.is_update = op->string == "update";
  }
  if (const JsonValue* s = doc.find("setup_seconds"); s != nullptr) {
    r.compute_s += s->number;
  }
  if (const JsonValue* s = doc.find("solve_seconds"); s != nullptr) {
    r.compute_s += s->number;
    r.solve_s = s->number;
  }
  if (const JsonValue* c = doc.find("converged"); c != nullptr) {
    if (c->is_array()) {
      for (const JsonValue& e : c->array) r.ok = r.ok && e.boolean;
    } else {
      r.ok = r.ok && c->boolean;
    }
  }
  return r;
}

/// Pins the calling thread, and every process it starts while pinned, to
/// the processor it runs on; the previous mask comes back on destruction.
/// On a shared host one processor can run a quarter slower than another
/// for seconds (another tenant's work on the same core), which would read
/// as a compute difference between the in-process and the routed run of
/// one request. Pinned, both meet the same processor; with one request in
/// flight, the benchmark, the router and the worker take turns on it.
class PinToThisCpu {
 public:
  PinToThisCpu() {
    HICOND_CHECK(::sched_getaffinity(0, sizeof saved_, &saved_) == 0,
                 "sched_getaffinity failed");
    const int cpu = ::sched_getcpu();
    HICOND_CHECK(cpu >= 0, "sched_getcpu failed");
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(static_cast<std::size_t>(cpu), &one);
    HICOND_CHECK(::sched_setaffinity(0, sizeof one, &one) == 0,
                 "sched_setaffinity failed");
  }
  ~PinToThisCpu() { (void)::sched_setaffinity(0, sizeof saved_, &saved_); }
  PinToThisCpu(const PinToThisCpu&) = delete;
  PinToThisCpu& operator=(const PinToThisCpu&) = delete;

 private:
  cpu_set_t saved_{};
};

}  // namespace

double serve_ledger(const ServeReplay& replay, Report& report) {
  const ScopedSpan ledger("ledger.serve");
  // One thread, as every deployed worker runs.
  const ThreadScope threads(1);
  const PinToThisCpu pin;
  hicond::serve::ServerCore core;
  Deployment deployment(replay.socket_dir);
  std::int64_t id = 0;
  // One line through the in-process core (returning the step's response)
  // and through the idle router.
  const auto in_process = [&](const std::string& line, double& submit_s,
                              double& step_s) {
    const double t0 = now_s();
    const bool refused = core.submit(line).has_value();
    const double t1 = now_s();
    const std::optional<std::string> out = core.step();
    submit_s = t1 - t0;
    step_s = now_s() - t1;
    return refused || !out ? Reply{} : inspect(*out, id);
  };
  const auto setup = [&](const std::string& body, const char* what) {
    const std::string line = with_id(body, ++id);
    report.attempted += 2;
    double submit_s = 0.0;
    double step_s = 0.0;
    if (!in_process(line, submit_s, step_s).ok ||
        !inspect(deployment.call(line), id).ok) {
      report.checks.fail(std::string(what) + " failed in the serve replay");
    }
    return submit_s + step_s;
  };
  Samples load_s;
  for (const std::string& body : replay.loads) load_s.add(setup(body, "load"));
  for (const std::string& body : replay.warmups) (void)setup(body, "warm-up");

  // Each request goes through the in-process core, then through the idle
  // router, on the same processor and moments apart. The hop is what the
  // round trip adds beyond the worker's own compute (as its response
  // reports it) and the in-process submit + wire cost of the same request.
  Samples submit_us, step_ms, solve_ms, wire_ms, req_kb, resp_kb;
  Samples rtt_ms, hop_ms, update_hop_ms, parts_ms;
  for (const std::string& body : replay.requests) {
    const std::string line = with_id(body, ++id);
    report.attempted += 2;
    double submit_s = 0.0;
    double step_s = 0.0;
    const double t0 = now_s();
    const Reply local = in_process(line, submit_s, step_s);
    SpanRecorder::global().request("serve.submit+step", id, t0, now_s());
    const double t1 = now_s();
    const std::string out = deployment.call(line);
    const double rtt = now_s() - t1;
    SpanRecorder::global().request("shard.routed_round_trip", id, t1, t1 + rtt);
    const Reply routed = inspect(out, id);
    if (!local.ok || !routed.ok) {
      report.checks.fail("serve replay request " + std::to_string(id) +
                         " failed");
    }
    const double wire = step_s - local.compute_s;
    const double hop = rtt - routed.compute_s - wire - submit_s;
    submit_us.add(submit_s * 1e6);
    step_ms.add(step_s * 1e3);
    wire_ms.add(wire * 1e3);
    if (local.solve_s >= 0.0) solve_ms.add(local.solve_s * 1e3);
    req_kb.add(static_cast<double>(line.size()) / 1024.0);
    resp_kb.add(static_cast<double>(out.size()) / 1024.0);
    rtt_ms.add(rtt * 1e3);
    hop_ms.add(hop * 1e3);
    parts_ms.add((submit_s + step_s + hop) * 1e3);
    if (local.is_update) update_hop_ms.add(hop * 1e3);
  }
  if (replay.deployment_stats) report_deployment_stats(deployment, report);
  deployment.shutdown();

  report.set("serve.snapshot_load_s", load_s.median(), "s", load_s.count());
  report.set("serve.submit_p50_us", submit_us.median(), "us", submit_us.count());
  report.set("serve.step_p50_ms", step_ms.median(), "ms", step_ms.count());
  report.set("serve.solve_p50_ms", solve_ms.median(), "ms", solve_ms.count());
  report.set("serve.wire_p50_ms", wire_ms.median(), "ms", wire_ms.count());
  report.set("serve.req_kb_mean", req_kb.mean(), "KiB", req_kb.count());
  report.set("serve.resp_kb_mean", resp_kb.mean(), "KiB", resp_kb.count());
  report.set("shard.hop_p50_ms", hop_ms.median(), "ms", hop_ms.count());
  if (update_hop_ms.count() > 0) {
    report.set("shard.update_hop_p50_ms", update_hop_ms.median(), "ms",
               update_hop_ms.count());
  }
  // Per request, parts minus round trip is the in-process compute minus the
  // routed worker's compute of the same request. The ledger compares the
  // medians of the two per-request totals: a mix of light and heavy
  // requests has no meaningful sum of medians, and a mean follows the few
  // cold rebuilds, whose time varies most between the two runs.
  report.set("ledger.routed_rtt_ms", rtt_ms.median(), "ms", rtt_ms.count());
  report.set("ledger.routed_parts_ms", parts_ms.median(), "ms",
             parts_ms.count());
  return rtt_ms.median();
}

void report_deployment_stats(Deployment& deployment, Report& report) {
  const JsonValue doc =
      hicond::obs::parse_json(deployment.call("{\"op\":\"stats\"}"));
  const JsonValue& cache = doc.at("aggregate").at("cache");
  const double hits = cache.at("hits").number;
  const double misses = cache.at("misses").number;
  report.set("serve.cache_hit_frac", hits / std::max(1.0, hits + misses),
             "ratio", static_cast<std::size_t>(hits + misses));
  report.set("serve.cache_evictions", cache.at("evictions").number, "count");
  double total = 0.0;
  double busiest = 0.0;
  for (const JsonValue& w : doc.at("per_worker").array) {
    if (const JsonValue* s = w.find("stats"); s != nullptr) {
      const double requests = s->at("requests").number;
      total += requests;
      busiest = std::max(busiest, requests);
    }
  }
  report.set("shard.busiest_worker_share", busiest / std::max(1.0, total),
             "ratio");
  const JsonValue& router = doc.at("router");
  report.set("shard.shed", router.at("shed").number, "count");
  report.set("shard.retries", router.at("retries").number, "count");
}

}  // namespace bench
