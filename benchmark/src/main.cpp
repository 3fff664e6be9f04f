// hicond_workloads -- the repository benchmark.
//
//   hicond_workloads --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--out FILE] [--work-dir DIR] [--trace-dir DIR]
//
// Runs one workload in this process and prints every metric it measured
// (name, value, unit, sample count) and the operations attempted and
// failed; --out writes the same as JSON. With --trace 1 the run measures
// the per-layer ledger instead of the end-to-end metrics and writes the
// benchmark's spans as Chrome trace JSON into --trace-dir. The library's
// own runtime tracing stays off in both modes. Exits 1 when an output check
// failed, 2 on a usage error. benchmark/run.py builds this binary and is
// the command BENCHMARK.json names.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <omp.h>
#include <string>

#include "hicond/obs/json.hpp"
#include "hicond/obs/trace.hpp"
#include "workloads.hpp"

namespace {

using bench::Report;
using bench::RunContext;

struct Workload {
  const char* name;
  void (*run)(const RunContext&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"paper_oct3d_1m", bench::run_paper_oct3d_1m},
    {"batch_oct3d_110k", bench::run_batch_oct3d_110k},
    {"serve_vectors_routed", bench::run_serve_vectors_routed},
    {"serve_update_stream", bench::run_serve_update_stream},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: hicond_workloads --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--out FILE] [--work-dir DIR] "
               "[--trace-dir DIR]\n",
               why);
  return 2;
}

/// Whole decimal number in [lo, hi]; false on anything else.
bool parse_count(const char* text, unsigned long long lo, unsigned long long hi,
                 unsigned long long& out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0' && out >= lo && out <= hi;
}

std::string result_json(const RunContext& ctx, const Report& r) {
  hicond::obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", ctx.workload);
  w.kv("seed", static_cast<std::int64_t>(ctx.seed));
  w.kv("seconds", ctx.seconds);
  w.kv("trace", ctx.trace);
  w.kv("quick", ctx.quick);
  w.key("machine").begin_object();
  w.kv("omp_procs", omp_get_num_procs());
  w.kv("library_threads", bench::library_threads());
#ifdef NDEBUG
  w.kv("build", "release");
#else
  w.kv("build", "debug");
#endif
  w.kv("validate_level", hicond::validate_level());
  w.kv("trace_compiled", HICOND_TRACE_ENABLED != 0);
  w.end_object();
  w.key("info").begin_object();
  for (const auto& [k, v] : r.infos()) w.kv(k, v);
  w.end_object();
  w.kv("correct", r.checks.failed == 0);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.checks.failed);
  w.key("failures").begin_array();
  for (const std::string& m : r.checks.messages) w.value(m);
  w.end_array();
  w.key("metrics").begin_object();
  for (const bench::Metric& m : r.metrics()) {
    w.key(m.name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.kv("samples", m.samples);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  std::string out_path;
  std::string work_root = ".bench_build/work";
  std::string trace_dir = ".bench_build/traces";
  unsigned long long value = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--quick") {
      ctx.quick = true;
      continue;
    }
    if (next == nullptr) return usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      ctx.workload = next;
    } else if (arg == "--seed") {
      if (!parse_count(next, 0, ~0ULL, value)) return usage("bad --seed");
      ctx.seed = value;
    } else if (arg == "--seconds") {
      if (!parse_count(next, 1, 600, value)) return usage("bad --seconds");
      ctx.seconds = static_cast<double>(value);
    } else if (arg == "--trace") {
      if (!parse_count(next, 0, 1, value)) return usage("bad --trace");
      ctx.trace = value == 1;
    } else if (arg == "--out") {
      out_path = next;
    } else if (arg == "--work-dir") {
      work_root = next;
    } else if (arg == "--trace-dir") {
      trace_dir = next;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (ctx.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown or missing --workload");

  // A router that dies mid-write must surface as an error, not kill us.
  ::signal(SIGPIPE, SIG_IGN);
  hicond::obs::set_trace_enabled(false);
  if (ctx.trace) bench::SpanRecorder::global().enable();

  namespace fs = std::filesystem;
  ctx.work_dir = work_root + "/" + ctx.workload + "-" + std::to_string(::getpid());
  Report report;
  int status = 0;
  try {
    fs::create_directories(ctx.work_dir);
    {
      const bench::ScopedSpan root(ctx.workload);
      workload->run(ctx, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", ctx.workload.c_str(), e.what());
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(ctx.work_dir, ignored);
  if (status != 0) return status;

  for (const bench::Metric& m : report.metrics()) {
    std::printf("%-34s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
    std::printf("\n");
  }
  std::printf("ops attempted %lld failed %lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.checks.failed));
  for (const std::string& m : report.checks.messages) {
    std::printf("FAILED: %s\n", m.c_str());
  }
  if (!out_path.empty() && !write_file(out_path, result_json(ctx, report))) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (ctx.trace) {
    fs::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + ctx.workload + "-seed" +
                             std::to_string(ctx.seed) + ".json";
    if (!write_file(path, bench::SpanRecorder::global().chrome_json())) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %s\n", path.c_str());
  }
  std::fflush(stdout);
  return report.checks.failed == 0 ? 0 : 1;
}
