#!/usr/bin/env python3
"""Build the benchmark from this checkout, then run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE]

Run from the root of the checkout. The library, hicond_serve, hicond_router
and hicond_workloads are configured and built into .bench_build
(or $CARGO_TARGET_DIR when set); an up-to-date tree costs one no-op build.
Build output goes to <build>/build.log, never to stdout.

hicond_workloads prints every metric it measured and writes them all to the
result file (--out, default <build>/results/...). This script then prints,
as the last line of stdout, the metrics BENCHMARK.json lists for the mode:
its end_to_end metrics with --trace 0, its per_layer metrics with --trace 1.
The exit code is that of hicond_workloads (1 when an output check failed),
2 when the build fails and 3 when a listed metric is missing.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def build(build_dir: str) -> str:
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # Configure until a configure has completed (it writes the build file).
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "hicond_workloads", "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(log_path, encoding="utf-8") as f:
                    tail = f.readlines()[-40:]
                sys.stderr.write("".join(tail))
                sys.stderr.write(f"benchmark build failed: {' '.join(cmd)}"
                                 f" (full log: {log_path})\n")
                sys.exit(2)
    return os.path.join(build_dir, "hicond_workloads")


def option(args: list, name: str, default: str) -> str:
    return args[args.index(name) + 1] if name in args[:-1] else default


def main() -> int:
    args = sys.argv[1:]
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    # Relative, so worker socket paths stay short (sun_path holds 108 bytes).
    rel = os.path.relpath(build_dir)
    trace = option(args, "--trace", "0") == "1"
    out = option(args, "--out", "")
    if not out:
        os.makedirs(os.path.join(build_dir, "results"), exist_ok=True)
        out = os.path.join(build_dir, "results", "{}-seed{}-trace{}.json".format(
            option(args, "--workload", "none"), option(args, "--seed", "1"),
            int(trace)))
        args += ["--out", out]
    if os.path.exists(out):
        os.remove(out)
    code = subprocess.run([binary, *args, "--work-dir",
                           os.path.join(rel, "work"), "--trace-dir",
                           os.path.join(rel, "traces")],
                          check=False).returncode
    if not os.path.exists(out):
        return code or 1
    with open(out, encoding="utf-8") as f:
        result = json.load(f)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            sys.stderr.write(f"metric {m['name']} missing from {out}\n")
            return 3
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
