#!/usr/bin/env python3
"""ctest bench_workloads_quick: every workload with --quick (tiny inputs,
1 s phases), untraced and traced, each result checked by
check_benchmark.py.

    python3 benchmark/quick_test.py HICOND_WORKLOADS_BINARY WORK_DIR
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    binary, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    outputs = []
    for name in workloads:
        for trace in ("0", "1"):
            out = os.path.join(work, f"{name}-trace{trace}.json")
            cmd = [binary, "--workload", name, "--seed", "1", "--trace", trace,
                   "--quick", "--out", out, "--work-dir", "work",
                   "--trace-dir", "traces"]
            run = subprocess.run(cmd, cwd=work, capture_output=True, text=True,
                                 check=False)
            if run.returncode != 0:
                sys.stderr.write(run.stdout + run.stderr)
                sys.stderr.write(f"FAIL: {' '.join(cmd)} -> {run.returncode}\n")
                return 1
            outputs.append(out)
    return subprocess.run([sys.executable,
                           os.path.join(HERE, "check_benchmark.py"), *outputs],
                          check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
