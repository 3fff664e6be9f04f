#!/usr/bin/env python3
"""Check BENCHMARK.json and benchmark result files against each other.

    python3 benchmark/check_benchmark.py RESULT.json [RESULT.json ...]

RESULT.json is what hicond_workloads writes with --out (benchmark/run.py
keeps one per run under .bench_build/results/). Fails (exit 1) when

  * BENCHMARK.json breaks its own format rules (keys, name and unit
    characters, bounds, counts, setup_s present);
  * a metric the mode needs (end_to_end untraced, per_layer traced) is
    missing or carries another unit, or any metric name is malformed;
  * an operation failed, or the load generator ran late (p99 > 1 ms);
  * a traced run's ledger does not close: connectivity + decompose +
    quotient + preconditioner build must land within 10% of the facade's
    setup time, and submit + step + hop within 10% of the idle routed
    round trip (medians of the per-request totals). --quick results (tiny
    inputs, sub-second phases) report the ledger gaps and the generator's
    lateness without failing on them.

BENCHMARK.json is read from the root of the checkout this script sits in.
"""
import json
import os
import re
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LEDGER_TOLERANCE = 0.10
MAX_LATE_MS = 1.0


def check_spec(spec: dict) -> list:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
        return errors
    if not 1 <= len(spec["paths"]) <= 16:
        errors.append("paths: need 1 to 16 directories")
    if not (isinstance(spec["run_seconds"], int) and
            1 <= spec["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number in [1, 60]")
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("workloads: need 2 to 8")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        errors.append("end_to_end: need 1 to 16 metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        errors.append("per_layer: need 1 to 128 metrics")
    seen = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            errors.append(f"workload {w.get('name')}: needs name + one-line why")
    for kind, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                         ("per_layer", {"name", "unit", "better"})):
        for m in spec[kind]:
            if set(m) != fields:
                errors.append(f"{kind} {m.get('name')}: keys {sorted(m)}")
                continue
            if not UNIT.match(m["unit"]) or m["better"] not in ("lower",
                                                                "higher"):
                errors.append(f"{kind} {m['name']}: bad unit or direction")
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"{m['name']}: bound must be in (0, 0.25]")
    for item in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(item["name"]) or item["name"] in seen:
            errors.append(f"name {item['name']!r} is malformed or repeated")
        seen.add(item["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    return errors


def ledger_gap(metrics: dict, parts: str, whole: str) -> float:
    return (abs(metrics[parts]["value"] - metrics[whole]["value"]) /
            metrics[whole]["value"])


def check_result(spec: dict, path: str) -> list:
    with open(path, encoding="utf-8") as f:
        result = json.load(f)
    tag = f"{os.path.basename(path)} ({result['workload']}, " \
          f"{'trace' if result['trace'] else 'end-to-end'})"
    errors = []
    metrics = result["metrics"]
    for name in metrics:
        if not NAME.match(name):
            errors.append(f"{tag}: malformed metric name {name!r}")
    wanted = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"{tag}: missing {m['name']}")
        elif got["unit"] != m["unit"]:
            errors.append(f"{tag}: {m['name']} in {got['unit']}, "
                          f"BENCHMARK.json says {m['unit']}")
    if result["failed"] > 0 or not result["correct"]:
        errors.append(f"{tag}: {result['failed']} of {result['attempted']} "
                      f"operations failed: {result['failures'][:3]}")
    late = metrics.get("loadgen.late_p99_ms")
    # A --quick run sends a dozen requests, so its p99 is the single
    # latest send: one preemption of the generator would fail it.
    if late is not None and late["value"] > MAX_LATE_MS and not result["quick"]:
        errors.append(f"{tag}: load generator ran late, p99 "
                      f"{late['value']:.3f} ms > {MAX_LATE_MS} ms")
    if result["trace"]:
        for parts, whole, what in (
                ("ledger.setup_parts_s", "ledger.setup_facade_s", "setup"),
                ("ledger.routed_parts_ms", "ledger.routed_rtt_ms", "routed")):
            if parts not in metrics or whole not in metrics:
                errors.append(f"{tag}: {what} ledger missing")
                continue
            gap = ledger_gap(metrics, parts, whole)
            print(f"{tag}: {what} ledger gap {100 * gap:.1f}%")
            if gap > LEDGER_TOLERANCE and not result["quick"]:
                errors.append(f"{tag}: {what} ledger misses its total by "
                              f"{100 * gap:.1f}% (> 10%)")
    return errors


def main() -> int:
    args = sys.argv[1:]
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    errors = check_spec(spec)
    for path in args:
        errors += check_result(spec, path)
    for e in errors:
        print(f"FAIL {e}")
    print(f"{len(args)} result file(s): {'FAIL' if errors else 'OK'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
