#!/usr/bin/env python3
"""Scripted end-to-end session against the hicond_serve NDJSON service.

Drives the real binaries through the real wire protocol and asserts the
serving subsystem's contract:

  1. load: a binary snapshot produced by `hicond_tool snapshot-convert`
     loads and reports the same fingerprint `hicond_tool fingerprint` printed.
  2. cold -> warm: the second identical solve is a cache hit, its setup cost
     is at most 5% of the cold build (it is zero), and its solution is
     bitwise identical (equal solution_fnv) to the cold solve.
  3. batch: an 8-RHS batched solve returns, per column, exactly the bits of
     the corresponding single-RHS solves (rhs_random seeds are seed+j).
     On multicore machines the batch must also beat the summed sequential
     solve time; on single-core runners the timing is only reported. Each
     side's time is the best of three alternating rounds (the batch, then
     the 8 sequential solves), so one stalled round on a busy host does not
     decide the comparison.
  4. overload: a deadline_ms=0 request is shed with a well-formed
     deadline_exceeded error and the server keeps serving afterwards.
  5. shutdown: drains and exits 0.

Usage: serve_smoke.py HICOND_SERVE_BIN HICOND_TOOL_BIN [WORK_DIR]
Exit 0 when every assertion holds.
"""

import json
import os
import subprocess
import sys
import tempfile

RHS_SEED = 100
BATCH_K = 8
TIMING_ROUNDS = 3


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)


class ServeSession:
    """One hicond_serve process, spoken to over stdin/stdout NDJSON."""

    def __init__(self, binary):
        self.proc = subprocess.Popen(
            [binary],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.next_id = 0

    def call(self, request):
        self.next_id += 1
        request = dict(request, id=self.next_id)
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        check(line, f"server closed the stream answering {request}")
        response = json.loads(line)
        check(
            response.get("id") == self.next_id,
            f"response id mismatch: sent {self.next_id}, got {response}",
        )
        return response

    def finish(self):
        out, err = self.proc.communicate(timeout=60)
        check(
            self.proc.returncode == 0,
            f"server exited {self.proc.returncode}; stderr:\n{err}",
        )
        check(not out.strip(), f"unexpected trailing output: {out!r}")


def run(tool, *args):
    result = subprocess.run(
        [tool, *args], capture_output=True, text=True, check=False
    )
    check(
        result.returncode == 0,
        f"{os.path.basename(tool)} {' '.join(args)} exited "
        f"{result.returncode}: {result.stderr}",
    )
    return result.stdout.strip()


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    serve_bin, tool_bin = sys.argv[1], sys.argv[2]
    work = sys.argv[3] if len(sys.argv) > 3 else tempfile.mkdtemp(
        prefix="hicond_serve_smoke_"
    )
    os.makedirs(work, exist_ok=True)

    wel = os.path.join(work, "smoke.wel")
    snap = os.path.join(work, "smoke.hsnap")
    run(tool_bin, "gen", "grid2d", "32", wel, "3")
    run(tool_bin, "snapshot-convert", wel, snap)
    fingerprint = run(tool_bin, "fingerprint", snap)
    check(
        len(fingerprint) == 16,
        f"fingerprint is not 16 hex digits: {fingerprint!r}",
    )

    session = ServeSession(serve_bin)

    loaded = session.call({"op": "load", "path": snap})
    check(loaded.get("ok") is True, f"load failed: {loaded}")
    check(
        loaded.get("graph") == fingerprint,
        f"server fingerprint {loaded.get('graph')} != tool {fingerprint}",
    )

    solve = {"op": "solve", "graph": fingerprint, "rhs_seed": 42}
    cold = session.call(solve)
    check(cold.get("ok") is True, f"cold solve failed: {cold}")
    check(cold.get("cache_hit") is False, "first solve must be a miss")
    check(cold.get("converged") is True, "cold solve did not converge")
    check(cold["setup_seconds"] > 0.0, "cold solve reported zero setup")

    warm = session.call(solve)
    check(warm.get("ok") is True, f"warm solve failed: {warm}")
    check(warm.get("cache_hit") is True, "second solve must be a hit")
    check(
        warm["setup_seconds"] <= 0.05 * cold["setup_seconds"],
        f"warm setup {warm['setup_seconds']}s exceeds 5% of cold "
        f"{cold['setup_seconds']}s",
    )
    check(
        warm["solution_fnv"] == cold["solution_fnv"],
        f"warm solution {warm['solution_fnv']} != cold "
        f"{cold['solution_fnv']}: cache hit changed the bits",
    )
    check(warm["iterations"] == cold["iterations"], "iteration count drifted")

    best_batch = best_sequential = float("inf")
    for _ in range(TIMING_ROUNDS):
        batch = session.call(
            {
                "op": "batch_solve",
                "graph": fingerprint,
                "rhs_random": {"count": BATCH_K, "seed": RHS_SEED},
            }
        )
        check(batch.get("ok") is True, f"batch solve failed: {batch}")
        check(all(batch["converged"]), "batched column failed to converge")
        check(
            len(batch["solution_fnv"]) == BATCH_K,
            f"expected {BATCH_K} solution hashes, got {batch}",
        )

        sequential_seconds = 0.0
        for j, column_fnv in enumerate(batch["solution_fnv"]):
            single = session.call(
                {"op": "solve", "graph": fingerprint, "rhs_seed": RHS_SEED + j}
            )
            check(single.get("ok") is True, f"sequential solve {j} failed")
            check(
                single["solution_fnv"] == column_fnv,
                f"batched column {j} ({column_fnv}) is not bitwise equal to "
                f"the sequential solve ({single['solution_fnv']})",
            )
            check(
                single["iterations"] == batch["iterations"][j],
                f"batched column {j} took {batch['iterations'][j]} "
                f"iterations, sequential took {single['iterations']}",
            )
            sequential_seconds += single["solve_seconds"]
        best_batch = min(best_batch, batch["solve_seconds"])
        best_sequential = min(best_sequential, sequential_seconds)

    ratio = best_batch / max(best_sequential, 1e-12)
    print(
        f"serve_smoke: batch {BATCH_K} RHS {best_batch:.6f}s vs "
        f"sequential {best_sequential:.6f}s (ratio {ratio:.2f}, best of "
        f"{TIMING_ROUNDS} rounds each)"
    )
    if (os.cpu_count() or 1) > 1:
        check(
            best_batch < best_sequential,
            f"batched solve ({best_batch}s) is not faster than "
            f"{BATCH_K} sequential solves ({best_sequential}s)",
        )
    else:
        print("serve_smoke: single-core runner; timing comparison reported "
              "but not asserted")

    shed = session.call(
        {"op": "solve", "graph": fingerprint, "rhs_seed": 1, "deadline_ms": 0}
    )
    check(shed.get("ok") is False, "deadline_ms=0 request was not shed")
    check(
        shed.get("error") == "deadline_exceeded",
        f"expected deadline_exceeded, got {shed}",
    )

    after = session.call(solve)
    check(
        after.get("ok") is True and after.get("cache_hit") is True,
        "server stopped serving after a shed request",
    )

    stats = session.call({"op": "stats"})
    check(stats.get("ok") is True, f"stats failed: {stats}")
    check(stats["cache"]["misses"] == 1, f"expected 1 cold build: {stats}")
    check(stats["cache"]["hits"] >= BATCH_K + 2, f"hit count low: {stats}")

    done = session.call({"op": "shutdown"})
    check(done.get("ok") is True, f"shutdown failed: {done}")
    session.finish()
    print("serve_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
