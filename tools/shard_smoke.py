#!/usr/bin/env python3
"""Scripted end-to-end session against the sharded hicond serving stack.

Drives the real hicond_serve and hicond_router binaries through the real
wire protocol (lone server and router on stdio, workers over unix sockets)
and asserts the serving contract, first of one server, then of the sharded
deployment:

  1. lone server: a binary snapshot produced by `hicond_tool
     snapshot-convert` loads under the fingerprint `hicond_tool fingerprint`
     printed; the second identical solve is a cache hit whose setup costs
     at most 5% of the cold build and whose solution is bitwise identical;
     an 8-RHS batched solve returns, per column, exactly the bits of the
     single-RHS solves (rhs_random seeds are seed+j) and, on multicore
     machines, beats their summed time (each side the best of three
     alternating rounds, so one stalled round on a busy host does not
     decide it); a deadline_ms=0 request is shed with deadline_exceeded and
     the server keeps serving; stats count one cold build; shutdown exits 0.
  2. reference: a lone hicond_serve answers every solve/batch_solve first;
     its solution_fnv values are the ground truth for bitwise equality.
     It also answers requests that ship vectors: a solve and a batch_solve
     with explicit right-hand sides, and four malformed vectors (a string
     entry, a wrong length, an empty b, an rhs column that is no array).
  3. topology: the router reports 3 live workers with distinct pids, the
     ring parameters, and -- after loads -- each graph's owning worker.
  4. routing: every solve and batch_solve routed through the router returns
     solution_fnv values byte-identical to the lone server's; warm repeats
     are cache hits with identical bits. The vector-shipping requests get
     the lone server's solution_fnv and x, and its error responses byte
     for byte (id aside). A shutdown line whose id is -2 (not
     an id at all) is refused with parse_error, and the deployment keeps
     serving.
  5. backends: solves carrying a partitioner-backend selection route to
     their own cache entries and stay byte-identical to a lone server
     running the same session; an unknown backend is rejected; an update
     against a louvain-built entry declines local repair with
     "backend_unsupported" and lands via the cold-rebuild fallback.
  6. supervision: SIGKILLing the worker that owns a slow cold build while
     the request is in flight must be invisible to the client -- the router
     respawns the worker, replays its loads, retries the request once, and
     the retried response is still bitwise identical; stats report the
     restart/retry and topology shows a new pid.
  7. aggregated stats: the fanned-out stats document carries the aggregate
     cache/requests section, router counters, and one per-worker breakdown
     (including the per-entry cache stats) per live worker. The router runs
     without OMP_NUM_THREADS, so each worker reports
     max(1, processors // workers) OpenMP threads.
  8. shutdown: drains, stops every worker process, exits 0.

Usage: shard_smoke.py HICOND_ROUTER_BIN HICOND_SERVE_BIN HICOND_TOOL_BIN
                      [WORK_DIR]
Exit 0 when every assertion holds.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

WORKERS = 3
RHS_SEED = 17
BATCH_K = 4
# The lone-server contract pass has inputs of its own.
LONE_RHS_SEED = 100
LONE_BATCH_K = 8
TIMING_ROUNDS = 3


def fail(message):
    print(f"shard_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)


class Session:
    """One NDJSON server process (router or lone worker) spoken to over
    stdin/stdout. post()/read_response() are split so the kill-mid-flight
    test can interleave a signal between request and response."""

    def __init__(self, argv, env=None):
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.next_id = 0

    def post(self, request):
        self.next_id += 1
        request = dict(request, id=self.next_id)
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.next_id

    def read_response(self, want_id):
        line = self.proc.stdout.readline()
        check(line, f"server closed the stream awaiting response {want_id}")
        response = json.loads(line)
        check(
            response.get("id") == want_id,
            f"response id mismatch: want {want_id}, got {response}",
        )
        return response

    def call(self, request):
        return self.read_response(self.post(request))

    def call_raw(self, line):
        """Send one line verbatim (no id added) and return its response."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        response = self.proc.stdout.readline()
        check(response, f"server closed the stream answering {line!r}")
        return json.loads(response)

    def finish(self):
        out, err = self.proc.communicate(timeout=120)
        check(
            self.proc.returncode == 0,
            f"server exited {self.proc.returncode}; stderr:\n{err}",
        )
        check(not out.strip(), f"unexpected trailing output: {out!r}")


def vector_requests(fp, n):
    """Requests that ship vectors to graph `fp` with `n` vertices: two that
    solve, then five malformed ones, each refused as a bad_request. The
    router refuses the last itself instead of forwarding it, so comparing
    it checks that router and server word that refusal alike."""
    raw = [((i * 7919) % 1009) / 1009.0 + 1.0 / (i + 3) for i in range(n)]
    mean = sum(raw) / n
    b = [v - mean for v in raw]
    return [
        {"op": "solve", "graph": fp, "b": b, "return_x": True},
        {"op": "batch_solve", "graph": fp, "rhs": [b, b[::-1]],
         "return_x": True},
        {"op": "solve", "graph": fp, "b": b[:-1] + ["x"]},
        {"op": "solve", "graph": fp, "b": b[:-1]},
        {"op": "solve", "graph": fp, "b": []},
        {"op": "batch_solve", "graph": fp, "rhs": [b, 5]},
        {"op": "solve", "graph": 5},
    ]


def vector_answer(response):
    """What a vector-shipping response must repeat exactly: everything but
    the id, the timings and the cache state."""
    return {
        k: v
        for k, v in response.items()
        if k not in ("id", "setup_seconds", "solve_seconds", "cache_hit")
    }


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


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def kill_when_busy(pid, timeout=30.0):
    """SIGKILL an idle worker as soon as it starts on the request just
    posted to the router, so the kill lands mid-flight however fast the
    cold build is. An idle worker sleeps in its read loop; the first time
    its main thread is seen running (or in uninterruptible I/O) it has
    picked the request up. Without /proc, fall back to a short fixed delay
    that lets the router forward the request."""
    stat_path = f"/proc/{pid}/stat"
    if not os.path.exists(stat_path):
        time.sleep(0.05)
        os.kill(pid, signal.SIGKILL)
        return
    deadline = time.time() + timeout
    while True:
        with open(stat_path, encoding="utf-8") as f:
            stat = f.read()
        # Field 3, after the parenthesised command name.
        if stat[stat.rindex(")") + 2] in "RD":
            break
        check(
            time.time() < deadline,
            f"worker {pid} never started on the request in {timeout}s",
        )
    os.kill(pid, signal.SIGKILL)


def lone_server_contract(serve_bin, tool_bin, work):
    """The single-server contract: snapshot load, cold -> warm, batch vs
    sequential, deadline shed, stats and a clean exit."""
    wel = os.path.join(work, "smoke.wel")
    snap = os.path.join(work, "smoke.hsnap")
    run(tool_bin, "gen", "grid2d", "32", wel, "3")
    run(tool_bin, "snapshot-convert", wel, snap)
    fingerprint = run(tool_bin, "fingerprint", snap)
    check(
        len(fingerprint) == 16,
        f"fingerprint is not 16 hex digits: {fingerprint!r}",
    )

    session = Session([serve_bin])

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
                "rhs_random": {"count": LONE_BATCH_K, "seed": LONE_RHS_SEED},
            }
        )
        check(batch.get("ok") is True, f"batch solve failed: {batch}")
        check(all(batch["converged"]), "batched column failed to converge")
        check(
            len(batch["solution_fnv"]) == LONE_BATCH_K,
            f"expected {LONE_BATCH_K} solution hashes, got {batch}",
        )

        sequential_seconds = 0.0
        for j, column_fnv in enumerate(batch["solution_fnv"]):
            single = session.call(
                {
                    "op": "solve",
                    "graph": fingerprint,
                    "rhs_seed": LONE_RHS_SEED + j,
                }
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
        f"shard_smoke: lone server batch {LONE_BATCH_K} RHS "
        f"{best_batch:.6f}s vs sequential {best_sequential:.6f}s (ratio "
        f"{ratio:.2f}, best of {TIMING_ROUNDS} rounds each)"
    )
    if (os.cpu_count() or 1) > 1:
        check(
            best_batch < best_sequential,
            f"batched solve ({best_batch}s) is not faster than "
            f"{LONE_BATCH_K} sequential solves ({best_sequential}s)",
        )
    else:
        print("shard_smoke: single-core runner; timing comparison reported "
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
    check(stats["cache"]["hits"] >= LONE_BATCH_K + 2, f"hit count low: {stats}")
    check(stats.get("threads", 0) >= 1, f"stats reports no threads: {stats}")

    done = session.call({"op": "shutdown"})
    check(done.get("ok") is True, f"shutdown failed: {done}")
    session.finish()
    print("shard_smoke: lone server contract holds")


def main():
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    router_bin, serve_bin, tool_bin = sys.argv[1], sys.argv[2], sys.argv[3]
    work = sys.argv[4] if len(sys.argv) > 4 else tempfile.mkdtemp(
        prefix="hicond_shard_smoke_"
    )
    os.makedirs(work, exist_ok=True)

    # Several small graphs so the ring has something to spread, plus one
    # large graph whose cold hierarchy build gives a SIGKILL, sent once the
    # worker starts on the solve request, in-flight work to interrupt.
    snaps, fingerprints = [], []
    for i, side in enumerate([24, 28, 32, 36]):
        wel = os.path.join(work, f"g{i}.wel")
        snap = os.path.join(work, f"g{i}.hsnap")
        run(tool_bin, "gen", "grid2d", str(side), wel, str(3 + i))
        run(tool_bin, "snapshot-convert", wel, snap)
        snaps.append(snap)
        fingerprints.append(run(tool_bin, "fingerprint", snap))
    big_wel = os.path.join(work, "big.wel")
    big_snap = os.path.join(work, "big.hsnap")
    run(tool_bin, "gen", "grid2d", "160", big_wel, "99")
    run(tool_bin, "snapshot-convert", big_wel, big_snap)
    big_fp = run(tool_bin, "fingerprint", big_snap)

    # ---- lone-server pass: the single-server contract, then ground truth ---
    lone_server_contract(serve_bin, tool_bin, work)
    lone = Session([serve_bin])
    truth_solve, truth_batch, sizes = {}, {}, {}
    for snap, fp in zip(snaps + [big_snap], fingerprints + [big_fp]):
        loaded = lone.call({"op": "load", "path": snap})
        check(loaded.get("ok") is True, f"reference load failed: {loaded}")
        check(loaded.get("graph") == fp, "reference fingerprint mismatch")
        sizes[fp] = loaded["n"]
        solved = lone.call({"op": "solve", "graph": fp, "rhs_seed": RHS_SEED})
        check(solved.get("ok") is True, f"reference solve failed: {solved}")
        truth_solve[fp] = solved["solution_fnv"]
    batch = lone.call(
        {
            "op": "batch_solve",
            "graph": fingerprints[0],
            "rhs_random": {"count": BATCH_K, "seed": RHS_SEED},
        }
    )
    check(batch.get("ok") is True, f"reference batch failed: {batch}")
    truth_batch[fingerprints[0]] = batch["solution_fnv"]
    shipped = vector_requests(fingerprints[0], sizes[fingerprints[0]])
    truth_shipped = [vector_answer(lone.call(r)) for r in shipped]
    check(
        [t.get("ok") for t in truth_shipped] == [True] * 2 + [False] * 5,
        f"reference vector requests: {[t.get('ok') for t in truth_shipped]}",
    )
    shut = lone.call({"op": "shutdown"})
    check(shut.get("ok") is True, "reference shutdown failed")
    lone.finish()

    # ---- the sharded deployment -------------------------------------------
    # Without OMP_NUM_THREADS the router gives each worker an equal share of
    # the processors (what omp_get_num_procs() counts: the affinity mask).
    router_env = {
        k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"
    }
    worker_threads = max(1, len(os.sched_getaffinity(0)) // WORKERS)
    router = Session(
        [
            router_bin,
            "--workers", str(WORKERS),
            "--worker-bin", serve_bin,
            "--socket-dir", os.path.join(work, "sockets"),
        ],
        env=router_env,
    )
    os.makedirs(os.path.join(work, "sockets"), exist_ok=True)

    topo = router.call({"op": "topology"})
    check(topo.get("ok") is True, f"topology failed: {topo}")
    check(topo["workers_total"] == WORKERS, f"expected {WORKERS} workers")
    check(
        topo["ring"]["vnodes_per_worker"] >= 1,
        f"ring parameters not reported: {topo}",
    )
    states = [w["state"] for w in topo["workers"]]
    check(states == ["up"] * WORKERS, f"workers not all up: {states}")
    pids = [w["pid"] for w in topo["workers"]]
    check(len(set(pids)) == WORKERS, f"worker pids not distinct: {pids}")
    check(all(pid_alive(p) for p in pids), "a reported worker pid is dead")

    for snap, fp in zip(snaps + [big_snap], fingerprints + [big_fp]):
        loaded = router.call({"op": "load", "path": snap})
        check(loaded.get("ok") is True, f"routed load failed: {loaded}")
        check(
            loaded.get("graph") == fp,
            f"routed load fingerprint {loaded.get('graph')} != {fp}",
        )

    topo = router.call({"op": "topology"})
    placements = {g["fingerprint"]: g for g in topo["graphs"]}
    check(
        set(placements) == set(fingerprints + [big_fp]),
        f"topology graph set mismatch: {sorted(placements)}",
    )
    for fp, entry in placements.items():
        check(0 <= entry["primary"] < WORKERS, f"bad primary: {entry}")

    # ---- bitwise equality through the router ------------------------------
    for fp in fingerprints:
        cold = router.call({"op": "solve", "graph": fp, "rhs_seed": RHS_SEED})
        check(cold.get("ok") is True, f"routed solve failed: {cold}")
        check(cold.get("cache_hit") is False, "routed first solve must miss")
        check(
            cold["solution_fnv"] == truth_solve[fp],
            f"routed solve of {fp} is not bitwise equal to the lone "
            f"server: {cold['solution_fnv']} != {truth_solve[fp]}",
        )
        warm = router.call({"op": "solve", "graph": fp, "rhs_seed": RHS_SEED})
        check(warm.get("cache_hit") is True, "routed second solve must hit")
        check(
            warm["solution_fnv"] == truth_solve[fp],
            "routed warm solve changed the bits",
        )
    rbatch = router.call(
        {
            "op": "batch_solve",
            "graph": fingerprints[0],
            "rhs_random": {"count": BATCH_K, "seed": RHS_SEED},
        }
    )
    check(rbatch.get("ok") is True, f"routed batch failed: {rbatch}")
    check(
        rbatch["solution_fnv"] == truth_batch[fingerprints[0]],
        "routed batch_solve columns are not bitwise equal to the lone "
        "server's",
    )
    for request, truth in zip(shipped, truth_shipped):
        got = vector_answer(router.call(request))
        check(
            got == truth,
            f"routed {request['op']} shipping vectors diverged from the lone "
            f"server: {str(got)[:300]} != {str(truth)[:300]}",
        )
    print("shard_smoke: routed solves bitwise-identical to lone server")

    # ---- a shutdown whose id is not an id ---------------------------------
    # -2 was once the router's internal stdin-EOF sentinel: this line made
    # the router drain and exit without a word. An id must be an integer in
    # [0, 2^53], so the line is a parse_error that echoes no id, and the
    # deployment keeps serving.
    refused = router.call_raw('{"id":-2,"op":"shutdown"}')
    check(
        refused.get("ok") is False
        and refused.get("error") == "parse_error"
        and "id" not in refused,
        f"shutdown with id -2 was not refused with parse_error: {refused}",
    )
    topo_after = router.call({"op": "topology"})
    check(
        [w["state"] for w in topo_after["workers"]] == ["up"] * WORKERS,
        f"workers not all up after the refused shutdown: {topo_after}",
    )
    still = router.call(
        {"op": "solve", "graph": fingerprints[0], "rhs_seed": RHS_SEED}
    )
    check(
        still.get("ok") is True
        and still["solution_fnv"] == truth_solve[fingerprints[0]],
        "router stopped serving after the refused shutdown",
    )
    print("shard_smoke: shutdown with id -2 refused; deployment still serving")

    # ---- backend-selected solves and the update decline path ---------------
    # The solve carries the contraction backend in its request line; the
    # router forwards it verbatim, so the routed response must be
    # byte-identical to a lone server running the identical session.
    backend_fp = fingerprints[0]
    upd_backend = [{"kind": "reweight", "u": 0, "v": 1, "weight": 2.0}]
    lone = Session([serve_bin])
    check(
        lone.call({"op": "load", "path": snaps[0]}).get("ok") is True,
        "backend-phase lone load failed",
    )
    truth_backend = {}
    for backend in ["louvain", "lowdiam"]:
        solved = lone.call(
            {
                "op": "solve",
                "graph": backend_fp,
                "rhs_seed": RHS_SEED,
                "backend": backend,
            }
        )
        check(
            solved.get("ok") is True and solved.get("backend") == backend,
            f"backend-phase lone solve failed: {solved}",
        )
        truth_backend[backend] = solved["solution_fnv"]
    # A louvain-built entry has no local repair: the update must decline
    # with an explicit reason and land via the cold-rebuild fallback.
    lone_decl = lone.call(
        {
            "op": "update",
            "graph": backend_fp,
            "updates": upd_backend,
            "backend": "louvain",
        }
    )
    check(
        lone_decl.get("ok") is True
        and lone_decl.get("repaired") is False
        and lone_decl.get("decline_reason") == "backend_unsupported",
        f"lone louvain update did not decline cleanly: {lone_decl}",
    )
    shut = lone.call({"op": "shutdown"})
    check(shut.get("ok") is True, "backend-phase lone shutdown failed")
    lone.finish()

    for backend in ["louvain", "lowdiam"]:
        req = {
            "op": "solve",
            "graph": backend_fp,
            "rhs_seed": RHS_SEED,
            "backend": backend,
        }
        cold = router.call(req)
        check(
            cold.get("ok") is True and cold.get("backend") == backend,
            f"routed backend solve failed: {cold}",
        )
        check(
            cold.get("cache_hit") is False,
            "a backend-selected solve must be its own cache entry",
        )
        check(
            cold["solution_fnv"] == truth_backend[backend],
            f"routed {backend} solve is not bitwise equal to the lone "
            f"server: {cold['solution_fnv']} != {truth_backend[backend]}",
        )
        warm = router.call(req)
        check(
            warm.get("cache_hit") is True
            and warm["solution_fnv"] == truth_backend[backend],
            f"routed warm {backend} solve drifted",
        )
    bad = router.call(
        {
            "op": "solve",
            "graph": backend_fp,
            "rhs_seed": RHS_SEED,
            "backend": "nope",
        }
    )
    check(
        bad.get("ok") is False and bad.get("error") == "unknown_backend",
        f"unknown backend not rejected: {bad}",
    )
    routed_decl = router.call(
        {
            "op": "update",
            "graph": backend_fp,
            "updates": upd_backend,
            "backend": "louvain",
        }
    )
    check(
        routed_decl.get("ok") is True
        and routed_decl.get("repaired") is False
        and routed_decl.get("decline_reason") == "backend_unsupported"
        and routed_decl.get("new_graph") == lone_decl.get("new_graph"),
        f"routed louvain update decline diverged: {routed_decl}",
    )
    print(
        "shard_smoke: backend-selected solves bitwise-identical; louvain "
        "update declined to cold rebuild"
    )

    # ---- dynamic updates through the router --------------------------------
    # Phase A: an auto-mode (repair) update routed through the router must
    # behave exactly like a lone server running the identical session: same
    # response fields, and post-update solves bitwise equal.
    upd_a = [
        {"kind": "reweight", "u": 0, "v": 1, "weight": 4.25},
        {"kind": "insert", "u": 0, "v": 33, "weight": 1.75},
    ]
    lone = Session([serve_bin])
    check(
        lone.call({"op": "load", "path": snaps[2]}).get("ok") is True,
        "phase-A lone load failed",
    )
    check(
        lone.call(
            {"op": "solve", "graph": fingerprints[2], "rhs_seed": RHS_SEED}
        ).get("ok") is True,
        "phase-A lone warm-up solve failed",
    )
    lone_up = lone.call(
        {"op": "update", "graph": fingerprints[2], "updates": upd_a}
    )
    check(lone_up.get("ok") is True, f"phase-A lone update failed: {lone_up}")
    check(lone_up.get("repaired") is True, f"lone update did not repair: "
          f"{lone_up}")
    lone_new = lone.call(
        {"op": "solve", "graph": lone_up["new_graph"], "rhs_seed": RHS_SEED}
    )
    check(lone_new.get("ok") is True, "phase-A lone post-update solve failed")
    shut = lone.call({"op": "shutdown"})
    check(shut.get("ok") is True, "phase-A lone shutdown failed")
    lone.finish()

    routed_up = router.call(
        {"op": "update", "graph": fingerprints[2], "updates": upd_a}
    )
    check(
        routed_up.get("ok") is True,
        f"routed update failed: {routed_up}",
    )
    for field in ["repaired", "unchanged", "new_graph", "upper_rebuilt",
                  "clusters_touched", "clusters_dirty"]:
        check(
            routed_up.get(field) == lone_up.get(field),
            f"routed update field {field} diverged: "
            f"{routed_up.get(field)} != {lone_up.get(field)}",
        )
    routed_new = router.call(
        {"op": "solve", "graph": routed_up["new_graph"], "rhs_seed": RHS_SEED}
    )
    check(
        routed_new.get("ok") is True
        and routed_new["solution_fnv"] == lone_new["solution_fnv"],
        "routed post-repair solve is not bitwise equal to the lone "
        "server's",
    )
    # The pre-update fingerprint stays served.
    old_again = router.call(
        {"op": "solve", "graph": fingerprints[2], "rhs_seed": RHS_SEED}
    )
    check(
        old_again.get("ok") is True
        and old_again["solution_fnv"] == truth_solve[fingerprints[2]],
        "pre-update fingerprint drifted after the update",
    )
    print("shard_smoke: repair-mode update matches lone server bitwise")

    # Phase B: a rebuild-mode update must be bitwise identical to a lone
    # server cold-loading the mutated snapshot produced by hicond_tool
    # mutate -- the strongest equivalence the determinism policy offers.
    upd_b = [
        {"kind": "reweight", "u": 0, "v": 1, "weight": 3.5},
        {"kind": "insert", "u": 0, "v": 37, "weight": 1.25},
    ]
    upd_b_path = os.path.join(work, "upd_b.json")
    with open(upd_b_path, "w", encoding="utf-8") as f:
        json.dump({"updates": upd_b}, f)
    mut_b_snap = os.path.join(work, "g3_mut.hsnap")
    mut_b_fp = run(tool_bin, "mutate", snaps[3], upd_b_path, mut_b_snap)
    lone = Session([serve_bin])
    check(
        lone.call({"op": "load", "path": mut_b_snap}).get("ok") is True,
        "phase-B lone load failed",
    )
    truth_b = lone.call(
        {"op": "solve", "graph": mut_b_fp, "rhs_seed": RHS_SEED}
    )
    check(truth_b.get("ok") is True, "phase-B lone solve failed")
    shut = lone.call({"op": "shutdown"})
    check(shut.get("ok") is True, "phase-B lone shutdown failed")
    lone.finish()

    rebuilt = router.call(
        {
            "op": "update",
            "graph": fingerprints[3],
            "mode": "rebuild",
            "updates": upd_b,
        }
    )
    check(rebuilt.get("ok") is True, f"rebuild update failed: {rebuilt}")
    check(
        rebuilt.get("repaired") is False,
        "rebuild mode must not take the repair path",
    )
    check(
        rebuilt.get("new_graph") == mut_b_fp,
        f"update fingerprint {rebuilt.get('new_graph')} != hicond_tool "
        f"mutate's {mut_b_fp}",
    )
    routed_b = router.call(
        {"op": "solve", "graph": mut_b_fp, "rhs_seed": RHS_SEED}
    )
    check(
        routed_b.get("ok") is True
        and routed_b["solution_fnv"] == truth_b["solution_fnv"],
        "rebuild-mode update is not bitwise equal to a cold load of the "
        "mutated snapshot",
    )
    print("shard_smoke: rebuild-mode update matches cold mutated load "
          "bitwise")

    # ---- SIGKILL mid-build: supervised retry must be invisible -------------
    big_entry = next(g for g in topo["graphs"] if g["fingerprint"] == big_fp)
    victim = big_entry["primary"]
    victim_pid = next(
        w["pid"] for w in topo["workers"] if w["worker"] == victim
    )
    solve_id = router.post(
        {"op": "solve", "graph": big_fp, "rhs_seed": RHS_SEED}
    )
    kill_when_busy(victim_pid)
    recovered = router.read_response(solve_id)
    check(
        recovered.get("ok") is True,
        f"solve across a worker SIGKILL failed: {recovered}",
    )
    check(
        recovered["solution_fnv"] == truth_solve[big_fp],
        "retried solve after SIGKILL is not bitwise equal to the lone "
        f"server: {recovered['solution_fnv']} != {truth_solve[big_fp]}",
    )
    topo = router.call({"op": "topology"})
    victim_row = next(
        w for w in topo["workers"] if w["worker"] == victim
    )
    check(victim_row["state"] == "up", f"victim not respawned: {victim_row}")
    check(victim_row["restarts"] >= 1, "restart not counted in topology")
    check(
        victim_row["pid"] != victim_pid and pid_alive(victim_row["pid"]),
        "victim pid did not change across the restart",
    )
    # The replayed load is warm state: a repeat solve still matches.
    again = router.call({"op": "solve", "graph": big_fp, "rhs_seed": RHS_SEED})
    check(
        again.get("ok") is True
        and again["solution_fnv"] == truth_solve[big_fp],
        "post-restart solve drifted",
    )
    print(
        f"shard_smoke: SIGKILL of worker {victim} (pid {victim_pid}) "
        "recovered; retried solve bitwise-identical"
    )

    # ---- aggregated stats --------------------------------------------------
    # Re-warm one fingerprint first: if its owner was the SIGKILL victim,
    # the restart emptied that worker's cache (replay restores the load set,
    # hierarchies rebuild on demand), so its per-entry row only reappears
    # once it is solved again.
    rewarm_fp = fingerprints[1]
    for _ in range(2):
        rewarm = router.call(
            {"op": "solve", "graph": rewarm_fp, "rhs_seed": RHS_SEED}
        )
        check(
            rewarm.get("ok") is True
            and rewarm["solution_fnv"] == truth_solve[rewarm_fp],
            "post-restart re-warm drifted",
        )
    stats = router.call({"op": "stats"})
    check(stats.get("ok") is True, f"stats failed: {stats}")
    check(stats["workers"] == WORKERS, "stats worker count wrong")
    agg = stats["aggregate"]
    for field in ["hits", "misses", "evictions", "entries", "bytes",
                  "budget_bytes"]:
        check(field in agg["cache"], f"aggregate.cache missing {field}")
    check(agg["cache"]["hits"] >= 1, "aggregate cache hits not counted")
    check(agg["graphs_loaded"] >= len(snaps), "aggregate graphs_loaded low")
    rt = stats["router"]
    for field in ["requests", "routed", "retries", "restarts", "shed",
                  "workers_up", "updates", "derived_graphs"]:
        check(field in rt, f"router stats missing {field}")
    check(rt["updates"] >= 2, "router did not count the updates")
    check(rt["derived_graphs"] >= 2, "router did not record derived "
          "fingerprints")
    check(rt["retries"] >= 1, "router did not count the retry")
    check(rt["restarts"] >= 1, "router did not count the restart")
    check(rt["workers_up"] == WORKERS, "not all workers up in stats")
    per_worker = stats["per_worker"]
    check(len(per_worker) == WORKERS, "per_worker breakdown wrong length")
    entries = []
    for row in per_worker:
        check(row["state"] == "up", f"worker not up in stats: {row}")
        check("stats" in row, f"up worker carries no stats doc: {row}")
        cache = row["stats"]["cache"]
        check("per_entry" in cache, "worker cache stats missing per_entry")
        check(
            row["stats"].get("threads") == worker_threads,
            f"worker runs {row['stats'].get('threads')} OpenMP threads, "
            f"expected {worker_threads}",
        )
        entries.extend(cache["per_entry"])
    rewarm_rows = [e for e in entries if e["fingerprint"] == rewarm_fp]
    check(rewarm_rows, "re-warmed fingerprint absent from per-entry stats")
    check(
        sum(e["hits"] for e in rewarm_rows) >= 1,
        f"re-warmed fingerprint shows no hits: {rewarm_rows}",
    )

    # ---- SIGKILL mid-update: the retried update lands exactly once ---------
    # A fresh big graph that is loaded but never solved: the update's cold
    # hierarchy build is the slow in-flight work the SIGKILL interrupts, and
    # because the pre-update fingerprint is cold on every server, the
    # post-recovery build is deterministic whichever side of the kill the
    # worker was on.
    big2_wel = os.path.join(work, "big2.wel")
    big2_snap = os.path.join(work, "big2.hsnap")
    run(tool_bin, "gen", "grid2d", "160", big2_wel, "101")
    run(tool_bin, "snapshot-convert", big2_wel, big2_snap)
    big2_fp = run(tool_bin, "fingerprint", big2_snap)
    upd_c = [{"kind": "reweight", "u": 0, "v": 1, "weight": 2.5}]
    upd_c_path = os.path.join(work, "upd_c.json")
    with open(upd_c_path, "w", encoding="utf-8") as f:
        json.dump({"updates": upd_c}, f)
    big2_mut_snap = os.path.join(work, "big2_mut.hsnap")
    big2_mut_fp = run(
        tool_bin, "mutate", big2_snap, upd_c_path, big2_mut_snap
    )
    lone = Session([serve_bin])
    check(
        lone.call({"op": "load", "path": big2_mut_snap}).get("ok") is True,
        "phase-C lone load failed",
    )
    truth_c = lone.call(
        {"op": "solve", "graph": big2_mut_fp, "rhs_seed": RHS_SEED}
    )
    check(truth_c.get("ok") is True, "phase-C lone solve failed")
    shut = lone.call({"op": "shutdown"})
    check(shut.get("ok") is True, "phase-C lone shutdown failed")
    lone.finish()

    loaded = router.call({"op": "load", "path": big2_snap})
    check(loaded.get("ok") is True, f"big2 load failed: {loaded}")
    topo = router.call({"op": "topology"})
    big2_entry = next(
        g for g in topo["graphs"] if g["fingerprint"] == big2_fp
    )
    victim = big2_entry["primary"]
    victim_pid = next(
        w["pid"] for w in topo["workers"] if w["worker"] == victim
    )
    update_id = router.post(
        {"op": "update", "graph": big2_fp, "updates": upd_c}
    )
    kill_when_busy(victim_pid)
    recovered = router.read_response(update_id)
    check(
        recovered.get("ok") is True,
        f"update across a worker SIGKILL failed: {recovered}",
    )
    check(
        recovered.get("new_graph") == big2_mut_fp,
        f"retried update fingerprint {recovered.get('new_graph')} != "
        f"{big2_mut_fp}",
    )
    # Exactly once: the next responses' strict id matching would catch any
    # duplicate emission for update_id; the derived fingerprint solves
    # bitwise identically to the lone cold truth.
    solved_c = router.call(
        {"op": "solve", "graph": big2_mut_fp, "rhs_seed": RHS_SEED}
    )
    check(
        solved_c.get("ok") is True
        and solved_c["solution_fnv"] == truth_c["solution_fnv"],
        "post-SIGKILL update solve is not bitwise equal to the lone cold "
        "truth",
    )
    stats = router.call({"op": "stats"})
    rt = stats["router"]
    check(rt["restarts"] >= 2, "second restart not counted")
    check(rt["updates"] >= 3, "SIGKILL-phase update not counted")
    check(rt["derived_graphs"] >= 3, "derived fingerprint not recorded")
    topo = router.call({"op": "topology"})
    derived = {d["fingerprint"]: d for d in topo.get("derived", [])}
    check(
        big2_mut_fp in derived
        and derived[big2_mut_fp]["root"] == big2_fp,
        f"topology derived map missing {big2_mut_fp}: {sorted(derived)}",
    )
    states = [w["state"] for w in topo["workers"]]
    check(states == ["up"] * WORKERS, f"workers not all up: {states}")
    print(
        f"shard_smoke: SIGKILL of worker {victim} mid-update recovered; "
        "retried update landed exactly once"
    )

    # ---- shutdown ----------------------------------------------------------
    all_pids = [w["pid"] for w in topo["workers"]]
    shut = router.call({"op": "shutdown"})
    check(shut.get("ok") is True, f"shutdown failed: {shut}")
    check(shut.get("workers_stopped") == WORKERS, f"bad shutdown: {shut}")
    router.finish()
    deadline = time.time() + 10
    while time.time() < deadline and any(pid_alive(p) for p in all_pids):
        time.sleep(0.05)
    survivors = [p for p in all_pids if pid_alive(p)]
    check(not survivors, f"worker processes survived shutdown: {survivors}")

    print("shard_smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
