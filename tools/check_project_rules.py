#!/usr/bin/env python3
"""Project-specific lint rules for hicond.

This is the token layer of the lint stack and the only one tier-1 runs
(the lint_rules_* ctests).  Every rule is implemented once: a rule a token
scan can hold lives here; tools/hicond-tidy keeps only the checks that need
types or data flow (owner-computes, ordered-iteration, untrusted-size,
boundary-validation, float-compare).  docs/STATIC_ANALYSIS.md has the table.

Suppression: omp-funnel, omp-determinism, no-std-rand, chrono-timing,
syscall-discipline and fd-ownership honour `// hicond-tidy: allow(<rule>)`
on the flagged line or the line directly above, the same scope hicond-tidy
uses for its own checks.

Rules (each failure prints `path:line: [rule] message` and exits nonzero):

  omp-schedule        Every OpenMP worksharing loop (`#pragma omp for`,
                      `#pragma omp parallel for`) must carry an explicit
                      `schedule(...)` clause.  Implicit schedules make run
                      times (and TSan interleavings) depend on the compiler
                      default.

  omp-funnel          Raw `#pragma omp parallel` regions are only allowed in
                      util/parallel.hpp.  Everything else must go through
                      `parallel_region()` / `parallel_for()` so fork/join
                      happens-before annotations for TSan stay in one place.

  omp-determinism     `#pragma omp atomic`, `#pragma omp critical` and
                      OpenMP `reduction(...)` clauses are forbidden outside
                      util/parallel.hpp.  Their accumulation order depends on
                      the runtime schedule, which breaks the project's
                      run-to-run determinism policy; use owner-computes
                      partitioning or the fixed-block reductions in
                      util/parallel.hpp (parallel_sum, parallel_any).

  no-std-rand         `std::rand` / `srand` / bare `rand(` are forbidden;
                      use util/rng.hpp (counter-based, deterministic,
                      thread-safe).

  check-coverage      Every non-util .cpp under src/hicond must use at least
                      one of HICOND_CHECK / HICOND_VALIDATE /
                      HICOND_RUN_VALIDATION / HICOND_ASSERT — public entry
                      points validate their inputs.  A per-file proxy of
                      hicond-tidy's per-function boundary-validation.

  include-hygiene     Headers start with `#pragma once` (after an optional
                      leading comment block); a module's .cpp includes its
                      own header first.

  chrono-timing       Raw `std::chrono` / `#include <chrono>` timing is only
                      allowed in util/timer.* and the observability layer
                      (src/hicond/obs/).  Everything else must time through
                      util/timer (Timer, time_best_of) or obs spans so
                      measurements share one clock and show up in traces.
                      tests/ are exempt (sleep_for in timer tests).

  float-equal         `==` / `!=` against a floating-point literal is
                      forbidden in library, bench, benchmark, example and
                      fuzz code;
                      use util/float_eq.hpp (exact_zero, exactly_equal,
                      approx_equal).  Genuinely exact comparisons carry a
                      `// float-eq: exact` annotation.  tests/ are exempt
                      (gtest macros do their own comparison plumbing).
                      A coarse proxy that cannot see types: hicond-tidy's
                      float-compare catches `x == y` on two doubles, this
                      rule keeps the literal cases in tier-1.

  certify-coverage    Every public header in src/hicond/certify/ must have a
                      sibling .cpp that uses the HICOND_CHECK family — the
                      certificate oracle is the layer of last resort and must
                      validate its own inputs.

  serve-coverage      Every public header in src/hicond/serve/ must be
                      #included by at least one translation unit under
                      tests/ — the serving subsystem is the outermost API
                      boundary and ships nothing untested.

  backend-coverage    Every public header in src/hicond/partition/backends/
                      must be #included by at least one translation unit
                      under tests/, and every builtin backend name listed
                      in kBuiltinBackendNames (backend.cpp) must appear in
                      the property suite under tests/prop/ — backends are
                      interchangeable only if each one is driven through
                      the certify oracle.

  syscall-discipline  Direct read/write/readv/writev/pread/pwrite/send/
                      recv/sendto/recvfrom/sendmsg/recvmsg calls are only
                      allowed in serve/wire.{hpp,cpp} and
                      util/unique_fd.hpp.  Raw I/O syscalls can return
                      short counts or EINTR; everything else goes through
                      the wire helpers (write_all, write_line, read_into,
                      drain_nonblocking), which retry correctly.  tests/
                      are exempt (tests drive sockets directly to provoke
                      edge cases).  Function declarations (`long
                      read(int, void*, unsigned long);`, a member
                      `Stream& write(...)`) are not calls and pass.

  fd-ownership        Raw `close()` / `::close()` calls, and descriptors
                      acquired into a plain integer (`int fd = socket(`,
                      `open`, `accept`, `dup`, `eventfd`, `mkstemp`, ...),
                      are only allowed in util/unique_fd.hpp and
                      serve/wire.{hpp,cpp}.  Descriptors are owned by
                      hicond::unique_fd from the call that returns them, and
                      its reset() is the single close site — a raw int
                      leaks on every early-return path and a raw close
                      either double-closes an owned fd or marks such a
                      leak.  Declarations pass; tests/ are exempt.

  allow-marker        A `hicond-tidy: allow(<rule>)` marker must name, in
                      exactly that form, a rule that honours markers: one
                      of the six token rules above or a hicond-tidy check.
                      A misspelt or stale marker suppresses nothing and
                      would hide that fact.

  reduction-funnel    `kReductionBlock` may appear in code only in
                      util/parallel.hpp and under tests/.  Every
                      floating-point sum over a range goes through
                      parallel_sums / parallel_sum there, so each one
                      combines fixed blocks in block order and the
                      thread-count-invariant combine tree lives in one
                      place; a loop that splits its own blocks is a
                      second copy to keep in step by hand.  Comments may
                      name the constant.

  library-reach       Every public header under src/hicond/ must be
                      #included by at least one file under src/,
                      examples/, bench/, benchmark/src/ or fuzz/ other
                      than its own .cpp.  A header that only tests include
                      is library surface nothing ships; delete it with its
                      tests instead.  LIBRARY_REACH_ALLOWED names the
                      exceptions, each with its reason.

Run: python3 tools/check_project_rules.py [root]
"""
from __future__ import annotations

import pathlib
import re
import sys

PRAGMA_OMP = re.compile(r"#\s*pragma\s+omp\s+(.*)")
CHECK_MACROS = re.compile(
    r"HICOND_CHECK|HICOND_VALIDATE|HICOND_RUN_VALIDATION|HICOND_ASSERT"
)
RAND_USE = re.compile(r"std::rand\b|\bsrand\s*\(|(?<![\w:])rand\s*\(")

# Files allowed to contain raw `#pragma omp parallel` (the funnel itself).
OMP_FUNNEL_ALLOWED = {"src/hicond/util/parallel.hpp"}

# util/ and obs/ are infrastructure, not an API boundary; exempt from
# check-coverage.
CHECK_EXEMPT_DIRS = ("src/hicond/util/", "src/hicond/obs/")

# Only these may touch std::chrono directly; see the chrono-timing rule.
CHRONO_ALLOWED_PREFIXES = ("src/hicond/util/timer.", "src/hicond/obs/",
                           "tests/")
CHRONO_USE = re.compile(r"std::chrono\b|#\s*include\s*<chrono>")

# `== 0.0`, `1.5 !=`, `!= 1e-9`, ... on either side of the operator.
FLOAT_LITERAL = r"[-+]?(?:\d+\.\d*|\.\d+|\d+[eE][-+]?\d+)"
FLOAT_EQ = re.compile(
    rf"(?:==|!=)\s*{FLOAT_LITERAL}|{FLOAT_LITERAL}\s*(?:==|!=)"
)
# The approved helper and the per-line escape hatch; see util/float_eq.hpp.
FLOAT_EQ_EXEMPT_FILES = {"src/hicond/util/float_eq.hpp"}
FLOAT_EQ_ANNOTATION = "float-eq: exact"

# The fixed reduction block size and the sums that read it; see the
# reduction-funnel rule.
REDUCTION_FUNNEL_ALLOWED = {"src/hicond/util/parallel.hpp"}
REDUCTION_BLOCK_USE = re.compile(r"\bkReductionBlock\b")

# Raw I/O syscalls and descriptors are funneled through these three files;
# see the syscall-discipline and fd-ownership rules.
WIRE_ALLOWED_FILES = {
    "src/hicond/serve/wire.cpp",
    "src/hicond/serve/wire.hpp",
    "src/hicond/util/unique_fd.hpp",
}
# A free-function call: optionally `::`-qualified, but not a member access
# (`.read(`, `->read(`) and not a suffix of a longer identifier.  `::` is
# accepted so `::read(` and explicit global qualification are caught.
_RAW_IO_NAMES = (
    "read|write|readv|writev|pread|pwrite|"
    "send|recv|sendto|recvfrom|sendmsg|recvmsg"
)
RAW_IO_SYSCALL = re.compile(
    rf"(?:(?<![\w.>:])|(?<=::))(?:{_RAW_IO_NAMES})\s*\("
)
RAW_CLOSE = re.compile(r"(?:(?<![\w.>:])|(?<=::))close\s*\(")
# `int fd = socket(`, `const int c = ::accept(`, `auto fd{open(`: a
# descriptor born into a plain integer instead of a unique_fd.
_FD_PRODUCERS = (
    "open|openat|creat|socket|accept|accept4|dup|dup3|eventfd|"
    "epoll_create|epoll_create1|memfd_create|timerfd_create|signalfd|"
    "inotify_init|inotify_init1|mkstemp"
)
RAW_FD_ACQUIRE = re.compile(
    rf"\b(?:int|auto)\s+\w+\s*[={{]\s*(?:::)?(?:{_FD_PRODUCERS})\s*\("
)
# What precedes a name in a declaration rather than a call: a type name
# (`long read(`, but not `return read(`) or a pointer/reference declarator
# (`Stream& write(`, `char* read(`; `a && write(` is still a call).
DECLARATOR_BEFORE = re.compile(
    r"(?:\b(?!(?:return|co_return|co_await|co_yield|throw|case|else|do|new|"
    r"delete|sizeof|not|and|or)\b)[A-Za-z_]\w*|\w\s*(?:\*+|(?<!&)&))\s*$"
)

# The rules that honour a `hicond-tidy: allow(<rule>)` marker: the token
# rules below that read it, and hicond-tidy's own checks.  Any other name in
# a marker is an allow-marker violation.
TOKEN_ALLOW_RULES = {"omp-funnel", "omp-determinism", "no-std-rand",
                     "chrono-timing", "syscall-discipline", "fd-ownership"}
HICOND_TIDY_CHECKS = {"owner-computes", "ordered-iteration", "untrusted-size",
                      "boundary-validation", "float-compare"}
ALLOW_RULES = TOKEN_ALLOW_RULES | HICOND_TIDY_CHECKS
ALLOW_MARKER = re.compile(r"hicond-tidy:\s*allow\s*\(([^)]*)\)")

# Where a header's includers count for the library-reach rule, and the
# headers exempt from it (include name -> reason).
LIBRARY_REACH_DIRS = ("src", "examples", "bench", "benchmark/src", "fuzz")
LIBRARY_REACH_ALLOWED = {
    "hicond/spectral/sparsify.hpp":
        "ROADMAP item 4 judges sparsified quotients; delete it if that fails",
}
INCLUDE_DIRECTIVE = re.compile(r'^\s*#\s*include\s+[<"]([^">]+)[">]', re.M)


def strip_comments(line: str) -> str:
    """Best-effort removal of // comments and string literals for token rules."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line.split("//", 1)[0]


def logical_source_lines(text: str):
    """Yield (start_lineno, joined) with backslash continuations joined.

    Continuations are joined unconditionally, BEFORE any pattern matching:
    a directive split as `#pragma \\` + `omp parallel ...` has no single
    physical line matching PRAGMA_OMP, so matching first and joining second
    (the old behaviour) let multi-line pragmas evade every omp-* rule.
    """
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        start = i
        full = lines[i].rstrip()
        while full.endswith("\\") and i + 1 < len(lines):
            i += 1
            full = full[:-1].rstrip() + " " + lines[i].strip()
        yield start + 1, full
        i += 1


def logical_source_lines_tight(text: str):
    """Yield (start_lineno, joined) with continuations joined WITHOUT a space.

    logical_source_lines() joins with a space, which is right for pragma
    token rules but wrong for identifier rules: a call spliced mid-token
    (`::clo\\` + `se(fd)`) reassembles to `::close(fd)` only under a
    no-space join.  Token rules (syscall-discipline, fd-ownership) match on
    this variant so backslash splices cannot hide a name.
    """
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        start = i
        full = lines[i].rstrip()
        while full.endswith("\\") and i + 1 < len(lines):
            i += 1
            full = full[:-1].rstrip() + lines[i].strip()
        yield start + 1, full
        i += 1


def tidy_allowed(lines: list[str], lineno: int, rule: str) -> bool:
    """True if a `hicond-tidy: allow(<rule>)` marker covers this line.

    The same scope as hicond-tidy's: the marker counts on the flagged line
    itself or on the physical line directly above it.
    """
    marker = f"hicond-tidy: allow({rule})"
    return any(0 <= idx < len(lines) and marker in lines[idx]
               for idx in (lineno - 1, lineno - 2))


def calls(pattern: re.Pattern[str], code: str) -> bool:
    """True if `pattern` matches `code` anywhere but at a declared name."""
    return any(not DECLARATOR_BEFORE.search(code[:m.start()])
               for m in pattern.finditer(code))


def logical_pragma_lines(text: str):
    """Yield (lineno, pragma_clause) for every logical `#pragma omp` line."""
    for lineno, full in logical_source_lines(text):
        m = PRAGMA_OMP.search(full)
        if m:
            yield lineno, m.group(1)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    src = root / "src" / "hicond"
    if not src.is_dir():
        print(f"error: {src} not found", file=sys.stderr)
        return 2

    scan_dirs = [src]
    for extra in ("tests", "bench", "benchmark", "examples", "fuzz"):
        d = root / extra
        if d.is_dir():
            scan_dirs.append(d)

    errors: list[str] = []

    def err(path: pathlib.Path, line: int, rule: str, msg: str) -> None:
        errors.append(f"{path.relative_to(root)}:{line}: [{rule}] {msg}")

    for d in scan_dirs:
        for path in sorted(d.rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
                continue
            rel = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()

            def flag(lineno: int, rule: str, msg: str) -> None:
                """err() for the TOKEN_ALLOW_RULES: honours allow markers."""
                if not tidy_allowed(lines, lineno, rule):
                    err(path, lineno, rule, msg)

            # --- allow-marker -------------------------------------------
            for lineno, line in enumerate(lines, 1):
                for m in ALLOW_MARKER.finditer(line):
                    name = m.group(1)
                    if (m.group(0) != f"hicond-tidy: allow({name})"
                            or name not in ALLOW_RULES):
                        err(path, lineno, "allow-marker",
                            f"'{m.group(0)}' names no rule that honours "
                            "allow markers; it suppresses nothing")

            # --- OpenMP rules -------------------------------------------
            for lineno, clause in logical_pragma_lines(text):
                tokens = clause.split()
                is_worksharing_for = "for" in tokens
                if is_worksharing_for and "schedule(" not in clause.replace(
                    " ", ""
                ):
                    err(path, lineno, "omp-schedule",
                        "OpenMP worksharing loop without an explicit "
                        "schedule(...) clause")
                if tokens and tokens[0] == "parallel":
                    if rel not in OMP_FUNNEL_ALLOWED:
                        flag(lineno, "omp-funnel",
                             "raw '#pragma omp parallel' outside "
                             "util/parallel.hpp; use parallel_region() / "
                             "parallel_for()")
                if rel not in OMP_FUNNEL_ALLOWED and (
                    "atomic" in tokens
                    or "critical" in tokens
                    or "reduction(" in clause.replace(" ", "")
                ):
                    flag(lineno, "omp-determinism",
                         "schedule-ordered accumulation (atomic/critical/"
                         "reduction) outside util/parallel.hpp; use "
                         "owner-computes writes or parallel_sum/parallel_any")

            # --- no-std-rand --------------------------------------------
            for lineno, line in enumerate(lines, 1):
                stripped = strip_comments(line)
                if RAND_USE.search(stripped):
                    flag(lineno, "no-std-rand",
                         "std::rand/srand/rand() is forbidden; use "
                         "util/rng.hpp")

            # --- float-equal --------------------------------------------
            if (
                rel not in FLOAT_EQ_EXEMPT_FILES
                and not rel.startswith("tests/")
            ):
                for lineno, line in enumerate(lines, 1):
                    if FLOAT_EQ_ANNOTATION in line:
                        continue
                    if FLOAT_EQ.search(strip_comments(line)):
                        err(path, lineno, "float-equal",
                            "==/!= against a floating-point literal; use "
                            "util/float_eq.hpp (exact_zero, exactly_equal, "
                            "approx_equal) or annotate '// float-eq: exact'")

            # --- reduction-funnel ---------------------------------------
            if (
                rel not in REDUCTION_FUNNEL_ALLOWED
                and not rel.startswith("tests/")
            ):
                for lineno, line in enumerate(lines, 1):
                    if REDUCTION_BLOCK_USE.search(strip_comments(line)):
                        err(path, lineno, "reduction-funnel",
                            "kReductionBlock outside util/parallel.hpp; "
                            "sum through parallel_sums / parallel_sum")

            # --- chrono-timing ------------------------------------------
            if not any(rel.startswith(p) for p in CHRONO_ALLOWED_PREFIXES):
                for lineno, line in enumerate(lines, 1):
                    if CHRONO_USE.search(strip_comments(line)):
                        flag(lineno, "chrono-timing",
                             "raw std::chrono outside util/timer and obs/; "
                             "use util/timer (Timer, time_best_of) or "
                             "HICOND_SPAN")

            # --- syscall-discipline / fd-ownership ----------------------
            # Raw I/O syscalls, raw close() and raw-int descriptors outside
            # the wire/unique_fd funnel.  Matched on no-space-joined
            # logical lines so a backslash splice through the middle of an
            # identifier cannot hide a name.
            if rel not in WIRE_ALLOWED_FILES and not rel.startswith("tests/"):
                for lineno, tight in logical_source_lines_tight(text):
                    code = strip_comments(tight)
                    if calls(RAW_IO_SYSCALL, code):
                        flag(lineno, "syscall-discipline",
                             "raw I/O syscall outside serve/wire and "
                             "util/unique_fd.hpp; use wire::write_all/"
                             "write_line/read_into/drain_nonblocking")
                    if calls(RAW_CLOSE, code):
                        flag(lineno, "fd-ownership",
                             "raw close() outside util/unique_fd.hpp; own "
                             "descriptors with hicond::unique_fd (reset() "
                             "is the single close site)")
                    if RAW_FD_ACQUIRE.search(code):
                        flag(lineno, "fd-ownership",
                             "descriptor stored in a raw int; wrap it in "
                             "hicond::unique_fd at the call that returns "
                             "it so error paths cannot leak it")

            # --- check-coverage (library .cpp only) ---------------------
            if (
                path.suffix == ".cpp"
                and rel.startswith("src/hicond/")
                and not any(rel.startswith(p) for p in CHECK_EXEMPT_DIRS)
                and not CHECK_MACROS.search(text)
            ):
                err(path, 1, "check-coverage",
                    "no HICOND_CHECK/HICOND_VALIDATE in this translation "
                    "unit; public entry points must validate inputs")

            # --- certify-coverage ---------------------------------------
            if path.suffix == ".hpp" and rel.startswith(
                "src/hicond/certify/"
            ):
                sibling = path.with_suffix(".cpp")
                if not sibling.exists():
                    err(path, 1, "certify-coverage",
                        "certify/ header without a sibling .cpp; the oracle "
                        "layer must have a checked implementation")
                elif not CHECK_MACROS.search(sibling.read_text(
                        encoding="utf-8")):
                    err(path, 1, "certify-coverage",
                        f"{sibling.relative_to(root)} has no "
                        "HICOND_CHECK/HICOND_VALIDATE; the certificate "
                        "oracle must validate its inputs")

            # --- include-hygiene ----------------------------------------
            if path.suffix in (".hpp", ".h") and rel.startswith("src/"):
                pragma_line = None
                for lineno, line in enumerate(lines, 1):
                    code = line.strip()
                    if code.startswith("#pragma once"):
                        pragma_line = lineno
                        break
                    if code and not code.startswith("//"):
                        break
                if pragma_line is None:
                    err(path, 1, "include-hygiene",
                        "header must start with '#pragma once' (after an "
                        "optional leading comment block)")
            if path.suffix == ".cpp" and rel.startswith("src/hicond/"):
                own_header = path.with_suffix(".hpp")
                if own_header.exists():
                    expected = own_header.relative_to(root / "src").as_posix()
                    first_include = None
                    for lineno, line in enumerate(lines, 1):
                        m = re.match(r'\s*#\s*include\s+[<"]([^">]+)[">]',
                                     line)
                        if m:
                            first_include = (lineno, m.group(1))
                            break
                    if first_include is None or first_include[1] != expected:
                        err(path, first_include[0] if first_include else 1,
                            "include-hygiene",
                            f'first include must be its own header '
                            f'"{expected}"')

    # --- serve-coverage (cross-file) ------------------------------------
    # The serving subsystem is the outermost API boundary, and dynamic/ is
    # its mutation path: every public header under src/hicond/serve/ and
    # src/hicond/dynamic/ must be exercised by at least one test
    # translation unit (direct #include under tests/).
    tests_dir = root / "tests"
    covered_dirs = [src / "serve", src / "dynamic"]
    if tests_dir.is_dir():
        test_includes: set[str] = set()
        for test_path in tests_dir.rglob("*.cpp"):
            for m in re.finditer(r'#\s*include\s+"([^"]+)"',
                                 test_path.read_text(encoding="utf-8")):
                test_includes.add(m.group(1))
        for covered in covered_dirs:
            if not covered.is_dir():
                continue
            for header in sorted(covered.rglob("*.hpp")):
                include_name = header.relative_to(root / "src").as_posix()
                if include_name not in test_includes:
                    err(header, 1, "serve-coverage",
                        f'"{include_name}" is not included by any test '
                        "under tests/; every serve/ and dynamic/ header "
                        "needs test coverage")

    # --- backend-coverage (cross-file) ----------------------------------
    # Partitioner backends are interchangeable implementations behind one
    # interface; interchangeability is only real if every backend is
    # exercised.  Two obligations: (a) each header under
    # src/hicond/partition/backends/ is #included by a test TU, and
    # (b) each builtin backend name (the kBuiltinBackendNames roster in
    # backend.cpp) appears in the property suite under tests/prop/, which
    # drives all registered backends through the certify oracle.
    backends_dir = src / "partition" / "backends"
    if tests_dir.is_dir() and backends_dir.is_dir():
        for header in sorted(backends_dir.rglob("*.hpp")):
            include_name = header.relative_to(root / "src").as_posix()
            if include_name not in test_includes:
                err(header, 1, "backend-coverage",
                    f'"{include_name}" is not included by any test under '
                    "tests/; every partitioner backend header needs test "
                    "coverage")
        registry_cpp = backends_dir / "backend.cpp"
        roster_match = re.search(
            r"kBuiltinBackendNames\[\]\s*=\s*\{([^}]*)\}",
            registry_cpp.read_text(encoding="utf-8"))
        if roster_match is None:
            err(registry_cpp, 1, "backend-coverage",
                "could not locate the kBuiltinBackendNames roster; the "
                "backend-coverage rule parses it to enforce prop-suite "
                "coverage")
        else:
            roster = re.findall(r'"([^"]+)"', roster_match.group(1))
            prop_text = "".join(
                p.read_text(encoding="utf-8")
                for p in sorted((tests_dir / "prop").rglob("*.cpp")))
            for name in roster:
                if name not in prop_text:
                    err(registry_cpp, 1, "backend-coverage",
                        f'builtin backend "{name}" never appears in '
                        "tests/prop/; the property suite must drive every "
                        "registered backend through the certify oracle")

    # --- library-reach (cross-file) ------------------------------------
    # A public header that only tests (or its own .cpp) include is surface
    # no caller, bench row, example or fuzzer needs.
    includers: dict[str, set[str]] = {}
    for reach in LIBRARY_REACH_DIRS:
        reach_dir = root / reach
        if not reach_dir.is_dir():
            continue
        for path in reach_dir.rglob("*"):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
                continue
            rel = path.relative_to(root).as_posix()
            for m in INCLUDE_DIRECTIVE.finditer(
                    path.read_text(encoding="utf-8")):
                includers.setdefault(m.group(1), set()).add(rel)
    for header in sorted(src.rglob("*.hpp")):
        include_name = header.relative_to(root / "src").as_posix()
        if include_name in LIBRARY_REACH_ALLOWED:
            continue
        own_cpp = header.with_suffix(".cpp").relative_to(root).as_posix()
        if not includers.get(include_name, set()) - {own_cpp}:
            err(header, 1, "library-reach",
                f'"{include_name}" is included by no file under '
                "src/, examples/, bench/, benchmark/src/ or fuzz/ other "
                "than its own .cpp; delete test-only library surface")

    if errors:
        print("\n".join(errors))
        print(f"\ncheck_project_rules: {len(errors)} violation(s)",
              file=sys.stderr)
        return 1
    print("check_project_rules: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
