#!/usr/bin/env bash
# Lint gate for hicond: project rules + their self-tests, clang-tidy and
# hicond-tidy (both when available). Each project rule has one
# implementation: the token rules in check_project_rules.py, or one of
# hicond-tidy's five typed checks (docs/STATIC_ANALYSIS.md has the table).
#
# Usage: tools/lint.sh [build-dir]
#
#   build-dir   A configured CMake build directory containing
#               compile_commands.json (default: build). Needed for the
#               clang-tidy and hicond-tidy halves; the project-rule checks
#               always run.
#
# clang-tidy and hicond-tidy are optional at the tool level so the gate
# degrades gracefully on machines without LLVM (the GitHub Actions lint and
# hicond-tidy jobs install the toolchain and run the full gate). Set
# HICOND_TIDY_BIN to point at a hicond-tidy binary explicitly; otherwise
# the script looks for one in the build directory. The script exits nonzero
# if any enabled check fails.
#
# Stage cache: each stage's inputs (the files it reads, its tool binary,
# its configuration) are content-hashed into <build-dir>/.lint-cache/
# <stage>.hash on success; a stage whose inputs are bit-identical to the
# last passing run is skipped. Only successes are recorded, so a failing
# stage always re-runs. Set HICOND_LINT_NO_CACHE=1 to force every stage.
set -u -o pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
status=0

# --- stage cache ----------------------------------------------------------
cache_dir="${build_dir}/.lint-cache"
have_cache=0
if command -v sha256sum >/dev/null 2>&1 \
    && mkdir -p "${cache_dir}" 2>/dev/null; then
  have_cache=1
fi

# stage_hash <file-or-dir>... : one hash over the paths and contents of
# every listed file (directories are expanded to their regular files), so
# edits, renames, additions and deletions all change the hash.
stage_hash() {
  find "$@" -type f -print0 2>/dev/null | sort -z | xargs -0 -r sha256sum \
    | sha256sum | cut -d' ' -f1
}

# stage_fresh <stage> <hash> : true when the stage passed before on
# bit-identical inputs (and caching is enabled).
stage_fresh() {
  [[ ${have_cache} -eq 1 ]] \
    && [[ "${HICOND_LINT_NO_CACHE:-0}" != "1" ]] \
    && [[ -f "${cache_dir}/$1.hash" ]] \
    && [[ "$(cat "${cache_dir}/$1.hash")" == "$2" ]]
}

# stage_done <stage> <hash> : record a passing run.
stage_done() {
  if [[ ${have_cache} -eq 1 ]]; then
    printf '%s\n' "$2" >"${cache_dir}/$1.hash" 2>/dev/null || true
  fi
}

# --- clang-tidy -----------------------------------------------------------
tidy_bin="${CLANG_TIDY:-clang-tidy}"
if command -v "${tidy_bin}" >/dev/null 2>&1; then
  if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
    echo "lint.sh: ${build_dir}/compile_commands.json not found." >&2
    echo "lint.sh: configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON first." >&2
    status=1
  else
    hash="$(stage_hash "${repo_root}/src" "${repo_root}/.clang-tidy" \
      "${build_dir}/compile_commands.json")"
    if stage_fresh clang-tidy "${hash}"; then
      echo "lint.sh: clang-tidy inputs unchanged since last pass; skipping" \
           "(HICOND_LINT_NO_CACHE=1 to force)."
    else
      mapfile -t sources < <(find "${repo_root}/src/hicond" -name '*.cpp' | sort)
      echo "lint.sh: running ${tidy_bin} on ${#sources[@]} files..."
      runner="$(command -v run-clang-tidy || true)"
      if [[ -n "${runner}" ]]; then
        "${runner}" -clang-tidy-binary "${tidy_bin}" -p "${build_dir}" -quiet \
          "${sources[@]}" && stage_done clang-tidy "${hash}" || status=1
      else
        "${tidy_bin}" -p "${build_dir}" --quiet "${sources[@]}" \
          && stage_done clang-tidy "${hash}" || status=1
      fi
    fi
  fi
else
  echo "lint.sh: ${tidy_bin} not found; skipping clang-tidy (project rules" \
       "still run). Install LLVM or set CLANG_TIDY to enable." >&2
fi

# --- hicond-tidy ----------------------------------------------------------
# The checks that need types or data flow: owner-computes,
# ordered-iteration, untrusted-size, boundary-validation, float-compare.
tidy_tool="${HICOND_TIDY_BIN:-${build_dir}/tools/hicond-tidy/hicond-tidy}"
if [[ -x "${tidy_tool}" ]]; then
  if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
    echo "lint.sh: ${build_dir}/compile_commands.json not found;" >&2
    echo "lint.sh: hicond-tidy needs -DCMAKE_EXPORT_COMPILE_COMMANDS=ON." >&2
    status=1
  else
    hash="$(stage_hash "${repo_root}/src" "${repo_root}/examples" \
      "${repo_root}/bench" "${repo_root}/fuzz" \
      "${repo_root}/tools/hicond-tidy/test/run_tree_scan.py" \
      "${tidy_tool}" "${build_dir}/compile_commands.json")"
    if stage_fresh hicond-tidy "${hash}"; then
      echo "lint.sh: hicond-tidy inputs unchanged since last pass;" \
           "skipping (HICOND_LINT_NO_CACHE=1 to force)."
    else
      echo "lint.sh: running hicond-tidy tree scan..."
      python3 "${repo_root}/tools/hicond-tidy/test/run_tree_scan.py" \
        "${tidy_tool}" "${build_dir}" "${repo_root}" \
        && stage_done hicond-tidy "${hash}" || status=1
    fi
  fi
else
  echo "lint.sh: hicond-tidy not built; skipping its five typed checks" \
       "(configure with -DHICOND_TIDY=ON and LLVM/Clang dev packages to" \
       "enable)." >&2
fi

# --- project rules --------------------------------------------------------
# Every token-level rule, the moved omp-funnel/omp-determinism, no-std-rand,
# chrono-timing, syscall-discipline and fd-ownership included.
hash="$(stage_hash "${repo_root}/src" "${repo_root}/tests" \
  "${repo_root}/bench" "${repo_root}/benchmark" "${repo_root}/examples" \
  "${repo_root}/fuzz" "${repo_root}/tools/check_project_rules.py")"
if stage_fresh project-rules "${hash}"; then
  echo "lint.sh: project-rule inputs unchanged since last pass; skipping" \
       "(HICOND_LINT_NO_CACHE=1 to force)."
else
  python3 "${repo_root}/tools/check_project_rules.py" "${repo_root}" \
    && stage_done project-rules "${hash}" || status=1
fi

# --- project-rule self-tests ----------------------------------------------
hash="$(stage_hash "${repo_root}/tools/lint_tests" \
  "${repo_root}/tools/check_project_rules.py")"
if stage_fresh lint-selftests "${hash}"; then
  echo "lint.sh: lint self-test inputs unchanged since last pass;" \
       "skipping (HICOND_LINT_NO_CACHE=1 to force)."
else
  python3 "${repo_root}/tools/lint_tests/run_lint_tests.py" \
    && stage_done lint-selftests "${hash}" || status=1
fi

if [[ ${status} -ne 0 ]]; then
  echo "lint.sh: FAILED" >&2
else
  echo "lint.sh: OK"
fi
exit "${status}"
