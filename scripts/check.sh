#!/usr/bin/env bash
# Runs the full correctness matrix locally:
#
#   1. analyzers          every module of the conformance engine
#                         (scripts/tasq_analyze: lint, arch, num, hot,
#                         sync, own, vec): self-test, repo run, and an
#                         empty-baseline gate each. vec first builds the
#                         compiler's vectorization report (see below).
#                         CI's static-analysis job invokes this leg
#                         verbatim, so the local and CI analyzer matrices
#                         cannot drift.
#   2. Release            build + full ctest
#   3. ASan + UBSan       build + full ctest
#   4. TSan               build + the concurrency-sensitive tests
#   5. FPE traps          Release + TASQ_FPE=ON build + full ctest, so any
#                         unguarded log(0), 0/0, exp overflow, or ordered
#                         NaN comparison crashes the test that reached it
#
# Build-tree naming convention: every leg that needs a configured tree
# owns exactly one `build-check-<leg>` directory (build-check-release,
# build-check-asan, build-check-tsan, build-check-fpe), and special-
# purpose builds follow the same scheme — the fpe leg's Release+traps
# tree is build-check-fpe, and the analyzers leg's vectorization-report
# build is build-check-vec. An existing `build/` stays untouched, and
# `rm -rf build-check-*` resets every leg at once. Set TASQ_CHECK_JOBS
# to bound parallelism.
#
# Usage: scripts/check.sh [analyzers|release|asan|tsan|fpe]... (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${TASQ_CHECK_JOBS:-$(nproc)}"
REPO_ROOT="$(pwd)"

# Known-benign sanitizer findings are suppressed centrally so one noisy
# third-party frame never trains people to ignore red output.
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:${ASAN_OPTIONS:-}"
export LSAN_OPTIONS="suppressions=${REPO_ROOT}/scripts/sanitizers/lsan.supp:${LSAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1:suppressions=${REPO_ROOT}/scripts/sanitizers/ubsan.supp:${UBSAN_OPTIONS:-}"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=${REPO_ROOT}/scripts/sanitizers/tsan.supp:${TSAN_OPTIONS:-}"

run_leg() {
  local name="$1" dir="$2" sanitize="$3" test_regex="$4"
  shift 4
  echo "== ${name}: configure + build (${dir}) =="
  cmake -B "${dir}" -S . -DTASQ_SANITIZE="${sanitize}" "$@" >/dev/null
  # Progress spam goes to /dev/null; warnings and errors arrive on stderr.
  cmake --build "${dir}" -j "${JOBS}" >/dev/null
  echo "== ${name}: ctest =="
  if [[ -n "${test_regex}" ]]; then
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -R "${test_regex}"
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  fi
}

# A baseline that regrows silently converts "enforced" into "suggested":
# every analyzer baseline must contain nothing but comments and blanks.
require_empty_baseline() {
  local path="$1"
  if grep -vE '^\s*(#|$)' "${path}" >/dev/null 2>&1; then
    echo "ERROR: ${path} must stay empty (found accepted findings):" >&2
    grep -vE '^\s*(#|$)' "${path}" >&2
    exit 1
  fi
  echo "   ${path}: empty (gate holds)"
}

# The modules that judge source text; vec judges compiler output.
SOURCE_MODULES=(lint arch num hot sync own)

# THE analyzer matrix — CI's static-analysis job calls
# `scripts/check.sh analyzers` verbatim rather than restating it. One
# call proves the lexer and every rule of every module against their
# fixtures; one call runs the six source modules over the tree, which is
# read and lexed once for all of them; every baseline must stay empty.
analyzers_leg() {
  echo "== analyzers: self-tests (lexer, ${SOURCE_MODULES[*]}, vec) =="
  python3 scripts/tasq_analyze --self-test "${SOURCE_MODULES[@]}" vec
  echo "== analyzers: ${SOURCE_MODULES[*]} =="
  python3 scripts/tasq_analyze "${SOURCE_MODULES[@]}"
  local module
  for module in "${SOURCE_MODULES[@]}"; do
    require_empty_baseline "scripts/${module}_baseline.txt"
  done
  vec_analyzer
}

# The vec module audits compiler output rather than source text, so it
# first builds src/ with -DTASQ_VEC_REPORT=ON (Release flags — the
# vectorizer must see what the shipped code sees).
# GCC *appends* to vec_report.txt: only TUs actually compiled contribute
# lines, so the report is deleted up front AND the build runs
# --clean-first — an incremental rebuild would produce a report missing
# every up-to-date TU (their loops would all read as vec-unresolved),
# while keeping the old report would let stale lines vouch for loops
# that no longer vectorize.
vec_analyzer() {
  echo "== analyzers: vec report build (build-check-vec) =="
  cmake -B build-check-vec -S . -DCMAKE_BUILD_TYPE=Release \
        -DTASQ_VEC_REPORT=ON >/dev/null
  rm -f build-check-vec/vec_report.txt
  cmake --build build-check-vec --target tasq_vec_report -j "${JOBS}" \
        --clean-first >/dev/null
  echo "== analyzers: vec (vectorization conformance) =="
  python3 scripts/tasq_analyze vec --report build-check-vec/vec_report.txt
  require_empty_baseline scripts/vec_baseline.txt
}

LEGS=("$@")
if [[ ${#LEGS[@]} -eq 0 ]]; then LEGS=(analyzers release asan tsan fpe); fi

for leg in "${LEGS[@]}"; do
  case "${leg}" in
    analyzers) analyzers_leg ;;
    release) run_leg "release" build-check-release "" "" ;;
    asan) run_leg "asan+ubsan" build-check-asan "address;undefined" "" ;;
    # TSan's scheduler interleaving makes the full suite slow; the
    # concurrency-sensitive suites (ParallelFor*, ParallelStress*, the
    # cluster simulator/scheduler + arbiter property tests, the serving
    # layer, the annotated mutex wrappers, and the lock-free sync
    # primitives) are the ones a race can hide in. Keep this regex in
    # lockstep with the tsan job in .github/workflows/ci.yml.
    tsan) run_leg "tsan" build-check-tsan "thread" \
                  "Parallel|Cluster|Serve|Mutex|CondVar|Determinism|Arbiter|Sync" ;;
    # Full suite with FE_DIVBYZERO/FE_INVALID/FE_OVERFLOW delivering
    # SIGFPE: a green run proves the fmath.h guards are exhaustive.
    fpe) run_leg "fpe-traps" build-check-fpe "" "" \
                 -DCMAKE_BUILD_TYPE=Release -DTASQ_FPE=ON ;;
    *) echo "unknown leg '${leg}' (want analyzers|release|asan|tsan|fpe)" >&2
       exit 2 ;;
  esac
done

echo "== all requested legs passed =="
