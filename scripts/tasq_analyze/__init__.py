"""TASQ conformance analyzers: one engine, seven rules modules.

One lexer (lexer.py) and one source index (core.py) serve every module,
so a run reads and lexes each file once however many modules it runs.
Stdlib only, no clang dependency. Modules and their rules:

  lint   style and API conformance: include guards, no `using namespace`
         in headers, no throw or std::cout in src/, header reachability
         from tests, annotated mutexes, no raw lock calls, NOLINT reasons.
  arch   the layer DAG in scripts/arch_layers.toml, private headers,
         include cycles, unused includes, TASQ_NODISCARD on Status/Result,
         discarded or unexplained (void) Status results.
  num    checked math (common/fmath.h), float ==, seeded RNG, float-keyed
         containers, unordered iteration.
  hot    no alloc, growth, string, std::function, lock (outside
         scripts/hot_locks.txt), blocking call or abort reachable from a
         TASQ_HOT function.
  sync   explicit memory orders, justified seq_cst, raw atomics only in
         src/common/sync/ or scripts/sync_files.txt, CAS strength, spin
         loops that pause, no volatile as sync.
  own    spelled ownership: no raw new/delete, annotated raw-pointer
         members, by-value unique_ptr sinks, no shared_ptr copies in
         loops, no arena escapes or arena types with destructors.
  vec    every TASQ_VEC loop confirmed vectorized by the compiler's own
         report (build with -DTASQ_VEC_REPORT=ON; see scripts/check.sh).

Waivers are comments on the finding's line or the line above, with a
mandatory reason: `// <module>: <reason>` (num, sync: `// num: <tag>
<reason>`). Accepted findings live in scripts/<module>_baseline.txt; a
run fails only on findings not in the baseline, and every baseline is
kept empty. Each module's --self-test runs the lexer fixtures, then
requires every rule to fire on its positive fixture and stay quiet on its
near-miss negative.

Usage:
  python3 scripts/tasq_analyze lint arch num hot sync own
  python3 scripts/tasq_analyze --self-test lint arch num hot sync own vec
  python3 scripts/tasq_analyze vec --report build-check-vec/vec_report.txt
  python3 scripts/tasq_analyze arch --dot module_dag.dot
  python3 scripts/tasq_analyze hot --list
  python3 scripts/tasq_analyze num --update-baseline
"""
