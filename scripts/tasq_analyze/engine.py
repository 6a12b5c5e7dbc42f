"""Runs rules modules: the CLI, the baseline and the self-test harness."""

import argparse
import importlib
import os
import sys
import tempfile
from . import lexer
from .core import ConfigError, SourceIndex

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MODULES = ("lint", "arch", "num", "hot", "sync", "own", "vec")


def load(name):
    return importlib.import_module(f"{__package__}.{name}")


def analyze(module, index, opts):
    findings = module.check(index, opts)
    findings.sort(key=lambda f: (f.path, f.rule, f.line))
    return findings


def baseline_path(name):
    return os.path.join("scripts", f"{name}_baseline.txt")


def load_baseline(root, name):
    path = os.path.join(root, baseline_path(name))
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as f:
        return {line.rstrip("\n") for line in f
                if line.strip() and not line.startswith("#")}


def write_baseline(root, name, findings):
    with open(os.path.join(root, baseline_path(name)), "w",
              encoding="utf-8") as f:
        f.write(f"# Accepted {name} findings (rule<TAB>path).\n"
                f"# Regenerate with: python3 scripts/tasq_analyze {name} "
                "--update-baseline\n")
        for key in sorted({finding.key() for finding in findings}):
            f.write(key + "\n")


def report(name, findings, root, update):
    """Prints findings not in the baseline; returns the exit code."""
    if update:
        write_baseline(root, name, findings)
        print(f"{name}: baseline updated with {len(findings)} finding(s)")
        return 0
    baseline = load_baseline(root, name)
    new = [f for f in findings if f.key() not in baseline]
    stale = sorted(baseline - {f.key() for f in findings})
    for finding in new:
        print(finding)
    if stale:
        print(f"note: {len(stale)} stale {name} baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} (fixed findings — "
              "run --update-baseline to prune):")
        for key in stale:
            print(f"  {key}")
    if new:
        print(f"\n{len(new)} new {name} finding(s). Fix them or, if "
              f"accepted, run: python3 scripts/tasq_analyze {name} "
              "--update-baseline")
        return 1
    print(f"{name} ok ({len(findings)} baselined finding(s), "
          f"{len(stale)} stale)")
    return 0


def run_tree(module, tree, opts):
    """Findings of `module` on a fixture tree materialized in a tempdir."""
    with tempfile.TemporaryDirectory(prefix="tasq_analyze_") as tmp:
        for rel, content in tree.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        return analyze(module, SourceIndex(tmp), opts)


def self_test(name, opts):
    """Failure messages of one module's fixtures; empty when all pass.
    Coverage-gated: every rule needs a firing positive and a quiet
    negative, so no rule can land without fixtures."""
    module = load(name)
    with_pos = {c.rule for c in module.CASES if c.positive is not None}
    with_neg = {c.rule for c in module.CASES if c.negative is not None}
    rules = set(module.RULES)
    if with_pos != rules or with_neg != rules:
        return [f"[{name}] fixtures out of sync with RULES: no positive "
                f"{sorted(rules - with_pos)}, no negative "
                f"{sorted(rules - with_neg)}, unknown "
                f"{sorted((with_pos | with_neg) - rules)}"]
    failures = []
    for case in module.CASES:
        if case.positive is not None:
            findings = run_tree(module, case.positive, opts)
            fired = {f.rule for f in findings}
            missing = [s for s in case.says
                       if not any(s in f.message for f in findings)]
            if fired != {case.rule} or missing:
                failures.append(
                    f"[{case.rule}] positive fixture must fire only this "
                    f"rule{' saying ' + repr(missing) if missing else ''}; "
                    "saw: " + ("; ".join(map(str, findings)) or "nothing"))
        if case.negative is not None:
            leftover = run_tree(module, case.negative, opts)
            if leftover:
                failures.append(f"[{case.rule}] negative fixture is not "
                                "quiet: " + "; ".join(map(str, leftover)))
    return failures + getattr(module, "self_check", list)()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tasq_analyze", description=sys.modules[__package__].__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("modules", nargs="+", choices=MODULES,
                        metavar="MODULE", help=" | ".join(MODULES))
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to analyze")
    parser.add_argument("--self-test", action="store_true",
                        help="run the lexer and each module's fixtures "
                        "instead of analyzing --root")
    parser.add_argument("--update-baseline", action="store_true",
                        help="accept all current findings into each "
                        "module's baseline")
    parser.add_argument("--list", action="store_true",
                        help="list what the module enforces (hot: the hot "
                        "closure, sync: atomic sites, own: raw-pointer "
                        "members, vec: annotated loops)")
    parser.add_argument("--dot", metavar="PATH",
                        help="arch: module DAG, hot: hot call graph, as "
                        "Graphviz written to PATH ('-' for stdout)")
    parser.add_argument("--layers", default="scripts/arch_layers.toml",
                        help="arch: layer declaration file, relative to "
                        "--root")
    parser.add_argument("--report", metavar="PATH",
                        help="vec: vectorization report file (GCC "
                        "-fopt-info-vec-all output, or Clang .opt.yaml)")
    parser.add_argument("--build", metavar="DIR",
                        help="vec: build dir to find vec_report.txt or "
                        "*.opt.yaml in")
    args = parser.parse_args(argv)

    if args.self_test:
        failures = lexer.self_test()
        for name in args.modules:
            # Fixtures run with default options: each tree carries its own
            # config files and compiler report.
            module_failures = self_test(name, parser.parse_args([name]))
            failures += module_failures
            if not module_failures:
                print(f"{name} self-test passed: {len(load(name).RULES)} "
                      "rules, each with a firing positive and a quiet "
                      "negative fixture")
        for failure in failures:
            print(f"self-test FAILED: {failure}")
        return 1 if failures else 0

    hook = "dot" if args.dot else "listing" if args.list else None
    for name in args.modules:
        if hook and not hasattr(load(name), hook):
            parser.error(f"{name} has no {'--dot' if args.dot else '--list'}")
    if args.dot and len(args.modules) > 1:
        parser.error("--dot takes one module")
    index = SourceIndex(args.root)
    status = 0
    for name in args.modules:
        module = load(name)
        try:
            if args.dot:
                text = module.dot(index, args)
                if args.dot == "-":
                    sys.stdout.write(text)
                else:
                    with open(args.dot, "w", encoding="utf-8") as f:
                        f.write(text)
                    print(f"{name}: graph written to {args.dot}")
            elif args.list:
                for line in module.listing(index, args):
                    print(line)
            else:
                status = max(status, report(
                    name, analyze(module, index, args), args.root,
                    args.update_baseline))
        except ConfigError as err:
            print(f"error: {name}: {err}")
            status = 2
    return status
