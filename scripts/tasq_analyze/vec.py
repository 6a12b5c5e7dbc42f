"""vec: every TASQ_VEC loop confirmed vectorized by the compiler itself.

Unlike the other modules this one does not judge source text; it
cross-checks source annotations against the compiler's vectorization
report. Every performance-critical loop carries `TASQ_VEC` (macro in
src/common/hot.h) on its own line or the same line directly before the
`for`/`while`. A dedicated build emits the vectorizer's per-loop
decisions:

  cmake -B build-check-vec -DCMAKE_BUILD_TYPE=Release -DTASQ_VEC_REPORT=ON
  rm -f build-check-vec/vec_report.txt   # GCC appends; stale lines lie
  cmake --build build-check-vec --target tasq_vec_report --clean-first
  # (--clean-first matters: only recompiled TUs contribute lines, so an
  # incremental build would leave every up-to-date loop "unresolved")

  vec-not-vectorized   the compiler reported `missed: not vectorized`
                       (and never `optimized`) for an annotated loop;
                       the finding carries the compiler's own reason.
  vec-unresolved       an annotated loop produced no verdict at all:
                       GCC rewrote it into memset/memcpy (annotate real
                       arithmetic loops), the annotation drifted off the
                       loop, or the TU wasn't rebuilt into the report.
                       Also fired when TASQ_VEC precedes no for/while.
  vec-stale-waiver     a waived loop that the compiler now vectorizes;
                       the waiver must go.

Waive a deliberately annotated, known-scalar loop with `// vec: <reason>`
on the annotation line, the loop line, or the line above the annotation.

Reports: GCC `-fopt-info-vec-all=<file>` text and, best-effort, Clang
`-fsave-optimization-record` YAML (*.opt.yaml under --build). Without
--report or --build, <root>/build-check-vec/vec_report.txt is read, then
<root>/build/vec_report.txt. --list prints every annotated loop.
"""

import glob
import os
import re

from .core import Case, ConfigError, Finding, waiver

RULES = ("vec-not-vectorized", "vec-unresolved", "vec-stale-waiver")

VEC_ANNOT_RE = re.compile(r"\bTASQ_VEC\b")
LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
VEC = waiver("vec")


def scan_sites(index):
    """(src, annotation line, loop line or None, waived) of every TASQ_VEC
    site under src/, except the macro's own definition."""
    sites = []
    for src in index.src:
        if src.rel.endswith("common/hot.h"):
            continue
        for match in VEC_ANNOT_RE.finditer(src.code):
            annot_line = src.line_of(match.start())
            loop = LOOP_RE.search(src.code, match.end())
            loop_line = loop and src.line_of(loop.start())
            # The macro binds to the loop on its own line or the next
            # one; anything farther is an orphaned annotation.
            if loop_line not in (annot_line, annot_line + 1):
                loop_line = None
            # The waiver sits on the annotation, the line above it, or the
            # loop line.
            waived = src.waived(annot_line, VEC) or (
                loop_line is not None and src.waived(loop_line, VEC))
            sites.append((src.rel, annot_line, loop_line, waived))
    return sites


# ---------------------------------------------------------------------------
# Compiler-report parsing (GCC text, Clang YAML best-effort)
# ---------------------------------------------------------------------------

# GCC -fopt-info-vec-all line:
#   /abs/path/src/ml/kernels.cc:23:25: optimized: loop vectorized using ...
#   /abs/path/src/gbdt/gbdt.cc:61:3: missed: not vectorized: <reason>
GCC_LINE_RE = re.compile(
    r"^(?P<path>[^:\n]+):(?P<line>\d+):\d+:\s*"
    r"(?P<kind>optimized|missed):\s*(?P<msg>.*)$")
VECTORIZED_RE = re.compile(r"\bloop vectorized\b")
NOT_VECTORIZED_RE = re.compile(r"\bnot vectorized\b|\bcouldn't vectorize\b")
CLANG_LOC_RE = re.compile(
    r"File:\s*'?(?P<file>[^',\s]+)'?,\s*Line:\s*(?P<line>\d+)")


def _path_keys(path):
    """Lookup keys for one report path: the src/-relative suffix (the
    stable spelling, immune to build-dir layout) plus the basename as a
    fallback for compilers that print bare filenames."""
    path = path.replace("\\", "/")
    keys = ["src/" + path.rsplit("src/", 1)[1]] if "src/" in path else []
    return keys + [path.rsplit("/", 1)[-1]]


class VecReport:
    """Per-(file, line) vectorizer verdicts aggregated across TUs.

    GCC appends one report section per TU (and re-reports inlined copies
    at their original source location), so one loop can carry several
    lines; `optimized: loop vectorized` anywhere wins — epilogue/versioned
    `missed` lines for a loop that did vectorize are normal."""

    def __init__(self):
        self.optimized = {}  # key -> {line, ...}
        self.missed = {}     # (key, line) -> first reason string
        self.lines_seen = 0

    def add(self, path, line, kind, msg):
        self.lines_seen += 1
        for key in _path_keys(path):
            if kind == "optimized" and VECTORIZED_RE.search(msg):
                self.optimized.setdefault(key, set()).add(line)
            elif kind == "missed" and NOT_VECTORIZED_RE.search(msg):
                self.missed.setdefault((key, line), msg)

    def status(self, rel, line):
        """('vectorized', None) | ('missed', reason) | ('absent', None)."""
        keys = _path_keys(rel)
        if any(line in self.optimized.get(key, ()) for key in keys):
            return ("vectorized", None)
        for key in keys:
            if (key, line) in self.missed:
                return ("missed", self.missed[(key, line)])
        return ("absent", None)

    def parse(self, text):
        """Adds a GCC text report, or a Clang YAML one (only its
        loop-vectorize remarks; no full YAML parser, stdlib only)."""
        if not text.lstrip().startswith("--- !"):
            for match in map(GCC_LINE_RE.match, text.splitlines()):
                if match:
                    self.add(match.group("path"), int(match.group("line")),
                             match.group("kind"), match.group("msg"))
            return self
        for block in re.split(r"^--- !", text, flags=re.M)[1:]:
            kind = block.split("\n", 1)[0].strip()
            pass_match = re.search(r"^Pass:\s*'?([\w-]+)'?", block, re.M)
            loc = CLANG_LOC_RE.search(block)
            if not pass_match or not loc or \
                    pass_match.group(1) != "loop-vectorize":
                continue
            if kind == "Passed":
                self.add(loc.group("file"), int(loc.group("line")),
                         "optimized", "loop vectorized")
            elif kind in ("Missed", "Analysis"):
                strings = re.findall(r"String:\s*'((?:[^']|'')*)'", block)
                self.add(loc.group("file"), int(loc.group("line")), "missed",
                         "not vectorized: " + ("".join(strings).strip() or
                                               "clang missed remark"))
        return self


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def load_report(index, opts):
    """The vectorization report named by --report or --build, else the
    one a vec build leaves under the root."""
    if opts.report:
        try:
            report = VecReport().parse(_read(opts.report))
        except OSError as err:
            raise ConfigError(err) from None
        if report.lines_seen == 0:
            print(f"vec: warning: no vectorizer lines parsed from "
                  f"{opts.report}; every annotated loop will read as "
                  "unresolved")
        return report
    if opts.build:
        gcc = os.path.join(opts.build, "vec_report.txt")
        paths = [gcc] if os.path.exists(gcc) else sorted(glob.glob(
            os.path.join(opts.build, "**", "*.opt.yaml"), recursive=True))
    else:
        paths = [path for path in (
            os.path.join(index.root, build, "vec_report.txt")
            for build in ("build-check-vec", "build"))
            if os.path.exists(path)][:1]
    if not paths:
        raise ConfigError(
            "no vectorization report found; pass --report <file> or --build "
            "<dir> (build with -DTASQ_VEC_REPORT=ON, see scripts/check.sh)")
    report = VecReport()
    for path in paths:
        report.parse(_read(path))
    return report


def check(index, opts):
    report = load_report(index, opts)
    findings = []
    for rel, annot_line, loop_line, waived in scan_sites(index):
        if loop_line is None:
            if not waived:
                findings.append(Finding(
                    "vec-unresolved", rel, annot_line,
                    "TASQ_VEC does not precede a for/while loop on this "
                    "or the next line; the annotation enforces nothing"))
            continue
        status, detail = report.status(rel, loop_line)
        if status == "vectorized" and waived:
            findings.append(Finding(
                "vec-stale-waiver", rel, annot_line,
                "loop carries a `// vec:` waiver but the compiler "
                "vectorized it; remove the waiver (stale waivers "
                "grandfather future regressions in silently)"))
        elif status == "missed" and not waived:
            findings.append(Finding(
                "vec-not-vectorized", rel, loop_line,
                f"TASQ_VEC loop was not vectorized — compiler: "
                f"\"{detail}\". Restructure the loop (see DESIGN.md "
                "\"Vectorization policy\"), or waive with "
                "`// vec: <reason>`"))
        elif status == "absent" and not waived:
            findings.append(Finding(
                "vec-unresolved", rel, loop_line,
                "TASQ_VEC loop has no verdict in the vectorization "
                "report: the loop may have been rewritten into "
                "memset/memcpy (annotate arithmetic loops, not zero/copy "
                "loops), the annotation may have drifted, or the TU was "
                "not rebuilt into the report"))
    return findings


def listing(index, opts):
    sites = scan_sites(index)
    return [f"{rel}:{annot_line}: "
            f"{f'loop at line {loop}' if loop else 'NO LOOP (orphaned)'}"
            f"{' [waived]' if waived else ''}"
            for rel, annot_line, loop, waived in sites] + [
        f"{len(sites)} TASQ_VEC annotation(s)"]


# Fixtures. Each tree carries its synthetic compiler report where a run
# without --report looks for one.
REPORT = "build-check-vec/vec_report.txt"
HOT_H = (
    "#ifndef TASQ_COMMON_HOT_H_\n"
    "#define TASQ_COMMON_HOT_H_\n"
    "#define TASQ_VEC\n"
    "#endif\n")

# Conforming base: one annotated elementwise loop (line 4 of kern.cc is
# the `for`), which the synthetic reports below rule on.
KERN_CC = (
    "#include \"common/hot.h\"\n"
    "void Scale(double* __restrict o, double s, unsigned long n) {\n"
    "  TASQ_VEC\n"
    "  for (unsigned long i = 0; i < n; ++i) {\n"
    "    o[i] = o[i] * s;\n"
    "  }\n"
    "}\n")
WAIVED_KERN_CC = KERN_CC.replace(
    "  TASQ_VEC\n",
    "  TASQ_VEC  // vec: scatter lanes collide on shared bins\n")
ORPHAN_KERN_CC = (
    "#include \"common/hot.h\"\n"
    "void Scale(double* o, unsigned long n) {\n"
    "  TASQ_VEC\n"
    "  o[0] = 1.0;\n"
    "  for (unsigned long i = 0; i < n; ++i) o[i] = 0.0;\n"
    "}\n")

# Synthetic GCC-format reports aimed at kern.cc's loop line (4).
REPORT_OPTIMIZED = (
    "/tmp/x/src/app/kern.cc:4:25: optimized: loop vectorized using "
    "16 byte vectors\n")
REPORT_MISSED = (
    "/tmp/x/src/app/kern.cc:4:25: missed: not vectorized: "
    "complicated access pattern.\n")
# A verdict for some other loop only: the annotated one stays absent.
REPORT_ELSEWHERE = (
    "/tmp/x/src/app/other.cc:9:3: optimized: loop vectorized using "
    "16 byte vectors\n")

CLANG_YAML = (
    "--- !Passed\n"
    "Pass:            loop-vectorize\n"
    "Name:            Vectorized\n"
    "DebugLoc:        { File: 'src/app/kern.cc', Line: 4, Column: 3 }\n"
    "Function:        Scale\n"
    "...\n"
    "--- !Missed\n"
    "Pass:            loop-vectorize\n"
    "Name:            MissedDetails\n"
    "DebugLoc:        { File: 'src/app/cold.cc', Line: 11, Column: 3 }\n"
    "Function:        Cold\n"
    "Args:\n"
    "  - String:          'loop not vectorized'\n"
    "...\n")


def _tree(kern, report):
    return {"src/common/hot.h": HOT_H, "src/app/kern.cc": kern,
            REPORT: report}


CASES = [
    Case("vec-not-vectorized",
         _tree(KERN_CC, REPORT_MISSED), _tree(WAIVED_KERN_CC, REPORT_MISSED)),
    Case("vec-unresolved",
         _tree(KERN_CC, REPORT_ELSEWHERE),
         _tree(WAIVED_KERN_CC, REPORT_ELSEWHERE)),
    # An annotation with no loop behind it fires even on an empty report
    # (the usual shape of this mistake).
    Case("vec-unresolved", _tree(ORPHAN_KERN_CC, "")),
    Case("vec-stale-waiver",
         _tree(WAIVED_KERN_CC, REPORT_OPTIMIZED),
         _tree(KERN_CC, REPORT_OPTIMIZED)),
]


def self_check():
    """The Clang YAML reader marks the Passed remark's loop vectorized and
    the Missed remark's loop missed."""
    report = VecReport().parse(CLANG_YAML)
    failures = []
    if report.status("src/app/kern.cc", 4)[0] != "vectorized":
        failures.append("[vec] clang YAML Passed remark not parsed")
    if report.status("src/app/cold.cc", 11)[0] != "missed":
        failures.append("[vec] clang YAML Missed remark not parsed")
    return failures
