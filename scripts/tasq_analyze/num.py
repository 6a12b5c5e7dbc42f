"""num: numerics and determinism, the checked-math layer made mechanical.

The repo's predictions flow through log-log regressions, exp-link GBDT
objectives, and softplus heads, so one silent NaN or unordered-map
iteration order change corrupts results without failing a test.

  raw-transcendental     no raw log/exp/pow/sqrt/... calls in src/ outside
                         src/common/fmath.h: numeric kernels go through
                         SafeLog/CheckedLog/ClampedExp and friends. A call
                         whose argument is proven in-domain can be waived
                         with `// num: checked <reason>`.
  float-equality         no `==`/`!=` with a floating-point literal
                         operand in src/: exact comparison is almost always
                         a rounding bug. Legitimate uses (exact-zero skips,
                         -0.0 canonicalization, sentinel encodings) carry
                         `// num: float-eq <reason>`.
  unseeded-rng           no rand()/srand() anywhere in src/, and no
                         std::random_device outside common/rng.h: all
                         randomness flows from tasq::Rng(seed). Waive with
                         `// num: rng <reason>`.
  float-keyed-container  no float/double keys in map/set (ordered or
                         unordered): membership would depend on rounding.
                         Quantize to an integer key or waive with
                         `// num: float-key <reason>`.
  unordered-iteration    no range-for over a container declared as
                         std::unordered_* in the same file unless the loop
                         carries `// det: order-independent <why>`: hash
                         iteration order is unspecified, so any
                         order-sensitive fold breaks bit reproducibility
                         across standard libraries.
"""

import re

from .core import Case, Finding, scan, waiver

RULES = ("raw-transcendental", "float-equality", "unseeded-rng",
         "float-keyed-container", "unordered-iteration")

# The one place raw transcendentals are the implementation, not a hazard.
FMATH_PATH = "src/common/fmath.h"
# The one place entropy may be gathered (the seeded Rng wrapper).
RNG_PATH = "src/common/rng.h"

# Transcendentals with domain edges or overflow ranges that fmath.h guards.
# Qualified (std::log) and C-style (log) forms both count; the lookbehind
# rejects member calls (x.log(), p->exp()) and identifiers merely ending in
# a function name (Dialog( does not contain a call to log).
TRANSCENDENTAL_RE = re.compile(
    r"(?<![\w.>])(?:std::)?"
    r"(log1p|log10|log2|log|expm1|exp2|exp|pow|sqrt|cbrt|atan2)\s*\(")
# A floating literal: 1.0, .5, 2., 1e-9, 3.5e+10, with optional f/F/l/L.
# A heuristic by design: it cannot see declared types, but a literal
# operand is unambiguous and covers the common form of the bug.
FLOAT_LITERAL = (r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]?"
                 r"|\d+[eE][+-]?\d+[fFlL]?")
FLOAT_EQ_RE = re.compile(
    rf"[=!]=\s*[-+]?(?:{FLOAT_LITERAL})(?![\w.])"
    rf"|(?:(?<![\w.])(?:{FLOAT_LITERAL}))\s*[=!]=")
RAND_RE = re.compile(r"(?<![\w.>])(?:std::)?(s?rand)\s*\(")
RANDOM_DEVICE_RE = re.compile(r"\bstd::random_device\b")
FLOAT_KEY_RE = re.compile(
    r"\b(?:std::)?(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*"
    r"(float|double|long\s+double)\b")
# A declaration introducing a named unordered container in this file. The
# template argument list is matched without nesting awareness, which is
# fine: we only need the identifier that follows the closing `>`.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s+"
    r"(\w+)\s*(?:;|=|\{|\()")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto\s*&{0,2}\s*"
    r"(?:\[[^\]]*\]|\w+)\s*:\s*([^)]+)\)")


def _unordered_iteration(src):
    unordered = set(UNORDERED_DECL_RE.findall(src.code))
    findings = []
    for match in RANGE_FOR_RE.finditer(src.code) if unordered else ():
        hit = set(re.findall(r"\w+", match.group(1))) & unordered
        line = src.line_of(match.start())
        if hit and not src.waived(line, waiver("det", "order-independent")):
            findings.append(Finding(
                "unordered-iteration", src.rel, line,
                f"iterating unordered container `{sorted(hit)[0]}`: hash "
                "order is unspecified; sort the keys first, or mark an "
                "order-insensitive fold with "
                "`// det: order-independent <why>`"))
    return findings


def check(index, opts):
    findings = []
    for src in index.src:
        if src.rel != FMATH_PATH:
            findings += scan(
                src, TRANSCENDENTAL_RE, "raw-transcendental",
                "raw {1}() call; use the Safe*/Checked*/Clamped* helpers "
                "from common/fmath.h, or waive a proven in-domain call "
                "with `// num: checked <reason>`", waiver("num", "checked"))
        findings += scan(
            src, FLOAT_EQ_RE, "float-equality",
            "exact comparison with a float literal; compare against a "
            "tolerance, or waive an intentional exact check with "
            "`// num: float-eq <reason>`", waiver("num", "float-eq"))
        findings += scan(
            src, RAND_RE, "unseeded-rng",
            "{1}() draws from hidden global state; use tasq::Rng with an "
            "explicit seed (common/rng.h)", waiver("num", "rng"))
        if src.rel != RNG_PATH:
            findings += scan(
                src, RANDOM_DEVICE_RE, "unseeded-rng",
                "std::random_device outside common/rng.h makes the run "
                "unreproducible; thread a seed through tasq::Rng instead",
                waiver("num", "rng"))
        findings += scan(
            src, FLOAT_KEY_RE, "float-keyed-container",
            "associative container keyed on {1}: membership then depends "
            "on rounding; quantize to an integer key, or waive with "
            "`// num: float-key <reason>`", waiver("num", "float-key"))
        findings += _unordered_iteration(src)
    return findings


# A minimal tree with zero findings; per-rule fixtures are derived from it
# via _with() so each positive seeds exactly one class of violation.
GOOD_TREE = {
    "src/mod/calc.cc": (
        '#include "common/fmath.h"\n'
        "double Half(double x) { return x * 0.5; }\n"),
}


def _with(overrides):
    return {**GOOD_TREE, **overrides}


CASES = [
    Case("raw-transcendental",
         _with({"src/mod/calc.cc":
                "#include <cmath>\n"
                "double L(double x) { return std::log(x); }\n"
                "double P(double x) { return pow(x, 2.0); }\n"}),
         # fmath.h itself, a waived proven-domain call, a member .log(),
         # an identifier ending in a function name, and a Safe* helper.
         _with({"src/common/fmath.h":
                "#include <cmath>\n"
                "inline double Impl(double x) { return std::exp(x); }\n",
                "src/mod/calc.cc":
                "#include <cmath>\n"
                "double A(Dialog& d) { return d.log() + p->exp(); }\n"
                "double Backlog(double x);\n"
                "double C(double x) { return Backlog(x); }\n"
                "// num: checked norm is >= 1 by construction above\n"
                "double B(double norm) { return std::sqrt(norm); }\n"})),
    Case("float-equality",
         _with({"src/mod/calc.cc":
                "bool Z(double x) { return x == 0.0; }\n"
                "bool O(double x) { return 1.0 != x; }\n"}),
         # Integer-literal comparison, ordered comparison against a
         # float literal, and a waived exact-zero skip.
         _with({"src/mod/calc.cc":
                "bool Zi(int x) { return x == 0; }\n"
                "bool Lt(double x) { return x <= 0.5; }\n"
                "bool Zw(double x) {\n"
                "  return x == 0.0;  // num: float-eq exact-zero skip\n"
                "}\n"})),
    Case("unseeded-rng",
         _with({"src/mod/calc.cc":
                "#include <cstdlib>\n"
                "#include <random>\n"
                "int R() { return rand(); }\n"
                "unsigned D() { std::random_device rd; return rd(); }\n"}),
         # random_device inside the sanctioned wrapper, a member
         # .rand(), and seeded tasq-style use.
         _with({"src/common/rng.h":
                "#include <random>\n"
                "struct Rng { std::random_device entropy_; };\n",
                "src/mod/calc.cc":
                "int Use(Sampler& s) { return s.rand(); }\n"})),
    Case("float-keyed-container",
         _with({"src/mod/calc.cc":
                "#include <map>\n"
                "std::map<double, int> by_score;\n"}),
         # Float as mapped value (not key), and a waived float key.
         _with({"src/mod/calc.cc":
                "#include <map>\n"
                "#include <cstdint>\n"
                "std::map<int64_t, double> by_id;\n"
                "// num: float-key keys are exact powers of two\n"
                "std::map<double, int> by_scale;\n"})),
    Case("unordered-iteration",
         _with({"src/mod/calc.cc":
                "#include <string>\n"
                "#include <unordered_map>\n"
                "double Sum(int) {\n"
                "  std::unordered_map<std::string, double> totals;\n"
                "  double sum = 0.0;\n"
                "  for (const auto& [key, value] : totals) sum += value;\n"
                "  return sum;\n"
                "}\n"}),
         # Ordered map iteration, vector iteration, and a waived
         # commutative fold over an unordered map.
         _with({"src/mod/calc.cc":
                "#include <map>\n"
                "#include <string>\n"
                "#include <unordered_map>\n"
                "#include <vector>\n"
                "double Sum(const std::vector<double>& items) {\n"
                "  std::map<std::string, double> ordered;\n"
                "  std::unordered_map<std::string, double> totals;\n"
                "  double sum = 0.0;\n"
                "  for (const auto& [key, value] : ordered) sum += value;\n"
                "  for (double item : items) sum += item;\n"
                "  // det: order-independent commutative sum only\n"
                "  for (const auto& [key, value] : totals) sum += value;\n"
                "  return sum;\n"
                "}\n"})),
]
