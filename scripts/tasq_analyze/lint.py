"""lint: the repo's own style and API conventions.

  include-guard          src/ headers guard with TASQ_<DIR>_<FILE>_H_
                         derived from the path (e.g. src/pcc/pcc.h ->
                         TASQ_PCC_PCC_H_).
  using-namespace-header no `using namespace` at header scope anywhere;
                         headers leak it into every includer.
  throw-in-src           no `throw` in src/: fallible operations return
                         Status/Result<T> (the contract documented in
                         common/status.h). Tests/benches may throw.
  cout-in-src            no `std::cout` in src/: library code reports
                         through return values; printing belongs to the
                         bench/example binaries.
  header-unreachable     every header under src/ must be reachable from
                         some test via transitive #include — an untested
                         header is dead or untrusted code.
  serve-header-untested  headers under src/serve/ must be #included
                         directly by a file in tests/: the serving layer
                         is the repo's concurrency surface, and transitive
                         reachability is not direct coverage.
  mutex-unannotated      src/ synchronizes through the annotated wrappers
                         in common/mutex.h: raw std::mutex /
                         std::condition_variable are forbidden outside the
                         wrapper, and every tasq::Mutex must have a stated
                         contract — a TASQ_GUARDED_BY(mu) field (or a
                         "Guarded by mu" comment for function-local
                         mutexes, where the attribute cannot attach).
  raw-lock-in-src        no bare lock()/unlock() calls and no
                         std::lock_guard/unique_lock/scoped_lock in src/
                         outside common/mutex.h: locking goes through
                         MutexLock/CondVar so Clang's -Wthread-safety
                         analysis sees every acquisition.
  nolint-needs-reason    every NOLINT in src/ must name the silenced check
                         and give a reason: NOLINT(check-name): why.
"""

import re

from .core import SCAN_ROOTS, Case, Finding, scan

RULES = ("include-guard", "using-namespace-header", "throw-in-src",
         "cout-in-src", "header-unreachable", "serve-header-untested",
         "mutex-unannotated", "raw-lock-in-src", "nolint-needs-reason")

# The annotated wrapper layer is the one place raw std synchronization
# primitives (and their lock()/unlock() calls) are allowed to appear.
MUTEX_WRAPPER_PATH = "src/common/mutex.h"

USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
THROW_RE = re.compile(r"\bthrow\b")
COUT_RE = re.compile(r"\bstd::cout\b")
RAW_SYNC_RE = re.compile(r"\bstd::(mutex|condition_variable(_any)?|"
                         r"recursive_mutex|shared_mutex|timed_mutex)\b")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:tasq::)?Mutex\s+(\w+)\s*;", re.MULTILINE)
RAW_LOCK_RE = re.compile(
    r"std::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|[.>]\s*(?:try_)?(?:un)?lock\s*\(")
# NOLINT, NOLINTNEXTLINE, NOLINTBEGIN require "(check-name): reason";
# NOLINTEND only needs to repeat the check name it closes.
NOLINT_TOKEN_RE = re.compile(r"NOLINT(NEXTLINE|BEGIN|END)?")
NOLINT_OK_RE = re.compile(
    r"NOLINT(?:NEXTLINE|BEGIN)?\([\w\-.,* ]+\)\s*:\s*\S.*")
NOLINT_END_OK_RE = re.compile(r"NOLINTEND\([\w\-.,* ]+\)")


def expected_guard(rel):
    # src/pcc/pcc.h -> TASQ_PCC_PCC_H_
    stem = rel[len("src/"):-len(".h")]
    return "TASQ_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def _include_guard(src):
    want = expected_guard(src.rel)
    ifndef = re.search(r"^#ifndef\s+(\S+)", src.text, re.MULTILINE)
    define = re.search(r"^#define\s+(\S+)", src.text, re.MULTILINE)
    if not ifndef or not define:
        return [Finding("include-guard", src.rel, 1,
                        f"missing include guard (expected {want})")]
    if ifndef.group(1) != want or define.group(1) != want:
        return [Finding("include-guard", src.rel,
                        src.text.count("\n", 0, ifndef.start()) + 1,
                        f"guard is {ifndef.group(1)}, expected {want}")]
    return []


def _mutex_contracts(src):
    """Every tasq::Mutex member names the state it guards: some
    TASQ_GUARDED_BY(mu), or a `Guarded by mu` comment for function-local
    mutexes, where the attribute cannot attach."""
    findings = []
    for match in MUTEX_MEMBER_RE.finditer(src.code):
        name = re.escape(match.group(1))
        if re.search(r"TASQ_(?:PT_)?GUARDED_BY\(\s*" + name + r"\s*\)",
                     src.code) or re.search(r"[Gg]uarded by\s+" + name,
                                            src.text):
            continue
        findings.append(Finding(
            "mutex-unannotated", src.rel, src.line_of(match.start()),
            f"Mutex {match.group(1)} has no stated contract: annotate the "
            f"fields it protects with TASQ_GUARDED_BY({match.group(1)})"))
    return findings


def _nolint_reasons(src):
    findings = []
    for match in NOLINT_TOKEN_RE.finditer(src.text):
        rest = src.text[match.start():].split("\n", 1)[0]
        ok_re = NOLINT_END_OK_RE if match.group(1) == "END" else NOLINT_OK_RE
        if not ok_re.match(rest):
            findings.append(Finding(
                "nolint-needs-reason", src.rel,
                src.text.count("\n", 0, match.start()) + 1,
                "NOLINT must name the check and give a reason: "
                "`NOLINT(check-name): why`"))
    return findings


def _header_coverage(index):
    """Headers unreachable from tests/, and src/serve/ headers no test
    includes directly."""
    headers = {src.rel for src in index.src if src.rel.endswith(".h")}

    def includes_of(rel):
        return [t for _, t, _ in index.includes(rel) if t in headers]

    direct = {t for test in index.files("tests") for t in includes_of(
        test.rel)}
    reached, frontier = set(direct), list(direct)
    while frontier:
        for inc in includes_of(frontier.pop()):
            if inc not in reached:
                reached.add(inc)
                frontier.append(inc)
    findings = [Finding("header-unreachable", rel, 0,
                        "not reachable from any test via #include; add "
                        "coverage or delete the header")
                for rel in sorted(headers - reached)]
    findings += [Finding("serve-header-untested", rel, 0,
                         "serving-layer headers must be #included directly "
                         "by a test under tests/")
                 for rel in sorted(headers - direct)
                 if rel.startswith("src/serve/")]
    return findings


def check(index, opts):
    findings = _header_coverage(index)
    for src in index.files(*SCAN_ROOTS):
        if src.rel.endswith(".h"):
            findings += scan(src, USING_NAMESPACE_RE, "using-namespace-header",
                             "`using namespace` in a header leaks into every "
                             "includer")
    for src in index.src:
        if src.rel.endswith(".h"):
            findings += _include_guard(src)
        findings += scan(src, THROW_RE, "throw-in-src",
                         "src/ code returns Status/Result instead of "
                         "throwing (see common/status.h)")
        findings += scan(src, COUT_RE, "cout-in-src",
                         "library code must not print to stdout; return "
                         "values or take an std::ostream&")
        if src.rel != MUTEX_WRAPPER_PATH:
            findings += scan(src, RAW_SYNC_RE, "mutex-unannotated",
                             "raw std::{1}: use tasq::Mutex/CondVar from "
                             "common/mutex.h so -Wthread-safety sees the "
                             "contract")
            findings += _mutex_contracts(src)
            findings += scan(src, RAW_LOCK_RE, "raw-lock-in-src",
                             "bare lock/unlock call; acquire through "
                             "MutexLock (or CondVar::Wait) so the "
                             "acquisition is annotated")
        findings += _nolint_reasons(src)
    return findings


# A minimal tree with zero findings; per-rule fixtures are derived from it
# via _with() so each positive seeds exactly one class of violation.
GOOD_TREE = {
    "src/mod/good.h": (
        "#ifndef TASQ_MOD_GOOD_H_\n"
        "#define TASQ_MOD_GOOD_H_\n"
        "inline int Fine() { return 1; }\n"
        "#endif\n"),
    "src/serve/orphan.h": (
        "#ifndef TASQ_SERVE_ORPHAN_H_\n"
        "#define TASQ_SERVE_ORPHAN_H_\n"
        "inline int Serve() { return 1; }\n"
        "#endif\n"),
    "tests/mod_test.cc": (
        '#include "mod/good.h"\n'
        '#include "serve/orphan.h"\n'
        "int main() { return Fine() + Serve(); }\n"),
}

SYNC_TEST_CC = (
    '#include "mod/good.h"\n'
    '#include "mod/sync.h"\n'
    '#include "serve/orphan.h"\n'
    "int main() { return Fine() + Serve(); }\n")


def _with(overrides):
    return {**GOOD_TREE, **overrides}


CASES = [
    Case("include-guard",
         _with({"src/mod/good.h":
                "#ifndef WRONG_GUARD_H\n"
                "#define WRONG_GUARD_H\n"
                "inline int Fine() { return 1; }\n"
                "#endif\n"}),
         GOOD_TREE),
    Case("using-namespace-header",
         _with({"src/mod/good.h":
                "#ifndef TASQ_MOD_GOOD_H_\n"
                "#define TASQ_MOD_GOOD_H_\n"
                "using namespace std;\n"
                "inline int Fine() { return 1; }\n"
                "#endif\n"}),
         # Single-name using declarations and commented-out directives
         # are fine; only the directive form leaks.
         _with({"src/mod/good.h":
                "#ifndef TASQ_MOD_GOOD_H_\n"
                "#define TASQ_MOD_GOOD_H_\n"
                "// using namespace std; would leak, so we name names:\n"
                "using std::size_t;\n"
                "inline int Fine() { return 1; }\n"
                "#endif\n"})),
    Case("throw-in-src",
         _with({"src/mod/impl.cc":
                "int Use(int v) { if (v < 0) throw 1; return v; }\n"}),
         _with({"src/mod/impl.cc":
                "// a throw in a comment must NOT fire\n"
                'const char* kS = "throw inside a string";\n'
                "int Use() { return kS != nullptr; }\n"})),
    Case("cout-in-src",
         _with({"src/mod/impl.cc":
                "#include <iostream>\n"
                'void Print() { std::cout << "hi"; }\n'}),
         _with({"src/mod/impl.cc":
                "#include <ostream>\n"
                'void Print(std::ostream& out) { out << "hi"; }\n'})),
    Case("header-unreachable",
         _with({"src/mod/orphan2.h":
                "#ifndef TASQ_MOD_ORPHAN2_H_\n"
                "#define TASQ_MOD_ORPHAN2_H_\n"
                "inline int Lost() { return 1; }\n"
                "#endif\n"}),
         # The same header reached transitively: good.h pulls it in.
         _with({"src/mod/orphan2.h":
                "#ifndef TASQ_MOD_ORPHAN2_H_\n"
                "#define TASQ_MOD_ORPHAN2_H_\n"
                "inline int Found() { return 1; }\n"
                "#endif\n",
                "src/mod/good.h":
                "#ifndef TASQ_MOD_GOOD_H_\n"
                "#define TASQ_MOD_GOOD_H_\n"
                '#include "mod/orphan2.h"\n'
                "inline int Fine() { return Found(); }\n"
                "#endif\n"})),
    Case("serve-header-untested",
         # Reachable only transitively through good.h: passes the general
         # reachability rule but fails the stricter serve bar.
         _with({"src/mod/good.h":
                "#ifndef TASQ_MOD_GOOD_H_\n"
                "#define TASQ_MOD_GOOD_H_\n"
                '#include "serve/orphan.h"\n'
                "inline int Fine() { return Serve(); }\n"
                "#endif\n",
                "tests/mod_test.cc":
                '#include "mod/good.h"\n'
                "int main() { return Fine(); }\n"}),
         GOOD_TREE),
    Case("mutex-unannotated",
         _with({"src/mod/sync.h":
                "#ifndef TASQ_MOD_SYNC_H_\n"
                "#define TASQ_MOD_SYNC_H_\n"
                "#include <mutex>\n"
                "struct Racy {\n"
                "  std::mutex raw_mu_;\n"
                "  Mutex contractless_;\n"
                "  int x_ = 0;\n"
                "};\n"
                "#endif\n",
                "tests/mod_test.cc": SYNC_TEST_CC}),
         _with({"src/mod/sync.h":
                "#ifndef TASQ_MOD_SYNC_H_\n"
                "#define TASQ_MOD_SYNC_H_\n"
                "struct Tidy {\n"
                "  Mutex mu_;\n"
                "  int x_ TASQ_GUARDED_BY(mu_) = 0;\n"
                "};\n"
                "inline void Local() {\n"
                "  Mutex local_mu;\n"
                "  // Guarded by local_mu: scratch state only.\n"
                "}\n"
                "#endif\n",
                "tests/mod_test.cc": SYNC_TEST_CC}),
         # Both halves of the rule: a raw std::mutex and a contract-less
         # tasq::Mutex.
         says=("raw std::mutex", "contractless_")),
    Case("raw-lock-in-src",
         _with({"src/mod/lock.cc":
                "struct Lockable { void Go(); };\n"
                "void Use(Lockable& l, Lockable& m) {\n"
                "  l.lock();\n"
                "  m.unlock();\n"
                "}\n"}),
         _with({"src/mod/lock.cc":
                "void Use(Mutex& mu) {\n"
                "  MutexLock lock(mu);\n"
                "}\n"})),
    Case("nolint-needs-reason",
         _with({"src/mod/impl.cc":
                "int x = 0;  // NOLINT\n"}),
         _with({"src/mod/impl.cc":
                "// NOLINTNEXTLINE(bugprone-example): overflow intended\n"
                "int x = 1 << 30;\n"
                "int y = 0;  // NOLINT(bugprone-example): documented\n"
                "// NOLINTBEGIN(bugprone-example): span justified\n"
                "int z = 0;\n"
                "// NOLINTEND(bugprone-example)\n"})),
]
