"""sync: a written-down discipline on raw atomics in src/.

A wrong memory order is invisible on x86 test hardware and TSan is weak
on hand-written atomics, so the discipline is checked in the source:

  atomic-implicit-order      every load / store / exchange /
                             compare_exchange_* / fetch_* spells an
                             explicit std::memory_order (both success and
                             failure orders for compare_exchange).
  atomic-seqcst-needs-reason seq_cst is the most expensive order and
                             almost always cargo cult; a deliberate use
                             says why via `// sync: seqcst <why>`.
  atomic-outside-sync        raw std::atomic lives only inside
                             src/common/sync/ (the vetted primitives) or
                             in files allowlisted with a per-file
                             rationale in scripts/sync_files.txt.
  cas-weak-loop              compare_exchange_strong inside a retry loop
                             should be the cheaper _weak.
  cas-strong-single          compare_exchange_weak outside any loop can
                             fail spuriously and drop the update; use
                             _strong.
  spin-without-pause         a busy-wait loop (atomic read in the
                             condition, empty body) must CpuRelax() or
                             yield in its body.
  volatile-as-sync           `volatile` is not a synchronization
                             primitive in C++ (`asm volatile` is exempt).
  sync-stale-allowlist       sync_files.txt entries must name existing
                             files that still contain std::atomic and
                             carry a rationale.

Waivers: `// sync: <tag> <reason>` with tag `order`, `seqcst` (the
required justification, not an escape hatch), `cas` (both CAS rules),
`spin` or `volatile`. atomic-outside-sync has no per-line waiver: the
allowlist file is the reviewed escape hatch. --list prints every atomic
operation site with its memory orders.
"""

import re

from .core import Case, Finding, read_config, scan, waiver

ALLOWLIST_PATH = "scripts/sync_files.txt"
SYNC_DIR_PREFIX = "src/common/sync/"

RULES = ("atomic-implicit-order", "atomic-seqcst-needs-reason",
         "atomic-outside-sync", "cas-weak-loop", "cas-strong-single",
         "spin-without-pause", "volatile-as-sync", "sync-stale-allowlist")

# Member-call spelling of the std::atomic API. Operator forms (++, +=,
# implicit conversion) exist but do not occur in this codebase; the
# atomic-outside-sync rule keeps raw atomics confined to reviewed files
# where the member-call discipline is upheld.
ATOMIC_OP_RE = re.compile(
    r"\.\s*(load|store|exchange|compare_exchange_weak|"
    r"compare_exchange_strong|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor)\s*\(")
ATOMIC_TYPE_RE = re.compile(r"\bstd\s*::\s*atomic\b")
MEMORY_ORDER_RE = re.compile(r"\bmemory_order\b|\bmemory_order_\w+")
SEQCST_RE = re.compile(r"\bmemory_order(?:_seq_cst\b|\s*::\s*seq_cst\b)")
CAS_RE = re.compile(r"\bcompare_exchange_(weak|strong)\b")
# Atomic reads that make a loop condition a busy-wait candidate.
ATOMIC_READ_RE = re.compile(
    r"\.\s*(?:load|compare_exchange_weak|compare_exchange_strong)\s*\(")
CAS_FINDINGS = {
    True: ("cas-weak-loop",
           "compare_exchange_strong inside a retry loop: the loop already "
           "tolerates spurious failure, so use the cheaper "
           "compare_exchange_weak (or waive with `// sync: cas <reason>`)"),
    False: ("cas-strong-single",
            "single-shot compare_exchange_weak: weak CAS may fail "
            "spuriously and silently drop the update; use "
            "compare_exchange_strong (or waive with "
            "`// sync: cas <reason>`)"),
}


def op_sites(src):
    """(line, method, argument text) of every atomic member call."""
    sites = []
    for match in ATOMIC_OP_RE.finditer(src.code):
        close = src.close(match.end() - 1)
        if close >= 0:
            sites.append((src.line_of(match.start()), match.group(1),
                          src.code[match.end():close - 1]))
    return sites


def load_allowlist(index):
    """{repo-relative path: (rationale, lineno)}."""
    entries = {}
    text = read_config(index.root, ALLOWLIST_PATH) or ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            entry, _, rationale = line.partition("#")
            entries[entry.strip()] = (rationale.strip(), lineno)
    return entries


def _spins(src):
    """Busy-wait loops: an atomic read in the condition, an empty body."""
    for region in src.loops:
        if region.cond_span is None or region.kind == "do-tail":
            continue
        if ATOMIC_READ_RE.search(src.code, *region.cond_span) and \
                not src.code[slice(*region.body_span)].strip(" \t\n{};"):
            yield src.line_of(region.start)


def check(index, opts):
    allowlist = load_allowlist(index)
    findings = []
    for entry, (rationale, lineno) in sorted(allowlist.items()):
        if entry not in index.src_paths:
            problem = "names no file under src/; remove it"
        elif not ATOMIC_TYPE_RE.search(index.file(entry).code):
            problem = ("no longer contains std::atomic; remove it so the "
                       "file goes back under the atomic-outside-sync rule")
        elif not rationale:
            problem = ("has no rationale; append "
                       "`# <why this file owns raw atomics>`")
        else:
            continue
        findings.append(Finding("sync-stale-allowlist", ALLOWLIST_PATH, lineno,
                                f"allowlist entry '{entry}' {problem}"))
    for src in index.src:
        for line, method, args in op_sites(src):
            cas = method.startswith("compare_exchange")
            if len(MEMORY_ORDER_RE.findall(args)) >= (2 if cas else 1) or \
                    src.waived(line, waiver("sync", "order")):
                continue
            need = ("both success and failure std::memory_order arguments"
                    if cas else "an explicit std::memory_order")
            findings.append(Finding(
                "atomic-implicit-order", src.rel, line,
                f"atomic '{method}' without {need}: the implicit seq_cst "
                "default is indistinguishable from an unconsidered order. "
                "Spell the order, or waive with `// sync: order <reason>`"))
        findings += scan(
            src, SEQCST_RE, "atomic-seqcst-needs-reason",
            "memory_order_seq_cst without a justification: seq_cst is the "
            "most expensive order and is almost always cargo cult. "
            "Downgrade it, or justify with `// sync: seqcst <why>` (e.g. "
            "naming the store-buffering pair that needs the total order)",
            waiver("sync", "seqcst"))
        raw_atomic = ATOMIC_TYPE_RE.search(src.code)
        if raw_atomic and not src.rel.startswith(SYNC_DIR_PREFIX) and \
                src.rel not in allowlist:
            findings.append(Finding(
                "atomic-outside-sync", src.rel,
                src.line_of(raw_atomic.start()),
                "raw std::atomic outside src/common/sync/: guard the "
                "state with a Mutex (common/mutex.h) instead, or "
                f"allowlist this file in {ALLOWLIST_PATH} with a rationale"))
        for match in CAS_RE.finditer(src.code):
            line = src.line_of(match.start())
            looped = src.in_loop(match.start())
            # Strong in a loop, or weak outside one: the wrong strength.
            if looped == (match.group(1) == "strong") and \
                    not src.waived(line, waiver("sync", "cas")):
                rule, message = CAS_FINDINGS[looped]
                findings.append(Finding(rule, src.rel, line, message))
        findings += [Finding(
            "spin-without-pause", src.rel, line,
            "busy-wait on an atomic with an empty loop body: add "
            "CpuRelax() (src/common/sync/pause.h) or a yield to the body — "
            "a pauseless spin starves the sibling hyperthread and pays the "
            "memory-order machine-clear penalty (or waive with "
            "`// sync: spin <reason>`)")
            for line in _spins(src)
            if not src.waived(line, waiver("sync", "spin"))]
        for match in re.finditer(r"\bvolatile\b", src.code):
            # `asm volatile` qualifies the asm statement, not data.
            prefix = src.code[max(0, match.start() - 24):match.start()]
            line = src.line_of(match.start())
            if re.search(r"\basm\s*$|__asm__\s*$", prefix) or \
                    src.waived(line, waiver("sync", "volatile")):
                continue
            findings.append(Finding(
                "volatile-as-sync", src.rel, line,
                "volatile is not a synchronization primitive in C++ (no "
                "atomicity, no ordering, races are still UB): use "
                "std::atomic with an explicit memory order, or waive a "
                "genuine MMIO/signal-handler use with "
                "`// sync: volatile <reason>`"))
    return findings


def listing(index, opts):
    lines = []
    for src in index.src:
        for line, method, args in op_sites(src):
            orders = ", ".join(o.replace("memory_order_", "")
                               for o in MEMORY_ORDER_RE.findall(args))
            lines.append(f"{src.rel}:{line}: {method}"
                         f"({orders or 'IMPLICIT seq_cst'})")
    return lines + [f"{len(lines)} atomic operation site(s) under src/"]


# Conforming base tree: one vetted-primitive file inside src/common/sync/
# exercising every near-miss shape (explicit orders, weak CAS in a retry
# loop, progress-loop bodies), plus an atomic-free cold file. This is the
# negative fixture for most rules and the base the positives perturb.
COUNTER_H = (
    "#ifndef TASQ_COMMON_SYNC_COUNTER_H_\n"
    "#define TASQ_COMMON_SYNC_COUNTER_H_\n"
    "#include <atomic>\n"
    "namespace tasq {\n"
    "class Counter {\n"
    " public:\n"
    "  void Add(unsigned v) { c_.fetch_add(v, std::memory_order_relaxed); }\n"
    "  unsigned Get() const { return c_.load(std::memory_order_acquire); }\n"
    "  bool RaiseTo(unsigned want) {\n"
    "    unsigned seen = c_.load(std::memory_order_relaxed);\n"
    "    while (!c_.compare_exchange_weak(seen, want,\n"
    "                                     std::memory_order_acq_rel,\n"
    "                                     std::memory_order_relaxed)) {\n"
    "      if (seen >= want) return false;\n"
    "    }\n"
    "    return true;\n"
    "  }\n"
    " private:\n"
    "  std::atomic<unsigned> c_{0};\n"
    "};\n"
    "}  // namespace tasq\n"
    "#endif\n")

GOOD_TREE = {
    "src/common/sync/counter.h": COUNTER_H,
    "src/app/cold.cc": "int Plain(int x) { return x + 1; }\n",
}

STATS_H = "#include <atomic>\ninline std::atomic<int> g_requests{0};\n"


def _inject(member):
    """`member` lands inside the Counter class (in the sync dir, so
    atomic-outside-sync stays quiet unless that is the rule under test)."""
    return {**GOOD_TREE, "src/common/sync/counter.h": COUNTER_H.replace(
        " private:", f"  {member}\n private:")}


FORCE_TO = (
    "void ForceTo(unsigned want) {\n"
    "    unsigned seen = c_.load(std::memory_order_relaxed);\n"
    "{waiver}"
    "    while (!c_.compare_exchange_strong(seen, want,\n"
    "               std::memory_order_acq_rel,\n"
    "               std::memory_order_relaxed)) {\n"
    "      seen = c_.load(std::memory_order_relaxed);\n"
    "    }\n"
    "  }")

TRY_ONCE = (
    "bool TryOnce(unsigned want) {\n"
    "    unsigned seen = 0;\n"
    "    return c_.compare_exchange_{strength}(seen, want,\n"
    "               std::memory_order_acq_rel,\n"
    "               std::memory_order_relaxed);\n"
    "  }")

CASES = [
    Case("atomic-implicit-order",
         _inject("void Bump() { c_.fetch_add(1); }"),
         _inject("void Bump() { c_.fetch_add(1); }"
                 "  // sync: order wraps a legacy counter ABI")),
    Case("atomic-seqcst-needs-reason",
         _inject("void Seal() { c_.store(0, std::memory_order_seq_cst); }"),
         _inject("// sync: seqcst SB litmus against the drain flag\n"
                 "  void Seal() { c_.store(0, std::memory_order_seq_cst); }")),
    Case("atomic-outside-sync",
         {**GOOD_TREE, "src/app/stats.h": STATS_H},
         {**GOOD_TREE, "src/app/stats.h": STATS_H, ALLOWLIST_PATH:
          "src/app/stats.h  # relaxed request counters, stats only\n"}),
    Case("cas-weak-loop",
         _inject(FORCE_TO.replace("{waiver}", "")),
         _inject(FORCE_TO.replace(
             "{waiver}",
             "    // sync: cas strong keeps the ABA analysis one-shot\n"))),
    Case("cas-strong-single",
         _inject(TRY_ONCE.replace("{strength}", "weak")),
         _inject(TRY_ONCE.replace("{strength}", "strong"))),
    Case("spin-without-pause",
         _inject("void WaitZero() const {\n"
                 "    while (c_.load(std::memory_order_acquire) != 0) {}\n"
                 "  }"),
         _inject("void WaitZero() const {\n"
                 "    while (c_.load(std::memory_order_acquire) != 0) {\n"
                 "      CpuRelax();\n"
                 "    }\n"
                 "  }")),
    Case("volatile-as-sync",
         _inject("volatile bool ready_ = false;"),
         _inject("void Fence() { asm volatile(\"\" ::: \"memory\"); }")),
    Case("sync-stale-allowlist",
         {**GOOD_TREE,
          ALLOWLIST_PATH: "src/app/ghost.h  # file was deleted last PR\n"},
         GOOD_TREE),
]
