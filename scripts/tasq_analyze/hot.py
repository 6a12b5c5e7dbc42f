"""hot: a real-time-safety contract on everything TASQ_HOT reaches.

Every function reachable through the name-based call graph from a
`TASQ_HOT` annotation (macro in src/common/hot.h) must keep the serving
fast path predictable and allocation-free:

  hot-alloc              no heap allocation: new / new[], malloc / calloc /
                         realloc / strdup, make_unique / make_shared.
  hot-container-growth   no push_back / emplace_back / emplace / insert /
                         resize / reserve / append / assign: growth
                         reallocates. Preallocated growth is waivable.
  hot-string             no std::string construction, std::to_string, or
                         ToString/ToText-style formatting.
  hot-std-function       no std::function: capturing callables type-erase
                         through a heap allocation.
  hot-mutex              no mutex acquisition (MutexLock, lock_guard,
                         unique_lock, scoped_lock, .Lock()/.lock()) except
                         in functions on the shard-local allowlist
                         scripts/hot_locks.txt.
  hot-blocking           no sleeps, condition-variable waits, file/stream
                         I/O, printf-family calls or system().
  hot-abort              no throw, abort, exit, or TASQ_CHECK* (its
                         failure path aborts) — use TASQ_DCHECK*, which
                         compiles out of Release serving builds.
  hot-unresolved         every TASQ_HOT annotation names a function defined
                         in src/; a stale one enforces nothing.
  hot-stale-allowlist    every hot_locks.txt entry names a function in the
                         hot closure; a stale one would grandfather future
                         locks in.

Waive a deliberate exception with `// hot: <reason>`. The call graph
over-approximates on purpose: a call fans out to every src/ definition
sharing the callee's name, so a colliding cold function joins the hot set
(a naming smell worth renaming) rather than letting an allocation creep
in through a helper. --list prints the hot closure; --dot graphs it.
"""

import re

from .core import Case, Finding, read_config, waiver

LOCKS_PATH = "scripts/hot_locks.txt"

# A TASQ_HOT annotation followed by the annotated declaration. The name is
# the last identifier before the parameter list.
HOT_ANNOT_RE = re.compile(
    r"\bTASQ_HOT\b(?P<sig>[^;{}()]*?)(?P<name>[A-Za-z_]\w*)\s*\(")

# rule id -> (pattern over stripped body text, message).
RULE_PATTERNS = (
    ("hot-alloc",
     re.compile(r"\bnew\b(?!\s*\()"
                r"|\bnew\s*\("            # placement/new(nothrow) too
                r"|\b(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\("
                r"|\bmake_unique\s*<"
                r"|\bmake_shared\s*<"),
     "heap allocation on the hot path"),
    ("hot-container-growth",
     re.compile(r"\.(?:push_back|emplace_back|emplace|emplace_front|"
                r"push_front|insert|resize|reserve|append|assign)\s*\("),
     "container growth reallocates on the hot path"),
    ("hot-string",
     re.compile(r"\bstd\s*::\s*string\b"
                r"|\bto_string\s*\("
                r"|\bToString\s*\("
                r"|\bToText\s*\("
                r"|\bsnprintf\s*\("
                r"|\bostringstream\b|\bstringstream\b"),
     "string construction/formatting allocates on the hot path"),
    ("hot-std-function",
     re.compile(r"\bstd\s*::\s*function\b"),
     "std::function type-erases through a heap allocation"),
    ("hot-mutex",
     re.compile(r"\bMutexLock\b|\block_guard\b|\bunique_lock\b|"
                r"\bscoped_lock\b|\.\s*(?:Lock|lock)\s*\(\s*\)"),
     f"mutex acquisition outside the shard-local allowlist ({LOCKS_PATH})"),
    ("hot-blocking",
     re.compile(r"\bsleep_for\b|\bsleep_until\b|\busleep\s*\(|"
                r"\b(?:std\s*::\s*)?this_thread\b|"
                r"\.\s*[Ww]ait(?:For)?\s*\(|"
                r"\bfopen\s*\(|\bfread\s*\(|\bfwrite\s*\(|\bfputs\s*\(|"
                r"\bf?printf\s*\(|\bfflush\s*\(|\bgetline\s*\(|"
                r"\bsystem\s*\(|\bifstream\b|\bofstream\b|\bfstream\b|"
                r"\bstd\s*::\s*(?:cout|cerr|cin)\b"),
     "blocking call / IO on the hot path"),
    ("hot-abort",
     re.compile(r"\bthrow\b|\babort\s*\(|\bexit\s*\(|"
                r"\bTASQ_CHECK(?:_[A-Z]+)?\s*\("),
     "hot path must not throw or abort (TASQ_CHECK aborts on failure; "
     "use TASQ_DCHECK, which compiles out of Release)"),
)

RULES = tuple(rule for rule, _, _ in RULE_PATTERNS) + (
    "hot-unresolved", "hot-stale-allowlist")


def hot_sites(index):
    """Annotated name -> (rel, line) of its first TASQ_HOT annotation."""
    sites = {}
    for src in index.src:
        if src.rel.endswith("common/hot.h"):
            continue  # The macro's own #define.
        for match in HOT_ANNOT_RE.finditer(src.code):
            sites.setdefault(match.group("name"),
                             (src.rel, src.line_of(match.start())))
    return sites


def hot_closure(index, roots):
    """Functions transitively reachable from the `roots` names, and for
    each the sorted names of the src/-defined functions it calls."""
    edges = {}
    frontier, visited = sorted(roots), set()
    while frontier:
        name = frontier.pop()
        if name in visited:
            continue
        visited.add(name)
        for func in index.by_name.get(name, ()):
            if func not in edges:
                edges[func] = sorted(c for c in func.calls
                                     if c in index.by_name)
                frontier += edges[func]
    return edges


def load_locks(index):
    """Qualified function names whose shard-local lock is sanctioned."""
    text = read_config(index.root, LOCKS_PATH) or ""
    return {line.split("#", 1)[0].strip() for line in text.splitlines()} \
        - {""}


def check(index, opts):
    sites = hot_sites(index)
    closure = hot_closure(index, sites)
    locks = load_locks(index)
    findings = [Finding("hot-unresolved", *sites[name],
                        f"TASQ_HOT annotates '{name}' but no definition of "
                        "it exists under src/; the contract is enforced on "
                        "nothing")
                for name in sorted(sites) if name not in index.by_name]
    findings += [Finding("hot-stale-allowlist", LOCKS_PATH, 0,
                         f"allowlist entry '{entry}' matches no function in "
                         "the hot closure; remove it (stale entries "
                         "grandfather future locks in silently)")
                 for entry in sorted(locks - {f.qual_name for f in closure})]
    for func in closure:
        body = func.body
        for rule, pattern, message in RULE_PATTERNS:
            if rule == "hot-mutex" and func.qual_name in locks:
                continue
            for match in pattern.finditer(body):
                line = func.src.line_of(func.body_start + match.start())
                if not func.src.waived(line, waiver("hot")):
                    findings.append(Finding(
                        rule, func.rel, line,
                        f"'{match.group(0).strip()}' in hot function "
                        f"'{func.qual_name}': {message}. Fix it, or waive "
                        "with `// hot: <reason>` on this line"))
    return findings


def listing(index, opts):
    sites = hot_sites(index)
    closure = sorted(hot_closure(index, sites), key=lambda f: (f.rel, f.line))
    return [f"{f.rel}:{f.line}: {f.qual_name}"
            f"{' [root]' if f.name in sites else ''}" for f in closure] + [
        f"{len(closure)} function(s) in the hot closure, {len(sites)} "
        "annotated root name(s)"]


def dot(index, opts):
    """Graphviz source for the enforced hot call graph: annotation roots
    in bold, transitive members plain, edges by textual call."""
    sites = hot_sites(index)
    edges = hot_closure(index, sites)
    funcs = sorted(edges, key=lambda f: (f.rel, f.line))
    lines = [
        "// Generated by scripts/tasq_analyze hot --dot; do not edit.",
        "digraph tasq_hot_paths {",
        "  rankdir=LR;",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    quals_by_name = {}
    for func in funcs:
        quals_by_name.setdefault(func.name, set()).add(func.qual_name)
    nodes, arcs = set(), set()
    for func in funcs:
        if func.qual_name not in nodes:  # Same-named defs share a node.
            nodes.add(func.qual_name)
            style = ", style=bold" if func.name in sites else ""
            lines.append(f"  \"{func.qual_name}\" [label=\"{func.qual_name}"
                         f"\\n{func.rel}:{func.line}\"{style}];")
    for func in funcs:
        for callee in edges[func]:
            for target in sorted(quals_by_name.get(callee, ())):
                arc = (func.qual_name, target)
                if target != func.qual_name and arc not in arcs:
                    arcs.add(arc)
                    lines.append(f"  \"{arc[0]}\" -> \"{arc[1]}\";")
    return "\n".join(lines + ["}"]) + "\n"


# Conforming base tree: one annotated hot function calling one clean
# helper two hops deep — the negative fixture for every rule, and the
# base the positive fixtures perturb. The cold function allocates freely
# and must never be flagged (it is not in the closure).
GOOD_TREE = {
    "src/common/hot.h": (
        "#ifndef TASQ_COMMON_HOT_H_\n"
        "#define TASQ_COMMON_HOT_H_\n"
        "#define TASQ_HOT\n"
        "#endif\n"),
    "src/app/fast.h": (
        "#ifndef TASQ_APP_FAST_H_\n"
        "#define TASQ_APP_FAST_H_\n"
        "#include \"common/hot.h\"\n"
        "TASQ_HOT int FastLookup(int key);\n"
        "void ColdRefill(int* out, int n);\n"
        "#endif\n"),
    "src/app/fast.cc": (
        "#include \"app/fast.h\"\n"
        "#include <vector>\n"
        "namespace {\n"
        "int MixKey(int key) { return key * 2654435761; }\n"
        "int ProbeSlot(int key) { return MixKey(key) & 1023; }\n"
        "}  // namespace\n"
        "int FastLookup(int key) { return ProbeSlot(key); }\n"
        "void ColdRefill(int* out, int n) {\n"
        "  std::vector<int> scratch;\n"
        "  for (int i = 0; i < n; ++i) scratch.push_back(i);\n"
        "  for (int i = 0; i < n; ++i) out[i] = scratch[i];\n"
        "}\n"),
}


def _inject(statement, locks=None):
    """`statement` lands in the transitive helper ProbeSlot — two hops
    below the TASQ_HOT root — proving enforcement is transitive, not just
    on the annotated function."""
    tree = dict(GOOD_TREE)
    tree["src/app/fast.cc"] = tree["src/app/fast.cc"].replace(
        "int ProbeSlot(int key) { return MixKey(key) & 1023; }",
        "int ProbeSlot(int key) {\n"
        f"  {statement}\n"
        "  return MixKey(key) & 1023;\n"
        "}")
    if locks is not None:
        tree[LOCKS_PATH] = locks
    return tree


def _waived(statement, reason="bounded by ctor-time reserve"):
    """Negative fixture: the same defect carrying a `// hot:` waiver."""
    return _inject(f"{statement}  // hot: {reason}")


CASES = [
    Case("hot-alloc",
         _inject("int* p = new int(key); delete p;"),
         _waived("int* p = new int(key); delete p;",
                 "freelist-backed; measured zero on warm path")),
    Case("hot-container-growth",
         _inject("static std::vector<int> v; v.push_back(key);"),
         _waived("static std::vector<int> v; v.push_back(key);")),
    Case("hot-string",
         _inject("std::string s; (void)s;"),
         _waived("std::string s; (void)s;",
                 "SSO-only name, never exceeds 15 bytes")),
    Case("hot-std-function",
         _inject("std::function<int()> f; (void)f;"),
         _waived("std::function<int()> f; (void)f;",
                 "empty target, never rebound")),
    Case("hot-mutex",
         _inject("MutexLock lock(shard_mutex);"),
         # Negative: same lock, but the function is on the declared
         # shard-local allowlist.
         _inject("MutexLock lock(shard_mutex);",
                 "ProbeSlot  # shard-local probe lock, O(1) critical "
                 "section\n")),
    Case("hot-blocking",
         _inject("queue_cv.Wait(shard_mutex);"),
         _waived("queue_cv.Wait(shard_mutex);",
                 "bounded 1us adaptive backoff, measured")),
    Case("hot-abort",
         _inject("TASQ_CHECK(key >= 0);"),
         _waived("TASQ_CHECK(key >= 0);",
                 "startup-only branch, unreachable after warmup")),
    Case("hot-unresolved",
         {**GOOD_TREE, "src/app/fast.h": GOOD_TREE["src/app/fast.h"].replace(
             "TASQ_HOT int FastLookup(int key);",
             "TASQ_HOT int FastLookup(int key);\n"
             "TASQ_HOT int GhostLookup(int key);")},
         GOOD_TREE),
    Case("hot-stale-allowlist",
         {**GOOD_TREE, LOCKS_PATH: "Ghost::Function  # no such function\n"},
         GOOD_TREE),
]
