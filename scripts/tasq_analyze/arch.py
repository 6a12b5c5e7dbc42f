"""arch: the physical architecture of src/ against scripts/arch_layers.toml.

  module-unlisted        every directory under src/ must be declared in
                         arch_layers.toml — an undeclared module would be
                         silently exempt from every layering rule.
  module-stale           arch_layers.toml must not declare modules (or
                         deps, or internal headers) that no longer exist;
                         stale entries hide typos that disable checking.
  layering               a file in module A may #include module B only
                         when the DAG declares A -> B (deps are direct,
                         not transitive: if A needs B, A declares B).
  private-header         headers listed as `internal` in arch_layers.toml
                         are implementation details: only their own module
                         (and tests/bench/examples) may include them.
  include-cycle          the #include graph of src/ headers must be
                         acyclic; a header cycle is a build-order landmine
                         that include guards merely paper over.
  unused-include         IWYU-lite: a quoted project #include none of
                         whose declared symbols appear in the including
                         file is dead weight (or hides a missing direct
                         include elsewhere). `// arch: keep` on the
                         include line documents a deliberate exception
                         (e.g. includes that exist to re-export).
  nodiscard-missing      every function returning Status / Result<T> by
                         value must be marked TASQ_NODISCARD (macro in
                         common/status.h) so dropping an error is a
                         compiler warning, -Werror in CI.
  discarded-status       a statement that calls a Status/Result-returning
                         function and ignores the result loses the only
                         error signal the callee emits. Use the value or
                         discard explicitly: `(void)Call();  // why`.
  discard-needs-reason   `(void)Call()` on a Status/Result-returning
                         function is an explicit waiver and must carry a
                         same-line (or preceding-line) comment saying why
                         ignoring the error is safe.

--dot writes the declared module DAG, marking declared edges no include
exercises.
"""

import os
import re

from .core import (CALL_KEYWORDS, SCAN_ROOTS, Case, ConfigError, Finding,
                   read_config)


def parse_layers(text):
    """Parses the restricted TOML subset arch_layers.toml uses.

    Hand-rolled so the analyzer runs on any Python 3 (tomllib is 3.11+).
    Supported: `[modules.<name>]` tables with `key = ["a", "b"]` string
    arrays and full-line / trailing comments. Anything else is an error —
    a silently misparsed layer file would disable the architecture check.
    """
    modules = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        table = re.fullmatch(r"\[modules\.([A-Za-z0-9_]+)\]", line)
        if table:
            if table.group(1) in modules:
                raise ConfigError(
                    f"line {lineno}: duplicate [modules.{table.group(1)}]")
            current = modules[table.group(1)] = {"deps": [], "internal": []}
            continue
        assign = re.fullmatch(
            r"(deps|internal)\s*=\s*\[([^\]]*)\]\s*(?:#.*)?", line)
        if not assign:
            raise ConfigError(f"line {lineno}: cannot parse {raw!r}")
        if current is None:
            raise ConfigError(
                f"line {lineno}: assignment outside a [modules.*] table")
        values = []
        for item in assign.group(2).split(","):
            item = item.strip()
            if not item:
                continue
            quoted = re.fullmatch(r'"([^"]*)"', item)
            if not quoted:
                raise ConfigError(
                    f"line {lineno}: expected quoted string, got {item!r}")
            values.append(quoted.group(1))
        current[assign.group(1)] = values
    return modules


def load_layers(index, opts):
    text = read_config(index.root, opts.layers)
    if text is None:
        raise ConfigError(f"{opts.layers} not found under {index.root}")
    try:
        return parse_layers(text)
    except ConfigError as err:
        raise ConfigError(f"{opts.layers}: {err}") from None


def module_of(rel):
    """src/pcc/pcc.h -> pcc; None for files outside src/."""
    parts = rel.split("/")
    return parts[1] if len(parts) >= 3 and parts[0] == "src" else None


def src_modules(index):
    src = os.path.join(index.root, "src")
    if not os.path.isdir(src):
        return set()
    return {name for name in os.listdir(src)
            if os.path.isdir(os.path.join(src, name))}


# ---------------------------------------------------------------------------
# Layer DAG
# ---------------------------------------------------------------------------

def check_layers(index, layers, layers_path):
    """Every src/ module declared, no stale declarations, every include
    along a declared edge, internal headers kept to their module."""
    modules = src_modules(index)
    headers = {rel for rel in index.src_paths if rel.endswith(".h")}
    findings = [Finding("module-unlisted", f"src/{module}", 0,
                        f"module '{module}' is missing from {layers_path}; "
                        "an undeclared module is exempt from every "
                        "layering rule")
                for module in sorted(modules - set(layers))]
    for module in sorted(layers):
        decl = layers[module]
        if module not in modules:
            stale = [f"declared module '{module}' does not exist under src/"]
        else:
            stale = [f"module '{module}' declares dep on nonexistent "
                     f"module '{dep}'"
                     for dep in decl["deps"] if dep not in modules]
            stale += [f"module '{module}' declares nonexistent internal "
                      f"header '{header}'" for header in decl["internal"]
                      if f"src/{module}/{header}" not in headers]
        findings += [Finding("module-stale", layers_path, 0, message)
                     for message in stale]
    internal = {f"src/{module}/{header}": module
                for module, decl in layers.items()
                for header in decl["internal"]}
    for src in index.src:
        module = module_of(src.rel)
        for line, target, spelling in index.includes(src.rel):
            target_module = module_of(target)
            if module in layers and target_module in layers and \
                    target_module != module and \
                    target_module not in layers[module]["deps"]:
                findings.append(Finding(
                    "layering", src.rel, line,
                    f"module '{module}' may not depend on "
                    f"'{target_module}' (#include \"{spelling}\"); allowed "
                    f"deps: {sorted(layers[module]['deps'])}"))
            owner = internal.get(target)
            if owner is not None and owner != module:
                findings.append(Finding(
                    "private-header", src.rel, line,
                    f"\"{spelling}\" is internal to module '{owner}'; "
                    "include the module's public header instead"))
    return findings


def check_include_cycles(index):
    """src/ headers must form a DAG. Tarjan SCC over the header graph."""
    headers = [src.rel for src in index.src if src.rel.endswith(".h")]
    graph = {h: [t for _, t, _ in index.includes(h) if t.endswith(".h")]
             for h in headers}
    order, lowlink, on_stack, stack, sccs = {}, {}, set(), [], []
    for root in headers:
        if root in order:
            continue
        # Iterative Tarjan: recursion depth equals include-chain depth,
        # which a pathological tree could overflow.
        work = [(root, 0)]
        while work:
            node, edge = work[-1]
            if edge == 0:
                order[node] = lowlink[node] = len(order)
                stack.append(node)
                on_stack.add(node)
            for succ in graph[node][edge:]:
                edge += 1
                if succ not in order:
                    work[-1] = (node, edge)
                    work.append((succ, 0))
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], order[succ])
            else:
                work.pop()
                if lowlink[node] == order[node]:
                    scc = []
                    while not scc or scc[-1] != node:
                        scc.append(stack.pop())
                        on_stack.discard(scc[-1])
                    sccs.append(sorted(scc))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return [Finding("include-cycle", scc[0], 0, "header include cycle: " +
                    " -> ".join(scc + [scc[0]]))
            for scc in sccs if len(scc) > 1 or scc[0] in graph[scc[0]]]


# ---------------------------------------------------------------------------
# Include hygiene: unused includes (IWYU-lite)
# ---------------------------------------------------------------------------

TYPE_DECL_RE = re.compile(
    r"\b(?:class|struct|union|enum(?:\s+(?:class|struct))?)\s+"
    r"(?:TASQ_\w+\s+)*([A-Za-z_]\w*)")
USING_ALIAS_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=")
TYPEDEF_RE = re.compile(r"\btypedef\b[^;]*?\b([A-Za-z_]\w*)\s*;")
DEFINE_RE = re.compile(r"^[ \t]*#[ \t]*define[ \t]+([A-Za-z_]\w*)",
                       re.MULTILINE)
CALLABLE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
# Google-style constants (kCamelCase): enumerator and constexpr names.
CONSTANT_RE = re.compile(r"\b(k[A-Z]\w*)\b")
IDENT_RE = re.compile(r"\b([A-Za-z_]\w*)\b")
INCLUDE_LINE_RE = re.compile(r"^[ \t]*#[ \t]*include[^\n]*", re.MULTILINE)
KEEP_RE = re.compile(r"//.*\b(?:arch:\s*keep|IWYU pragma:\s*keep)")


def check_unused_includes(index):
    """Flags quoted src/ includes that contribute no used symbol.

    An include is kept silently when it is the companion header
    (src/x/y.cc -> x/y.h), is marked `// arch: keep`, directly provides a
    used symbol, or is the only path to transitively-used symbols. It is
    flagged only when dropping it provably leaves every used symbol
    reachable through the file's other includes.

    A header's symbols are cast wide on purpose: types, aliases, macros,
    kConstants, and every identifier in callable position. Too many
    symbols keep an include quietly; too few would flag a needed one."""
    symbol_cache = {}
    closure_cache = {}

    def symbols_of(header):
        if header not in symbol_cache:
            code = index.file(header).code
            symbols = {name for regex in (TYPE_DECL_RE, USING_ALIAS_RE,
                                          TYPEDEF_RE, DEFINE_RE, CONSTANT_RE)
                       for name in regex.findall(code)}
            symbols |= set(CALLABLE_RE.findall(code)) - CALL_KEYWORDS
            symbol_cache[header] = symbols
        return symbol_cache[header]

    def closure_symbols(start):
        """Symbols of every header `start` includes, transitively."""
        if start not in closure_cache:
            seen, frontier = set(), [t for _, t, _ in index.includes(start)]
            while frontier:
                current = frontier.pop()
                if current not in seen:
                    seen.add(current)
                    frontier += [t for _, t, _ in index.includes(current)]
            seen.discard(start)
            closure_cache[start] = set().union(
                *(symbols_of(dep) for dep in seen))
        return closure_cache[start]

    findings = []
    for src in index.src:
        entries = index.includes(src.rel)
        if not entries:
            continue
        tokens = set(IDENT_RE.findall(INCLUDE_LINE_RE.sub("", src.code)))
        companion = re.sub(r"\.(cc|cpp)$", ".h", src.rel) \
            if src.rel.endswith((".cc", ".cpp")) else None
        for line, target, spelling in entries:
            if target == companion or KEEP_RE.search(src.lines[line - 1]) \
                    or symbols_of(target) & tokens:
                continue
            # Nothing declared directly in the header is used. The include
            # may still be load-bearing as the sole provider of transitive
            # symbols; only flag when the other includes cover them.
            needed = closure_symbols(target) & tokens
            covered = set()
            for other_line, other, _ in entries:
                if (other_line, other) != (line, target):
                    covered |= symbols_of(other) | closure_symbols(other)
            if needed - covered:
                continue
            findings.append(Finding(
                "unused-include", src.rel, line,
                f"#include \"{spelling}\" provides no symbol used here; "
                "remove it (or mark `// arch: keep` with a reason)"))
    return findings


# ---------------------------------------------------------------------------
# Error discipline: TASQ_NODISCARD and discarded returns
# ---------------------------------------------------------------------------

# A declaration line: optional specifiers, a by-value Status / Result<...>
# return type, then the function name and parameter list. `Result<...>`
# never contains parens in this codebase, which keeps the regex honest.
FUNC_DECL_RE = re.compile(
    r"^[ \t]*(?P<prefix>(?:(?:TASQ_NODISCARD|static|inline|constexpr|"
    r"virtual|explicit|friend)\s+)*)"
    r"(?:tasq::)?(?P<ret>Status|Result<[^;{}()=]*>)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\(",
    re.MULTILINE)

# Any function-declaration-shaped line; used to find names that ALSO have
# a non-Status return type somewhere, which makes them ambiguous for the
# name-based discard scan (the compiler's [[nodiscard]] still covers them).
ANY_DECL_RE = re.compile(
    r"^[ \t]*(?:(?:TASQ_NODISCARD|static|inline|constexpr|virtual|"
    r"explicit|friend)\s+)*"
    r"(?P<ret>[A-Za-z_][\w:]*(?:\s*<[^;{}()=]*>)?)\s*[&*]?\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\(",
    re.MULTILINE)
DECL_RET_KEYWORDS = frozenset((
    "return", "else", "case", "goto", "new", "delete", "throw", "do",
    "while", "if", "for", "switch", "using", "namespace", "public",
    "private", "protected", "template", "typedef", "typename", "class",
    "struct", "enum", "union", "operator", "co_return", "co_await",
    "co_yield",
))

# A call in statement position: anchored at the start of the text or right
# after `;`, `{`, `}` or `)` (the latter catches `if (...) Call();`),
# optionally reached through a `a.b->c::` chain. `return Call()`,
# `x = Call()` and argument positions never match the anchor.
STMT_CALL_RE = re.compile(
    r"(?:(?<=;)|(?<=\{)|(?<=\})|(?<=\))|\A)"
    r"[ \t\n]*(?P<chain>(?:[A-Za-z_]\w*(?:::|\.|->))*)"
    r"(?P<name>[A-Za-z_]\w*)[ \t\n]*\(")
VOID_CAST_RE = re.compile(
    r"\(\s*void\s*\)\s*"
    r"(?P<chain>(?:[A-Za-z_]\w*(?:::|\.|->))*)"
    r"(?P<name>[A-Za-z_]\w*)\s*\(")
# The `)` anchor of STMT_CALL_RE also matches the closing paren of a
# `(void)` cast; such calls are explicit discards handled by the
# discard-needs-reason rule instead.
VOID_CAST_TAIL_RE = re.compile(r"\(\s*void\s*\)\s*$")


def non_status_names(src):
    """Names declared in `src` with a non-Status/Result return type."""
    names = set()
    for match in ANY_DECL_RE.finditer(src.code):
        ret = match.group("ret")
        base = ret.split("<", 1)[0].removeprefix("tasq::")
        if base not in ("Status", "Result") and ret not in DECL_RET_KEYWORDS:
            names.add(match.group("name"))
    return names


def check_status_discipline(index):
    """Every Status/Result-returning function is TASQ_NODISCARD, and every
    statement-position call to one uses its result or waives it with
    `(void)Call();  // reason`.

    Headers carry the contract; an out-of-line .cc definition of a
    header-declared (and annotated) function needs no repeat. File-local
    .cc helpers have their only declaration in the .cc, so they are
    checked there. The compiler enforces the same through [[nodiscard]]
    (-Werror in CI); this check works without a toolchain and additionally
    requires the `(void)` waiver to carry a reason."""
    decls = [(src, match) for src in index.src
             for match in FUNC_DECL_RE.finditer(src.code)]
    header_names = {m.group("name") for src, m in decls
                    if src.rel.endswith(".h")}
    findings = []
    for src, match in decls:
        name = match.group("name")
        if "TASQ_NODISCARD" in match.group("prefix"):
            continue
        if src.rel.endswith(".h"):
            what = f"'{name}'"
        elif name not in header_names:
            what = f"file-local '{name}'"
        else:
            continue
        findings.append(Finding(
            "nodiscard-missing", src.rel, src.line_of(match.start()),
            f"{what} returns Status/Result but is not TASQ_NODISCARD; a "
            "dropped error would be silent"))

    # A name that elsewhere returns void (an overload or an unrelated
    # helper) cannot be judged by a token scan and is left to the
    # compiler's [[nodiscard]] enforcement.
    must_use = {m.group("name") for _, m in decls} - set().union(
        *(non_status_names(src) for src in index.src))
    if not must_use:
        return findings
    for src in index.files(*SCAN_ROOTS):
        code = src.code
        # A local helper sharing a must-use name (common in tests) shadows
        # it for this file; the compiler still checks the real overload.
        local_must_use = must_use - non_status_names(src)
        for match in STMT_CALL_RE.finditer(code):
            name = match.group("name")
            if name not in local_must_use or VOID_CAST_TAIL_RE.search(
                    code, 0, match.start("chain")):
                continue
            end = src.close(code.index("(", match.end("name")))
            # Only a `;` right after the call discards its result.
            if end < 0 or not code[end:end + 2].lstrip().startswith(";"):
                continue
            findings.append(Finding(
                "discarded-status", src.rel, src.line_of(match.start("name")),
                f"result of '{name}' is discarded; handle the error or "
                f"write `(void){name}(...);  // reason`"))
        for match in VOID_CAST_RE.finditer(code):
            name = match.group("name")
            if name not in must_use:
                continue
            line = src.line_of(match.start("name"))
            above = src.lines[line - 2] if line >= 2 else ""
            if "//" in src.lines[line - 1] or above.lstrip().startswith("//"):
                continue
            findings.append(Finding(
                "discard-needs-reason", src.rel, line,
                f"(void)-discard of '{name}' must say why the error is "
                "safe to ignore: `(void)Call();  // reason`"))
    return findings


def check(index, opts):
    layers = load_layers(index, opts)
    return (check_layers(index, layers, opts.layers) +
            check_include_cycles(index) + check_unused_includes(index) +
            check_status_discipline(index))


def dot(index, opts):
    """Graphviz source for the declared module DAG, annotated with which
    declared edges the include graph actually exercises."""
    layers = load_layers(index, opts)
    used = {(module_of(src.rel), module_of(target))
            for src in index.src for _, target, _ in index.includes(src.rel)
            if module_of(target) not in (None, module_of(src.rel))}
    lines = [
        "// Generated by scripts/tasq_analyze arch --dot; do not edit.",
        "digraph tasq_modules {",
        "  rankdir=BT;",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    lines += [f"  \"{module}\";" for module in sorted(layers)]
    for module in sorted(layers):
        for dep in sorted(layers[module]["deps"]):
            style = "" if (module, dep) in used \
                else " [style=dashed, color=gray, label=\"declared only\"]"
            lines.append(f"  \"{module}\" -> \"{dep}\"{style};")
    return "\n".join(lines + ["}"]) + "\n"


RULES = (
    "module-unlisted", "module-stale", "layering", "private-header",
    "include-cycle", "unused-include", "nodiscard-missing",
    "discarded-status", "discard-needs-reason",
)

# ---------------------------------------------------------------------------
# Fixtures: two modules, clean layering, annotated Status APIs, every
# include used. Individual cases override files.
# ---------------------------------------------------------------------------

LAYERS = "scripts/arch_layers.toml"
GOOD_LAYERS = """\
[modules.common]
deps = []

[modules.app]
deps = ["common"]
internal = ["secret.h"]
"""

GOOD_TREE = {
    LAYERS: GOOD_LAYERS,
    "src/common/status.h": (
        "#ifndef TASQ_COMMON_STATUS_H_\n"
        "#define TASQ_COMMON_STATUS_H_\n"
        "#define TASQ_NODISCARD [[nodiscard]]\n"
        "class Status { public: bool ok() const; };\n"
        "TASQ_NODISCARD Status DoWork();\n"
        "#endif\n"),
    "src/app/secret.h": (
        "#ifndef TASQ_APP_SECRET_H_\n"
        "#define TASQ_APP_SECRET_H_\n"
        "inline int SecretImpl() { return 42; }\n"
        "#endif\n"),
    "src/app/app.h": (
        "#ifndef TASQ_APP_APP_H_\n"
        "#define TASQ_APP_APP_H_\n"
        "#include \"common/status.h\"\n"
        "TASQ_NODISCARD Status RunApp();\n"
        "#endif\n"),
    "src/app/app.cc": (
        "#include \"app/app.h\"\n"
        "#include \"app/secret.h\"\n"
        "Status RunApp() {\n"
        "  Status s = DoWork();\n"
        "  if (!s.ok()) return s;\n"
        "  (void)DoWork();  // best-effort warmup; failure is benign\n"
        "  return s.ok() && SecretImpl() > 0 ? s : s;\n"
        "}\n"),
}


def _with(**overrides):
    return {**GOOD_TREE, **overrides}


def _edit(path, old, new):
    return _with(**{path: GOOD_TREE[path].replace(old, new)})


DEAD_H = ("#ifndef D_H_\n#define D_H_\n"
          "inline int DeadSymbol() { return 0; }\n"
          "#endif\n")

CASES = [
    Case("module-unlisted",
         _with(**{"src/rogue/rogue.h":
                  "#ifndef R_H_\n#define R_H_\n#endif\n"}),
         GOOD_TREE),
    Case("module-stale",
         _with(**{LAYERS: GOOD_LAYERS + "\n[modules.ghost]\ndeps = []\n"}),
         GOOD_TREE),
    Case("layering",
         _with(**{
             # common reaching up into app inverts the declared DAG.
             "src/app/plain.h": ("#ifndef P_H_\n#define P_H_\n"
                                 "inline int AppPlain() { return 1; }\n"
                                 "#endif\n"),
             "src/common/status.h": GOOD_TREE["src/common/status.h"].replace(
                 "#define TASQ_NODISCARD [[nodiscard]]\n",
                 "#define TASQ_NODISCARD [[nodiscard]]\n"
                 "#include \"app/plain.h\"  // arch: keep\n")}),
         GOOD_TREE),
    Case("private-header",
         _with(**{
             "src/common/status.h": GOOD_TREE["src/common/status.h"].replace(
                 "class Status",
                 "#include \"app/secret.h\"  // arch: keep\nclass Status"),
             # Let common depend on app so only private-header fires.
             LAYERS: GOOD_LAYERS.replace('[modules.common]\ndeps = []',
                                         '[modules.common]\ndeps = ["app"]'),
         }),
         GOOD_TREE),
    Case("include-cycle",
         _with(**{
             "src/app/a.h": ("#ifndef A_H_\n#define A_H_\n"
                             "#include \"app/b.h\"\n"
                             "inline int UseB() { return FromB(); }\n"
                             "#endif\n"),
             "src/app/b.h": ("#ifndef B_H_\n#define B_H_\n"
                             "#include \"app/a.h\"\n"
                             "inline int FromB() { return 1; }\n"
                             "inline int UseA() { return UseB(); }\n"
                             "#endif\n"),
             "src/app/app.cc": GOOD_TREE["src/app/app.cc"].replace(
                 "#include \"app/secret.h\"\n",
                 "#include \"app/secret.h\"\n#include \"app/a.h\"\n").replace(
                 "SecretImpl() > 0", "SecretImpl() + UseB() > 0")}),
         GOOD_TREE),
    Case("unused-include",
         _with(**{
             "src/app/dead.h": DEAD_H,
             "src/app/app.cc": GOOD_TREE["src/app/app.cc"].replace(
                 "#include \"app/secret.h\"\n",
                 "#include \"app/secret.h\"\n#include \"app/dead.h\"\n")}),
         # Negative: same dead header but the include carries `arch: keep`.
         _with(**{
             "src/app/dead.h": DEAD_H,
             "src/app/app.cc": GOOD_TREE["src/app/app.cc"].replace(
                 "#include \"app/secret.h\"\n",
                 "#include \"app/secret.h\"\n"
                 "#include \"app/dead.h\"  // arch: keep — re-exported\n")})),
    Case("nodiscard-missing",
         _edit("src/app/app.h", "TASQ_NODISCARD Status RunApp();",
               "Status RunApp();"),
         GOOD_TREE),
    Case("discarded-status",
         _edit("src/app/app.cc", "  Status s = DoWork();\n",
               "  DoWork();\n  Status s = DoWork();\n"),
         GOOD_TREE),
    Case("discard-needs-reason",
         _edit("src/app/app.cc",
               "  (void)DoWork();  // best-effort warmup; failure is "
               "benign\n",
               "  (void)DoWork();\n"),
         GOOD_TREE),
]
