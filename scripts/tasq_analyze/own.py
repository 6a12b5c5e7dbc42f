"""own: spelled ownership and arena discipline in src/.

Per-request memory comes from a bump-pointer ScratchArena that resets
between requests (src/common/arena.h). That only stays safe while
ownership is legible (DESIGN.md, "Memory & ownership policy"):

  owning-raw-new           no raw `new` / `delete` / malloc-family call
                           outside the allocator files (src/common/
                           arena.h, where placement-new IS the
                           implementation).
  owning-raw-member        a raw-pointer data member says what it is:
                           `// own: borrowed <why>` (non-owning, outlived
                           by the pointee) or `// own: arena <why>`
                           (arena-allocated, freed by Reset).
  unique-ptr-by-value-sink a `unique_ptr<T>&` parameter hides whether the
                           callee takes the object (sink by value); a
                           `const unique_ptr<T>&` parameter should be
                           `T*` / `T&`.
  shared-ptr-copy-in-loop  copying a shared_ptr in a loop body bumps an
                           atomic refcount per iteration. Take a reference
                           outside the loop, move, or waive with the
                           measured reason.
  arena-escape             a pointer from an Arena (New / Alloc) dies at
                           that arena's Reset(); storing it into a member
                           or returning it hands out recycled memory.
  arena-nontrivial-dtor    Arena::New<T> never runs destructors; a T with a
                           user-declared destructor or owning members must
                           go through NewObject<T>, which registers it.

Waive a deliberate exception with `// own: <reason>`; for
owning-raw-member the annotation IS the waiver. --list prints every
raw-pointer data member.
"""

import re

from .core import Case, Finding, waiver

RULES = ("owning-raw-new", "owning-raw-member", "unique-ptr-by-value-sink",
         "shared-ptr-copy-in-loop", "arena-escape", "arena-nontrivial-dtor")

# Files whose business IS raw memory: the arena implements placement-new
# and block allocation, so the owning-raw-new rule does not apply inside.
ALLOCATOR_FILES = frozenset(("src/common/arena.h",))

OWN = waiver("own")
MEMBER_ANNOT = waiver("own", "(borrowed|arena)")

# A new-expression (`new T`, `new (ptr) T`, `new[]`) or a malloc-family
# call. `= delete` (deleted functions) and `operator new/delete`
# *declarations* are not allocations and are filtered below.
RAW_NEW_RE = re.compile(
    r"\bnew\b"
    r"|\bdelete\b"
    r"|\b(?:malloc|calloc|realloc|free|strdup|aligned_alloc|posix_memalign)"
    r"\s*\(")
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:TASQ_\w+\s+)?([A-Za-z_]\w*)"
    r"(?:\s*final)?(?:\s*:\s*[^;{]*)?\s*\{")
# A raw-pointer member declaration: `Type* name;` or `Type* name = ...;`.
# Function declarations carry a `(` and are skipped; references, smart
# pointers, and function-pointer typedefs never match the `*` before the
# terminal identifier.
MEMBER_PTR_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?"
    r"[A-Za-z_][\w:]*(?:\s*<[^<>;]*(?:<[^<>]*>)?[^<>;]*>)?"
    r"(?:\s+const)?\s*\*+\s*(?:const\s+)?"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*)?;\s*$")
# A unique_ptr taken by reference in a parameter list (the trailing `,`
# or `)` keeps local reference bindings out).
UNIQUE_REF_PARAM_RE = re.compile(
    r"(?P<const>\bconst\s+)?(?:std\s*::\s*)?unique_ptr\s*"
    r"<[^<>;(){}]*(?:<[^<>]*>)?[^<>;(){}]*>\s*&\s*[A-Za-z_]\w*\s*[,)]")
# An explicit shared_ptr declaration copy-initialized inside a loop body.
# Moves, fresh make_shared results, and empty/null initializations do not
# bump a refcount and are excluded.
SHARED_DECL_RE = re.compile(
    r"(?:std\s*::\s*)?shared_ptr\s*<[^<>;(){}]*(?:<[^<>]*>)?[^<>;(){}]*>\s*"
    r"(?:const\s*&?\s*)?[A-Za-z_]\w*\s*(?:=\s*(?P<init>[^;]+)"
    r"|\(\s*(?P<ctor>[^;)]+)\))\s*;")
NON_COPY_INIT_RE = re.compile(
    r"std\s*::\s*move\b|make_shared\b|\bnullptr\b|^\s*$")
# `Arena name` / `ScratchArena name` / `Arena& name` / `Arena* name` —
# local, parameter, or member. The declared identifier anchors the
# allocation-site scan.
ARENA_DECL_RE = re.compile(
    r"\b(?:Arena|ScratchArena)\s*[&*]?\s+([A-Za-z_]\w*)\b")
ARENA_SITE_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(New|NewObject|NewArray|Alloc)\b"
    r"\s*(?:<\s*([A-Za-z_][\w:]*)\s*[>,])?")
# A member store: assignment / growth call on a trailing-underscore
# identifier (the repo's member naming convention), directly or through
# `this->`.
MEMBER_STORE_RE = re.compile(
    r"(?:\bthis\s*->\s*)?[A-Za-z_]\w*_\s*(?:\[[^\]]*\]\s*)?"
    r"(?:=[^=]|\.\s*(?:push_back|emplace_back|emplace|insert|assign)\s*\()")
# Types with a user-declared destructor or members that own heap memory
# must not go through the dtor-skipping New<T>.
OWNING_MEMBER_TYPES_RE = re.compile(
    r"\bstd\s*::\s*(?:string|vector|deque|map|unordered_map|set|"
    r"unordered_set|list|function|unique_ptr|shared_ptr|optional|any)\b")


def class_bodies(src):
    """(class_name, body_start, body_end) of every class/struct
    definition, nested ones included."""
    for match in CLASS_HEAD_RE.finditer(src.code):
        end = src.close(match.end() - 1)
        if end > 0:
            yield match.group(1), match.end(), end - 1


def raw_members(src):
    """(line, class, member) of every raw-pointer data member: statements
    at brace depth 0 of a class body, so method locals never count."""
    code = src.code
    for class_name, start, end in class_bodies(src):
        depth, stmt_start = 0, start
        for match in re.finditer(r"[{};]", code[start:end]):
            c, pos = match.group(), start + match.start()
            if c == "{":
                depth += 1
                continue
            if c == "}":
                depth -= 1
                if depth == 0:
                    stmt_start = pos + 1  # End of a method / nested type.
                continue
            if depth != 0:
                continue
            stmt, stmt_start = code[stmt_start:pos + 1], pos + 1
            flat = " ".join(stmt.split())
            if "(" in stmt or ")" in stmt or any(
                    kw in flat for kw in ("using ", "typedef ", "constexpr ",
                                          "friend ", "static ")):
                continue  # Function declaration, initializer call, alias.
            member = MEMBER_PTR_RE.match(flat)
            if member:
                # The line of the declaration, not of leading newlines.
                line = src.line_of(pos + 1 - len(stmt.lstrip()))
                yield line, class_name, member.group(1)


def _preceding_token_is(code, pos, word):
    back = pos - 1
    while back >= 0 and code[back] in " \t\n":
        back -= 1
    return code[max(0, back - len(word) + 1):back + 1].endswith(word)


def _raw_new(src):
    findings = []
    for match in RAW_NEW_RE.finditer(src.code):
        token = match.group(0).split("(")[0].strip()
        # `= delete` declares a deleted member, and `operator new` /
        # `operator delete` name the function, not a call.
        if _preceding_token_is(src.code, match.start(), "operator") or (
                token == "delete" and
                _preceding_token_is(src.code, match.start(), "=")):
            continue
        line = src.line_of(match.start())
        if not src.waived(line, OWN):
            findings.append(Finding(
                "owning-raw-new", src.rel, line,
                f"raw '{token}' outside the allocator allowlist: ownership "
                "must be spelled — use std::unique_ptr, a container, or an "
                "Arena (src/common/arena.h). Waive a deliberate exception "
                "with `// own: <reason>`"))
    return findings


def _shared_copies(src):
    findings = []
    bodies = [r.body_span for r in src.loops]
    for match in SHARED_DECL_RE.finditer(src.code) if bodies else ():
        if not any(a <= match.start() < b for a, b in bodies):
            continue
        init = match.group("init") or match.group("ctor") or ""
        # Reference bindings alias without copying.
        head = src.code[match.start():match.start("init")
                        if match.group("init") else match.end()]
        if NON_COPY_INIT_RE.search(init) or \
                "&" in head.split("<", 1)[-1].rsplit(">", 1)[-1]:
            continue
        line = src.line_of(match.start())
        if not src.waived(line, OWN):
            findings.append(Finding(
                "shared-ptr-copy-in-loop", src.rel, line,
                "shared_ptr copied every loop iteration: each copy is an "
                "atomic refcount RMW (contended cache line under "
                "concurrency). Bind a reference outside the loop, move, "
                "or waive with `// own: <measured reason>`"))
    return findings


def arena_sites(src):
    """(offset, arena, method, type argument or None) of every allocation
    call on an arena handle: an identifier declared Arena/ScratchArena in
    this file, or any identifier containing "arena" — member arenas are
    declared in the header, so the .cc only ever sees the name."""
    names = set(ARENA_DECL_RE.findall(src.code))
    for match in ARENA_SITE_RE.finditer(src.code):
        if match.group(1) in names or "arena" in match.group(1).lower():
            yield match.start(), match.group(1), match.group(2), \
                match.group(3)


def _statement_at(code, pos):
    """The statement containing `pos`: from the previous ; { or } to the
    next ; at the same paren depth."""
    start = max(code.rfind(";", 0, pos), code.rfind("{", 0, pos),
                code.rfind("}", 0, pos)) + 1
    depth = 0
    for i in range(pos, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
        elif code[i] == ";" and depth <= 0:
            return code[start:i + 1]
    return code[start:]


def _arena_rules(src, types):
    findings = []
    for pos, ident, method, type_arg in arena_sites(src):
        line = src.line_of(pos)
        stmt = _statement_at(src.code, pos)
        if (re.match(r"\s*return\b", stmt) or MEMBER_STORE_RE.search(stmt)) \
                and not src.waived(line, OWN):
            findings.append(Finding(
                "arena-escape", src.rel, line,
                f"'{ident}.{method}' result stored into a member or "
                "returned: arena memory dies at the owning arena's "
                "Reset(); longer-lived storage must copy out or own "
                "the arena itself. Waive with `// own: <reason>` if the "
                "target provably outlives no Reset"))
        # NewObject registers the dtor; Alloc is bytes. A type whose
        # definition is not visible is backstopped by the static_assert
        # in Arena::New at compile time.
        short = (type_arg or "").split("::")[-1]
        if method != "New" or short not in types:
            continue
        body = types[short]
        if (f"~{short}" in body or OWNING_MEMBER_TYPES_RE.search(body)) \
                and not src.waived(line, OWN):
            findings.append(Finding(
                "arena-nontrivial-dtor", src.rel, line,
                f"'{ident}.New<{short}>' places a type with a "
                "user-declared destructor or owning members on the "
                "arena: New skips destructors by design. Use "
                f"NewObject<{short}> (registers the destructor to run "
                "at Reset) or keep the type off the arena"))
    return findings


def check(index, opts):
    types = {}  # Class name -> body text of its first definition.
    for src in index.src:
        for name, start, end in class_bodies(src):
            types.setdefault(name, src.code[start:end])
    findings = []
    for src in index.src:
        if src.rel not in ALLOCATOR_FILES:
            findings += _raw_new(src) + _arena_rules(src, types)
        findings += [Finding(
            "owning-raw-member", src.rel, line,
            f"raw-pointer member '{member}' of '{class_name}' has no "
            "ownership annotation: mark it `// own: borrowed <why>` or "
            "`// own: arena <why>`, or make it a unique_ptr if it owns")
            for line, class_name, member in raw_members(src)
            if not src.waived(line, MEMBER_ANNOT)]
        for match in UNIQUE_REF_PARAM_RE.finditer(src.code):
            line = src.line_of(match.start())
            if src.waived(line, OWN):
                continue
            findings.append(Finding(
                "unique-ptr-by-value-sink", src.rel, line,
                ("a `const unique_ptr<T>&` parameter exposes the caller's "
                 "storage; take `T*` or `T&` instead" if match.group("const")
                 else "a `unique_ptr<T>&` parameter hides whether the "
                 "callee takes ownership; sink by value (`unique_ptr<T>`) "
                 "and std::move at the caller") +
                ". Waive with `// own: <reason>`"))
        findings += _shared_copies(src)
    return findings


def listing(index, opts):
    members = sorted((src.rel, line, class_name, member)
                     for src in index.src
                     for line, class_name, member in raw_members(src))
    return [f"{rel}:{line}: {class_name}::{member}"
            for rel, line, class_name, member in members] + [
        f"{len(members)} raw-pointer member(s)"]


# Minimal arena surface for fixtures: enough shape for the rules to
# anchor on (decl pattern + method names), not a working allocator.
ARENA_H = (
    "#ifndef TASQ_COMMON_ARENA_H_\n"
    "#define TASQ_COMMON_ARENA_H_\n"
    "namespace tasq {\n"
    "class Arena {\n"
    " public:\n"
    "  void* Alloc(unsigned long n);\n"
    "  template <typename T> T* New();\n"
    "  template <typename T> T* NewObject();\n"
    "};\n"
    "using ScratchArena = Arena;\n"
    "}  // namespace tasq\n"
    "#endif\n")

# Conforming base tree: a pool that owns through unique_ptr, borrows with
# an annotation, and uses its arena without escapes. Every rule's
# negative starts here.
GOOD_TREE = {
    "src/common/arena.h": ARENA_H,
    "src/app/pool.h": (
        "#ifndef TASQ_APP_POOL_H_\n"
        "#define TASQ_APP_POOL_H_\n"
        "#include <memory>\n"
        "#include \"common/arena.h\"\n"
        "namespace tasq {\n"
        "struct Slab { double values[8]; };\n"
        "class Pool {\n"
        " public:\n"
        "  void Fill(int n);\n"
        "  void Adopt(std::unique_ptr<Slab> slab);\n"
        " private:\n"
        "  std::unique_ptr<Slab> owned_;\n"
        "  const Slab* view_ = nullptr;  // own: borrowed outlived by "
        "owned_\n"
        "  Arena arena_;\n"
        "};\n"
        "}  // namespace tasq\n"
        "#endif\n"),
    "src/app/pool.cc": (
        "#include \"app/pool.h\"\n"
        "#include <memory>\n"
        "#include <utility>\n"
        "namespace tasq {\n"
        "void Pool::Fill(int n) {\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    Slab* scratch = arena_.New<Slab>();\n"
        "    scratch->values[0] = i;\n"
        "  }\n"
        "}\n"
        "void Pool::Adopt(std::unique_ptr<Slab> slab) {\n"
        "  owned_ = std::move(slab);\n"
        "  view_ = owned_.get();\n"
        "}\n"
        "}  // namespace tasq\n"),
}

REPORT_H = (
    "#ifndef TASQ_APP_REPORT_H_\n"
    "#define TASQ_APP_REPORT_H_\n"
    "#include <vector>\n"
    "namespace tasq {\n"
    "struct Report { std::vector<double> curve; };\n"
    "}  // namespace tasq\n"
    "#endif\n")


def _edit(path, old, new, extra=None):
    return {**GOOD_TREE, path: GOOD_TREE[path].replace(old, new),
            **(extra or {})}


def _in_fill(statement, extra=None):
    """`statement` lands inside Pool::Fill's loop body."""
    return _edit("src/app/pool.cc", "    scratch->values[0] = i;",
                 f"    scratch->values[0] = i;\n    {statement}", extra)


CASES = [
    Case("owning-raw-new",
         _in_fill("double* p = new double[8]; delete[] p;"),
         _in_fill("double* p = new double[8]; delete[] p;"
                  "  // own: bootstrap buffer, freed on the next line")),
    Case("owning-raw-member",
         _edit("src/app/pool.h",
               "  const Slab* view_ = nullptr;  // own: borrowed "
               "outlived by owned_\n",
               "  const Slab* view_ = nullptr;\n"),
         GOOD_TREE),
    Case("unique-ptr-by-value-sink",
         _edit("src/app/pool.h",
               "  void Adopt(std::unique_ptr<Slab> slab);",
               "  void Adopt(std::unique_ptr<Slab> slab);\n"
               "  void Peek(const std::unique_ptr<Slab>& slab);"),
         _edit("src/app/pool.h",
               "  void Adopt(std::unique_ptr<Slab> slab);",
               "  void Adopt(std::unique_ptr<Slab> slab);\n"
               "  // own: deserializer swaps the pointee in place\n"
               "  void Swap(std::unique_ptr<Slab>& slab);")),
    Case("shared-ptr-copy-in-loop",
         _in_fill("std::shared_ptr<Slab> held = shared_slab_;"),
         _in_fill("std::shared_ptr<Slab> held = shared_slab_;"
                  "  // own: pin per batch, 1 RMW per 16 requests, "
                  "measured")),
    Case("arena-escape",
         _in_fill("view_ = arena_.New<Slab>();"),
         _in_fill("view_ = arena_.New<Slab>();"
                  "  // own: member arena, Reset only in ~Pool")),
    Case("arena-nontrivial-dtor",
         _in_fill("Report* r = arena_.New<Report>(); (void)r;",
                  {"src/app/report.h": REPORT_H}),
         _in_fill("Report* r = arena_.NewObject<Report>(); (void)r;",
                  {"src/app/report.h": REPORT_H})),
]
