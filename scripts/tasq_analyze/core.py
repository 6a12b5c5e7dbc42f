"""Source index shared by every rules module.

A SourceIndex reads and lexes each file under src/, tests/, bench/ and
examples/ at most once per run, however many modules ask for it. Each
SourceFile caches what rules look up: the stripped text, the raw lines
(waivers live in comments, which stripping removes), line numbers,
bracket matches and loop regions. The index adds the include map and a
name-based call graph over the function definitions in src/.
"""

import bisect
import dataclasses
import functools
import os
import re
from typing import NamedTuple

from . import lexer

SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
SCAN_ROOTS = ("src", "tests", "bench", "examples")


@dataclasses.dataclass(frozen=True)
class Finding:
    rule: str
    path: str     # Repo-relative, forward slashes.
    line: int     # 1-based, or 0 for whole-file findings.
    message: str

    def key(self):
        # Line numbers shift too easily to key the baseline on them.
        return f"{self.rule}\t{self.path}"

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


class Case(NamedTuple):
    """One self-test fixture. `positive` and `negative` are trees (repo
    path -> file text); the positive must fire `rule` and no other rule,
    with one finding mentioning each string in `says`; the negative, a
    near miss, must draw no finding at all."""
    rule: str
    positive: dict = None
    negative: dict = None
    says: tuple = ()


class ConfigError(Exception):
    """A module's input file (layer map, report) is missing or malformed."""


def scan(src, regex, rule, message, waived_by=None):
    """One finding per match of `regex` in `src.code`, unless the line
    carries the `waived_by` waiver. `message` is formatted with the whole
    match as {0} and its groups as {1}, {2}, ..."""
    findings = []
    for match in regex.finditer(src.code):
        line = src.line_of(match.start())
        if waived_by is None or not src.waived(line, waived_by):
            findings.append(Finding(rule, src.rel, line, message.format(
                match.group(), *match.groups())))
    return findings


@functools.lru_cache(maxsize=None)
def waiver(tag, what=None):
    """The waiver comment `// <tag>: <reason>`, or with `what` (a regex)
    `// <tag>: <what> <reason>`. The reason is mandatory: anonymous
    suppressions rot."""
    body = r"\S" if what is None else what + r"\s+\S"
    return re.compile(r"//\s*" + tag + r":\s*" + body)


def read_config(root, rel):
    """Text of `rel` under `root`, or None when it does not exist."""
    path = os.path.join(root, rel)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        return f.read()


class SourceFile:
    def __init__(self, root, rel):
        self.rel = rel
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            self.text = f.read()
        self.lines = self.text.split("\n")

    @functools.cached_property
    def code(self):
        """The text with comments and literals blanked (lexer.strip)."""
        return lexer.strip(self.text)

    @functools.cached_property
    def _newlines(self):
        return [m.start() for m in re.finditer("\n", self.code)]

    def line_of(self, pos):
        """1-based line of offset `pos` in `code`."""
        return bisect.bisect_left(self._newlines, pos) + 1

    def waived(self, line, pattern):
        """True when `pattern` (a waiver()) matches the raw text of `line`
        or of the line directly above it."""
        return any(1 <= candidate <= len(self.lines) and
                   pattern.search(self.lines[candidate - 1])
                   for candidate in (line, line - 1))

    @functools.cached_property
    def _close(self):
        close = {}
        stacks = {"(": [], "{": []}
        for match in re.finditer(r"[(){}]", self.code):
            c = match.group()
            if c in "({":
                stacks[c].append(match.start())
            else:
                stack = stacks["(" if c == ")" else "{"]
                if stack:
                    close[stack.pop()] = match.end()
        return close

    def close(self, open_idx):
        """Offset just past the bracket matching the `(` or `{` at
        `open_idx`, or -1 when it is never closed."""
        return self._close.get(open_idx, -1)

    @functools.cached_property
    def loops(self):
        return _loop_regions(self)

    def in_loop(self, pos):
        return any(r.start <= pos < r.end for r in self.loops)


@dataclasses.dataclass
class LoopRegion:
    start: int        # Offset of the loop keyword.
    end: int          # Offset past the body.
    kind: str         # "while" | "for" | "do" | "do-tail"
    cond_span: tuple  # (start, end) inside the parens; None for do.
    body_span: tuple  # (start, end) of the body statement.


def _skip_space(code, j):
    while j < len(code) and code[j] in " \t\n":
        j += 1
    return j


def _loop_regions(src):
    code = src.code
    regions = []
    for match in re.finditer(r"\b(while|for)\s*\(", code):
        open_idx = match.end() - 1
        close = src.close(open_idx)
        if close < 0:
            continue
        kind = match.group(1)
        # `} while (...)` is the tail of a do-while: its body is the
        # preceding block, which the `do` region below covers.
        back = match.start() - 1
        while back >= 0 and code[back] in " \t\n":
            back -= 1
        if kind == "while" and back >= 0 and code[back] == "}":
            kind = "do-tail"
        j = _skip_space(code, close)
        if j < len(code) and code[j] == "{":
            body_end = src.close(j)
            body_span = (j, body_end if body_end >= 0 else j + 1)
        else:
            semi = code.find(";", j)
            body_span = (j, semi + 1 if semi >= 0 else j)
        regions.append(LoopRegion(match.start(), body_span[1], kind,
                                  (open_idx + 1, close - 1), body_span))
    for match in re.finditer(r"\bdo\b", code):
        j = _skip_space(code, match.end())
        if j < len(code) and code[j] == "{":
            body_end = src.close(j)
            if body_end > 0:
                regions.append(LoopRegion(match.start(), body_end, "do",
                                          None, (j, body_end)))
    return regions


# A function-definition head: `Qualified::Name (args…)` followed (after
# optional const/noexcept/ref-qualifier/attributes/initializer list) by
# `{`. Control-flow keywords are filtered out afterwards.
FUNC_HEAD_RE = re.compile(
    r"(?P<name>[A-Za-z_]\w*(?:::[A-Za-z_]\w*|::operator\s*\(\s*\))*)"
    r"\s*\(")

# Identifiers that look like calls but are language constructs.
CALL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "catch", "defined", "assert", "co_return",
    "co_await", "co_yield", "new", "delete", "throw", "noexcept",
    "alignas", "typeid", "requires", "operator",
))
HEAD_KEYWORDS = CALL_KEYWORDS - {"operator"}

# What may legally sit between the closing `)` of the parameter list and
# the opening `{` of the body: cv/ref qualifiers, noexcept, attributes,
# override/final, thread-safety annotations, trailing return types, and
# constructor initializer lists.
TAIL_OK_RE = re.compile(
    r"\A(?:\s|const|noexcept|override|final|&&?|->\s*[\w:<>,\s*&]+|"
    r"\[\[[^\]]*\]\]|TASQ_\w+(?:\s*\([^)]*\))?|:\s*[^{};]*)*\Z")

CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


class Function:
    """One function definition: its location, body span, and calls."""

    def __init__(self, src, qual_name, line, body_start, body_end):
        self.src = src
        self.rel = src.rel
        self.qual_name = qual_name          # e.g. ReportCache::GetInto
        self.name = qual_name.split("::")[-1]
        self.line = line                    # 1-based line of the head.
        self.body_start = body_start        # Offsets into src.code.
        self.body_end = body_end

    @property
    def body(self):
        return self.src.code[self.body_start:self.body_end]

    @functools.cached_property
    def calls(self):
        """Names called from the body (src-resolvable or not)."""
        return {name for name in CALL_RE.findall(self.body)
                if name not in CALL_KEYWORDS}


def _functions(src):
    """Finds function definitions (heuristically) in one file.

    The regex net is cast to catch ordinary definitions and out-of-line
    members; lambdas and tricky macro-generated functions fall through the
    net, which is acceptable for a conformance lint (the rules then apply
    to their *enclosing* function, whose body textually contains them)."""
    code = src.code
    functions = []
    pos = 0
    while True:
        match = FUNC_HEAD_RE.search(code, pos)
        if not match:
            break
        name = match.group("name")
        if name.split("::")[-1] in HEAD_KEYWORDS:
            pos = match.end()
            continue
        paren_end = src.close(match.end() - 1)
        if paren_end < 0:
            pos = match.end()
            continue
        brace = code.find("{", paren_end)
        semi = code.find(";", paren_end)
        pos = paren_end
        if brace < 0 or (0 <= semi < brace):
            continue  # Declaration only; no body here.
        if not TAIL_OK_RE.match(code[paren_end:brace]):
            continue
        body_end = src.close(brace)
        if body_end < 0:
            continue
        functions.append(Function(src, name, src.line_of(match.start()),
                                  brace, body_end))
        # Nested definitions (local structs, lambdas) stay part of this
        # body; resume the scan inside so member definitions in headers
        # (class bodies brace-nest too) are still found.
        pos = brace + 1
    return functions


INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]+"([^"]+)"',
                        re.MULTILINE)


class SourceIndex:
    """Every source file of one tree, each read and lexed at most once."""

    def __init__(self, root):
        self.root = root
        self.paths = []
        for subdir in SCAN_ROOTS:
            for dirpath, dirnames, filenames in os.walk(
                    os.path.join(root, subdir)):
                dirnames[:] = sorted(d for d in dirnames
                                     if not d.startswith("build")
                                     and d != ".git")
                self.paths.extend(
                    os.path.relpath(os.path.join(dirpath, name),
                                    root).replace(os.sep, "/")
                    for name in sorted(filenames)
                    if name.endswith(SOURCE_SUFFIXES))
        self._files = {}
        self._includes = {}

    def file(self, rel):
        if rel not in self._files:
            self._files[rel] = SourceFile(self.root, rel)
        return self._files[rel]

    def files(self, *subdirs):
        """Files under the given top-level directories, in walk order."""
        return [self.file(rel) for rel in self.paths
                if rel.split("/", 1)[0] in subdirs]

    @functools.cached_property
    def src(self):
        return self.files("src")

    @functools.cached_property
    def src_paths(self):
        return {src.rel for src in self.src}

    def includes(self, rel):
        """Project includes of `rel` that resolve to src/ files, as
        (line, src_rel_path, include_spelling) tuples."""
        if rel not in self._includes:
            text = self.file(rel).text
            self._includes[rel] = [
                (text.count("\n", 0, match.start()) + 1,
                 "src/" + match.group(1), match.group(1))
                for match in INCLUDE_RE.finditer(text)
                if "src/" + match.group(1) in self.src_paths]
        return self._includes[rel]

    @functools.cached_property
    def functions(self):
        """Every function definition found under src/."""
        return [func for src in self.src for func in _functions(src)]

    @functools.cached_property
    def by_name(self):
        """Unqualified name -> [Function, ...]: the call graph's nodes."""
        out = {}
        for func in self.functions:
            out.setdefault(func.name, []).append(func)
        return out
