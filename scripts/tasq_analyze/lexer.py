"""The one C++ lexer behind every analyzer module.

strip() blanks every comment and every string or character literal and
keeps each newline, so an offset into the result lies on the same line
as in the raw text. Identifiers, numbers and punctuation pass through
unchanged. A literal's encoding prefix (u8, L, R, ...) stays behind as a
bare identifier. Rules scan the stripped text, so a `throw` in a comment
or a log string never counts.
"""

import re

# The lookahead skips, in one step, every position no token can start at.
# Only numbers holding a digit separator or a signed exponent are matched;
# other numbers hold no quote and pass through untouched.
_TOKEN_RE = re.compile(r"""
    (?=[/"'\d.uULR])
    (?: (?P<comment> //(?:\\\r?\n|[^\n])* )
      | (?P<block> /\*.*?(?:\*/|\Z) )
      | (?<!\w)(?P<prefix>(?:u8|[uUL])?R)"(?P<delim>[^()\\\s"]{0,16})\(
            .*?\)(?P=delim)"
      | (?<![\w.])(?P<number> \.?\d[\w.]*(?:(?:[eEpP][+-]|'\w)[\w.]*)+ )
      | " (?:[^"\\]|\\.)* (?:"|\Z)
      | ' (?:[^'\\]|\\.)* (?:'|\Z) )
""", re.VERBOSE | re.DOTALL)


def _blank(match):
    if match.lastgroup == "number":
        return match.group()
    newlines = "\n" * match.group().count("\n")
    if match.group("prefix"):
        return match.group("prefix") + newlines
    return newlines


def strip(text):
    """`text` with comments and literals removed, newlines kept.

    A line comment that ends in a backslash continues onto the next line,
    as C++ splices lines before it sees comments. A digit separator
    (1'000) is part of its number, not the start of a char literal. A raw
    string runs to its own `)delim"`, whatever quotes it holds."""
    return _TOKEN_RE.sub(_blank, text)


# (name, source, stripped text). Each pins one construct strip() must get
# right without moving a line number; the first four are the constructs a
# naive quote-to-quote scan gets wrong.
FIXTURES = (
    ("digit separator",
     "int n = 1'000;\nthrow 1;\n",
     "int n = 1'000;\nthrow 1;\n"),
    ("raw string holding a quote",
     'auto s = R"(a"b)";\nthrow 1;\n',
     "auto s = R;\nthrow 1;\n"),
    ("raw string with a delimiter",
     'auto s = R"x(a)"b)x";\nthrow 1;\n',
     "auto s = R;\nthrow 1;\n"),
    ("line comment ending in a backslash",
     "// spliced \\\nthrow 1;\nint x;\n",
     "\n\nint x;\n"),
    ("quote in a char literal",
     "char q = '\"';\nthrow 1;\n",
     "char q = ;\nthrow 1;\n"),
    ("escaped quote in a char literal",
     "char q = '\\'';\nthrow 1;\n",
     "char q = ;\nthrow 1;\n"),
    ("block comment across lines",
     "int a; /* one\ntwo */ int b;\nthrow 1;\n",
     "int a; \n int b;\nthrow 1;\n"),
)


def self_test():
    """Failure messages for every fixture strip() gets wrong."""
    failures = []
    for name, source, want in FIXTURES:
        got = strip(source)
        if got != want:
            failures.append(f"[lexer] {name}: {source!r} stripped to "
                            f"{got!r}, want {want!r}")
    return failures
