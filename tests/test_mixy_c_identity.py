"""Identity pins for the mini-C front end (:mod:`repro.mixy.c.parser`).

The parser's observable output is pinned three ways:

- the ``repr`` digest of the AST of every program the repository ships
  or generates, plus a sample of the differential generator and of
  unparenthesised expressions where precedence alone decides the shape;
- the exact text of every ``CParseError`` the parser raises;
- a differential test of the tokenizer against a verbatim copy of the
  character-at-a-time scanner that the master-regex tokenizer replaced,
  kept here as the oracle.

The digests and error texts were computed with that scanner and the
level-per-precedence descent parser it fed.  The intended divergences:
an int literal starts only on an ASCII digit, so a non-ASCII digit such
as ``²`` is an "unexpected character" instead of an ``int()`` crash;
and a string literal is neither a type name nor a ``MIX`` annotation
(the old parser read ``"char"`` as ``char``), so "expected a type"
quotes a literal with its quotes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mixy.c import parser
from repro.mixy.c.parser import CParseError, parse_program
from repro.mixy.corpus import CASES, combined_program
from repro.mixy.corpus_vsftpd import (
    annotation_subsets,
    mini_vsftpd,
    parallel_vsftpd,
    property_staircase,
)
from tests.test_mixy_differential import function_source

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- (a) AST digests ------------------------------------------------------------

_LEAVES = [
    "x", "y", "p", "7", "0", "NULL", '"s\\"q"', "p->f", "o.f", "*p", "&x",
    "g(x, y)", "g()", "symbolic()", "(char *) p", "(struct s **) q",
    "malloc(sizeof(struct s *))", "assume(x < y)", "check(x)", "(x = y)",
]
_BINARY = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"]


def _flat_expr(rng: random.Random, depth: int) -> str:
    """An expression without grouping parentheses, so that precedence and
    associativity alone decide its tree."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice(_LEAVES)
    if roll < 0.4:
        return rng.choice(["-", "!", "*", "& ", "- ", "(int) "]) + _flat_expr(
            rng, depth - 1
        )
    if roll < 0.5:
        return f"{_flat_expr(rng, depth - 1)}->{rng.choice(['a', 'b'])}"
    op = rng.choice(_BINARY)
    return f"{_flat_expr(rng, depth - 1)} {op} {_flat_expr(rng, depth - 1)}"


def _precedence_sample(seed: int, count: int) -> str:
    rng = random.Random(seed)
    stmts = []
    for _ in range(count):
        expr = _flat_expr(rng, 4)
        if rng.random() < 0.3:
            expr = f"x = y = {expr}"
        stmts.append(f"  {expr};")
    return "int f(int x, int y, int *p) {\n" + "\n".join(stmts) + "\n}\n"


def _differential_sample(seed: int, count: int) -> str:
    rng = random.Random(seed)
    return "\n".join(function_source(rng) for _ in range(count))


def _programs() -> dict[str, Callable[[], str]]:
    programs = {}
    for name, case in CASES.items():
        programs[f"{name}/plain"] = lambda case=case: case.source(False)
        programs[f"{name}/annotated"] = lambda case=case: case.source(True)
    for n in range(3):
        programs[f"combined/{n}"] = lambda n=n: combined_program(n)
    for k, subset in enumerate(annotation_subsets()):
        programs[f"mini_vsftpd/{k}"] = lambda subset=subset: mini_vsftpd(subset)
    for depth in (1, 2, 3):
        programs[f"parallel_vsftpd/{depth}"] = lambda d=depth: parallel_vsftpd(depth=d)
    programs["property_staircase"] = property_staircase
    for path in sorted((ROOT / "examples").glob("**/*.c")):
        programs[f"examples/{path.name}"] = path.read_text
    for seed in (1, 2):
        programs[f"wide_program/{seed}"] = lambda seed=seed: _workloads().wide_program(
            15, seed
        )[0]
    programs["differential/sample"] = lambda: _differential_sample(2010, 40)
    programs["precedence/sample"] = lambda: _precedence_sample(2010, 300)
    programs["edge/lexical"] = lambda: EDGE_SOURCE
    return programs


#: Lexical corners: Unicode identifiers and whitespace, escapes and
#: newlines inside strings, and comment forms.
EDGE_SOURCE = (
    "struct café { int ŝ; char *x²; };\n"
    "/* a\n comment */ // another\n"
    'char *s = "a\\"b\nc\\\nd";\u2028\u00a0int _y1 = 007;\x0b\x0c\r\n'
    "int f(int Ωmega) { return Ωmega->ид.x² + -(char *) *&s; }\n"
)

PROGRAMS = _programs()

AST_DIGESTS = {
    'case1/annotated': '5ae67975421fc6fa',
    'case1/plain': '94dad98fd3771304',
    'case2/annotated': 'ba1da8543972c971',
    'case2/plain': 'cf921e157723be16',
    'case3/annotated': 'b9bc7eae4f1de821',
    'case3/plain': '1e486a5f0abf4fce',
    'case4/annotated': 'c4b3400b9a806732',
    'case4/plain': '031912145ff56016',
    'combined/0': 'cafc9d5509e6cf9a',
    'combined/1': '44faf27f775a14d1',
    'combined/2': '472ec792718942f2',
    'differential/sample': '5d4aa1623fa53e2e',
    'edge/lexical': 'c8d25043e97d1b7a',
    'examples/backsolve_diff.c': '0ccde560732ca51e',
    'examples/interval.c': '9dc4eeb49a453521',
    'examples/midpoint_bounds.c': '620d3e12ce0ebd66',
    'examples/struct_fields.c': 'c4f2c53da51251b5',
    'examples/unbounded_loop.c': '0fbfb7d628b10cc4',
    'mini_vsftpd/0': '21b1e744a38af72a',
    'mini_vsftpd/1': 'fed3aa23e5c00aeb',
    'mini_vsftpd/2': '5763074779a14cb6',
    'mini_vsftpd/3': '93c7f132e71560fd',
    'mini_vsftpd/4': '44050968d8bd7de8',
    'parallel_vsftpd/1': '5ef563744e312dac',
    'parallel_vsftpd/2': 'b397b664a90ad32b',
    'parallel_vsftpd/3': '0621039a7c476a7c',
    'precedence/sample': '34f2c616aa72da9b',
    'property_staircase': 'eccd5dd6be10e7c7',
    'wide_program/1': 'bbcb5d64eece2c5f',
    'wide_program/2': '349474c9b60dbcac',
}


def _digest(source: str) -> str:
    return hashlib.sha256(repr(parse_program(source)).encode()).hexdigest()[:16]


def test_every_program_is_pinned():
    assert sorted(AST_DIGESTS) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_ast_digest(name):
    assert _digest(PROGRAMS[name]()) == AST_DIGESTS[name]


# -- (b) error texts ------------------------------------------------------------

ERRORS = [
    ('int x;\n/* never closed', 'unterminated comment at line 2'),
    ('int x; /* a\n b */ int y; /*\n', 'unterminated comment at line 2'),
    ('char *s = "abc', 'unterminated string at line 1'),
    ('char *s = "abc\\', 'unterminated string at line 1'),
    ('char *s = "a\\"', 'unterminated string at line 1'),
    ('int x;\n\nint @y;', "unexpected character '@' at line 3"),
    ('char *s = "a\nb\nc"; int x = 1 | 2;', "unexpected character '|' at line 1"),
    ('int x = 1 # 2;', "unexpected character '#' at line 1"),
    ('int café = 1;\u2028\xa0int $;', "unexpected character '$' at line 1"),
    ('int x = ½;', "unexpected character '½' at line 1"),
    ("int x = 1; /* c\n\n */ int y = 2; \x85 '", 'unexpected character "\'" at line 3'),
    ('int f(void) { return 1 }', "expected ';' but found '}' at line 1"),
    ('int ;', "expected 'ident' but found ';' at line 1"),
    ('struct s { int a; }', "expected ';' but found '' at line 1"),
    ('int f(void) {', "unexpected token '' at line 1"),
    ('int x = 1 "str";', "expected ';' but found 'str' at line 1"),
    ('int x = 1\n\n\n', "expected ';' but found '' at line 4"),
    ('void (*h)(int;', "expected ')' but found ';' at line 1"),
    ('void f(int a b);', "expected ')' but found 'b' at line 1"),
    ('int g = f(1, 2;', "expected ')' but found ';' at line 1"),
    ('int f(void) { x = p->; }', "expected 'ident' but found ';' at line 1"),
    ('int f(void) { x = o.3; }', "expected 'ident' but found '3' at line 1"),
    ('struct s { int a; };\nstruct s x', "expected ';' but found '' at line 2"),
    ('int f(void) { if x) { } }', "expected '(' but found 'x' at line 1"),
    ('int f(void) { while (x { } }', "expected ')' but found '{' at line 1"),
    ('int f(void) { x = malloc(int); }', "expected 'sizeof' but found 'int' at line 1"),
    ('int f(void) { x = malloc(sizeof int); }', "expected '(' but found 'int' at line 1"),
    ('int f(void) { x = malloc(sizeof(int); }', "expected ')' but found ';' at line 1"),
    ('int f(void) { x = symbolic(1); }', "expected ')' but found '1' at line 1"),
    ('int f(void) { assume x; }', "expected '(' but found 'x' at line 1"),
    ('int f(void) { check(x; }', "expected ')' but found ';' at line 1"),
    ('int f(void) { x = (int *) ; }', "unexpected token ';' at line 1"),
    ('int f(void) { x = (int * y; }', "expected ')' but found 'y' at line 1"),
    ('int f(void) { int (*fp)(int) 3; }', "expected ';' but found '3' at line 1"),
    ('void (*h)(void) = 1 2;', "expected ';' but found '2' at line 1"),
    ('char *s = "a\nb"; int f(void) { return "x" "y"; }', "expected ';' but found 'y' at line 1"),
    ('void f(void) MIX(banana);', "MIX annotation must be typed or symbolic, got 'banana'"),
    ('void f(void) MIX(', "MIX annotation must be typed or symbolic, got ''"),
    ('void g(void) MIX("typed");', 'MIX annotation must be typed or symbolic, got \'"typed"\''),
    ('void g(void) MIX("symbolic") { }', 'MIX annotation must be typed or symbolic, got \'"symbolic"\''),
    ('void f(void) MIX(typed;', "expected ')' but found ';' at line 1"),
    ('struct s { x y; };', "expected a type, got 'x' at line 1"),
    ('void (*h)(1);', "expected a type, got '1' at line 1"),
    ('void (*h)("s");', 'expected a type, got \'"s"\' at line 1'),
    ('int x;\n"char" *q;', 'expected a type, got \'"char"\' at line 2'),
    ('struct s { "int" a; };', 'expected a type, got \'"int"\' at line 1'),
    ('void f("int" a);', 'expected a type, got \'"int"\' at line 1'),
    ('const const', "expected a type, got '' at line 1"),
    ('int f(x) { }', "expected a type, got 'x' at line 1"),
    ('int f(void) { (char) ; }', "unexpected token ';' at line 1"),
    ('x;', "expected a type, got 'x' at line 1"),
    ('int f(void) {\n\n return ); }', "unexpected token ')' at line 3"),
    ('int f(void) { return; ; = ; }', "unexpected token ';' at line 1"),
    ('int f(void) { return * ; }', "unexpected token ';' at line 1"),
    ('int f(void) { x = -; }', "unexpected token ';' at line 1"),
    ('int g = ;', "unexpected token ';' at line 1"),
    ('int g = {;', "unexpected token '{' at line 1"),
    ('int f(void) { return sizeof(int); }', "unexpected token 'sizeof' at line 1"),
    ('int f(void) { return NULL NULL; }', "expected ';' but found 'NULL' at line 1"),
    ('int f(void) { return else; }', "unexpected token 'else' at line 1"),
    ('int f(void) { return x + ', "unexpected token '' at line 1"),
    ('int f(void) {\n  return x +\n\n', "unexpected token '' at line 4"),
]


@pytest.mark.parametrize("source, message", ERRORS)
def test_error_text(source, message):
    with pytest.raises(CParseError) as raised:
        parse_program(source)
    assert str(raised.value) == message


# -- (c) tokenizer differential --------------------------------------------------
# The oracle: the previous scanner, copied verbatim with its tables.

_KEYWORDS = {
    "int",
    "char",
    "void",
    "struct",
    "if",
    "else",
    "while",
    "return",
    "sizeof",
    "malloc",
    "NULL",
    "MIX",
    "nonnull",
    "typed",
    "symbolic",
    "assume",
    "check",
    "const",
}

_SYMBOLS = [
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "->",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "!",
    "&",
    "(",
    ")",
    "{",
    "}",
    ";",
    ",",
    ".",
]


@dataclass(frozen=True)
class _Tok:
    kind: str  # "int" | "string" | "ident" | "kw" | "sym" | "eof"
    text: str
    line: int


def _tokenize(source: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise CParseError(f"unterminated comment at line {line}")
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(_Tok("int", source[i:j], line))
            i = j
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise CParseError(f"unterminated string at line {line}")
            tokens.append(_Tok("string", source[i + 1 : j], line))
            i = j + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            tokens.append(_Tok("kw" if text in _KEYWORDS else "ident", text, line))
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(_Tok("sym", sym, line))
                i += len(sym)
                break
        else:
            raise CParseError(f"unexpected character {ch!r} at line {line}")
    tokens.append(_Tok("eof", "", line))
    return tokens


# -- end of the oracle --------------------------------------------------------------


def _oracle(source: str):
    """The oracle's tokens as ``(kind, text, line)``, or its error text."""
    try:
        return [(t.kind, t.text, t.line) for t in _tokenize(source)]
    except CParseError as error:
        return str(error)


def _kind(text: str) -> str:
    if text == "":
        return "eof"
    if text in _KEYWORDS:
        return "kw"
    if text in _SYMBOLS:
        return "sym"
    if text[0] == '"':
        return "string"
    if text[0] in "0123456789":
        return "int"
    return "ident"


def _tokens(source: str):
    """The tokenizer's tokens in the oracle's form, or its error text."""
    try:
        texts = parser._tokenize(source)
    except CParseError as error:
        return str(error)
    lines = [line for _, line in parser._scan(source)]
    end = texts.index("")
    assert texts[end:] == ["", "", ""] and len(lines) == end + 1
    return [
        (_kind(text), text[1:-1] if _kind(text) == "string" else text, line)
        for text, line in zip(texts, lines)
    ]


def _non_ascii_digit_in_int(source: str):
    """The first position the oracle scans as part of an int literal that
    holds a non-ASCII digit, or None."""
    for p, ch in enumerate(source):
        if ch.isdigit() and ch not in "0123456789":
            scanned = _oracle(source[: p + 1])
            if isinstance(scanned, list) and len(scanned) > 1:
                kind, text, _ = scanned[-2]
                if kind == "int" and text.endswith(ch):
                    return p
    return None


def _expected(source: str):
    p = _non_ascii_digit_in_int(source)
    if p is None:
        return _oracle(source)
    prefix = _oracle(source[:p])
    if isinstance(prefix, str):
        return prefix
    return f"unexpected character {source[p]!r} at line {prefix[-1][2]}"


_FRAGMENTS = [
    # keywords, identifiers (ASCII and not) and the operator alphabet
    *sorted(_KEYWORDS), "x", "_y1", "café", "ŝ", "x²", "Ωmega", "ид",
    *_SYMBOLS, "|", "@", "#", "'", "\\", "/", "*",
    # numbers, ASCII and not: ² and ½ are digit and numeric, ٣ decimal
    "0", "42", "007", "²", "1²", "٣", "7٣", "½",
    # whitespace, Unicode included; only \n advances the line
    " ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0",
    "\u2028", "\u3000",
    # comments and strings, newlines inside included
    "/* c */", "/*\n*/", "/*/ */", "/*", "*/", "// c\n", "//", '"s"', '""',
    '"a\\"b"', '"\n"', '"a\\\nb"', '"\\\\"', '"', "\\\"",
]


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=3)),
        max_size=24,
    ).map("".join)
)
def test_tokenizer_matches_oracle(source):
    assert _tokens(source) == _expected(source)


@pytest.mark.parametrize(
    "source",
    ["int x = 1;\n", '"a\nb" x\n\n', "/*\n\n*/ y // z\n w", "x y\n\x85z"],
)
def test_tokenizer_lines_match_oracle(source):
    assert _tokens(source) == _expected(source)


# -- non-ASCII digits ---------------------------------------------------------------


def test_non_ascii_digit_is_a_parse_error():
    with pytest.raises(CParseError) as raised:
        parse_program("int f(void) {\n  return ²;\n}\n")
    assert str(raised.value) == "unexpected character '²' at line 2"

