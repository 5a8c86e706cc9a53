"""Tokenizer and recursive-descent parser for mini-C.

The accepted subset covers the paper's vsftpd case studies: struct
definitions, globals (including function pointers declared as
``ret (*name)(params)``), function definitions with ``MIX(typed)`` /
``MIX(symbolic)`` annotations and ``nonnull`` qualifiers, and the usual
statement and expression forms.  ``malloc(sizeof(T))`` is a primitive
expression; string literals denote fresh non-null character buffers.

One compiled regular expression (:data:`_TOKEN`) splits the source.  A
token is kept as its source text, a string literal with its quotes: a
keyword or symbol is recognised by equality, any other token by its
first character.  Binary operators are parsed by precedence climbing
over :data:`_BINARY`.  Only error messages need line numbers, so they
are recovered by rescanning when an error is raised (:func:`_scan`).
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Iterator, Optional

from repro.mixy.c.ast import (
    AddrOf,
    Assign,
    Assume,
    Binary,
    Block,
    Check,
    Call,
    Cast,
    CDecl,
    CExpr,
    CFunction,
    CProgram,
    CStmt,
    CStructDef,
    CType,
    CHAR_T,
    Deref,
    ExprStmt,
    Field,
    FunType,
    Global,
    If,
    INT_T,
    IntLit,
    Malloc,
    NullLit,
    Param,
    PtrType,
    Return,
    StrLit,
    StructType,
    Symbolic,
    Unary,
    VarDecl,
    VarRef,
    VOID_T,
    While,
)


class CParseError(SyntaxError):
    """Raised on input outside the supported C subset."""


_KEYWORDS = frozenset(
    {
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
)

_SYMBOLS = frozenset(
    "&& || == != <= >= -> = < > + - * / ! & ( ) { } ; , .".split()
)

#: Tokens recognised by their text; every other token is an identifier,
#: an int literal or a string literal.
_FIXED = _KEYWORDS | _SYMBOLS

# Whitespace and comments match outside both groups.  Group 1 is a token:
# an int literal (ASCII digits only), a string literal (a backslash
# escapes any character, newline included), an identifier or keyword, or
# a symbol, longest first.  Group 2 is an error: an unterminated comment,
# or a character no token starts with (a lone '"' is an unterminated
# string).  ``[^\W\d]`` also admits the non-decimal numerics such as '²'
# and '½', which str.isalpha() rejects; :func:`_tokenize` reports those.
_TOKEN = re.compile(
    r"\s+|//[^\n]*|/\*.*?\*/"
    r'|([0-9]+|"(?:[^"\\]|\\.)*"|[^\W\d]\w*'
    r"|&&|\|\||[=!<>]=|->|/(?!\*)|[-=<>+*!&(){};,.])"
    r"|(/\*|.)",
    re.DOTALL,
)
# findall yields one (token, error) pair per match.
_GOOD = operator.itemgetter(0)
_BAD = operator.itemgetter(1)


def _tokenize(source: str) -> list[str]:
    """The text of every token, then three ``""`` end-of-input markers
    (the parser looks at most two tokens ahead)."""
    matches = _TOKEN.findall(source)
    if any(map(_BAD, matches)) or (
        not source.isascii()
        and any(not (tok[:1].isascii() or tok[0].isalpha()) for tok, _ in matches)
    ):
        raise _lex_error(source)
    tokens = list(filter(None, map(_GOOD, matches)))
    tokens += ("", "", "")
    return tokens


def _scan(source: str) -> Iterator[tuple[str, int]]:
    """``(text, line)`` of every token, ill-formed ones included, then
    ``("", line)`` at the end of the input.  A newline inside a string
    literal does not advance the line."""
    line = 1
    last = 0
    for match in _TOKEN.finditer(source):
        text = match.group(1) or match.group(2)
        if text:
            line += source.count("\n", last, match.start())
            last = match.end()
            yield text, line
    yield "", line + source.count("\n", last)


def _lex_error(source: str) -> CParseError:
    """The error for the first ill-formed token of ``source``."""
    for text, line in _scan(source):
        if text == "/*":
            return CParseError(f"unterminated comment at line {line}")
        if text == '"':
            return CParseError(f"unterminated string at line {line}")
        first = text[:1]
        if not (text in _FIXED or first in '0123456789"_' or first.isalpha()):
            return CParseError(f"unexpected character {first!r} at line {line}")
    raise AssertionError("no ill-formed token")


def _is_name(tok: str) -> bool:
    # tok[:1] of the end marker "" is "", which `in` finds in any string.
    return tok not in _FIXED and tok[:1] not in '0123456789"'


def _text(tok: str) -> str:
    """A token as messages and annotations read it: a string literal
    without its quotes."""
    return tok[1:-1] if tok[:1] == '"' else tok


#: Binary operators by precedence, loosest first; each associates left.
_BINARY = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
}

_TYPE_KEYWORDS = frozenset({"int", "char", "void", "struct", "const"})

_SCALARS = {"int": INT_T, "char": CHAR_T, "void": VOID_T}


class _Parser:
    __slots__ = ("_source", "_toks", "_i")

    def __init__(self, source: str) -> None:
        self._source = source
        self._toks = _tokenize(source)
        self._i = 0

    # -- token helpers -----------------------------------------------------------

    def _eat(self, text: str) -> bool:
        if self._toks[self._i] == text:
            self._i += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        if self._toks[self._i] != text:
            raise self._expected(text)
        self._i += 1

    def _name(self) -> str:
        tok = self._toks[self._i]
        if not _is_name(tok):
            raise self._expected("ident")
        self._i += 1
        return tok

    def _found(self) -> tuple[str, int]:
        """The current token's text and line, for an error message."""
        for _, line in itertools.islice(_scan(self._source), self._i + 1):
            pass
        return _text(self._toks[self._i]), line

    def _expected(self, want: str) -> CParseError:
        text, line = self._found()
        return CParseError(f"expected {want!r} but found {text!r} at line {line}")

    # -- program -----------------------------------------------------------------

    def program(self) -> CProgram:
        program = CProgram()
        while self._toks[self._i]:
            program.add(self._declaration())
        return program

    def _declaration(self) -> CDecl:
        toks = self._toks
        if toks[self._i] == "struct" and toks[self._i + 2] == "{":
            return self._struct_def()
        base = self._base_type()
        if toks[self._i] == "(":  # ret (*name)(params)
            name, typ = self._fn_ptr_declarator(base)
            init = self._expr() if self._eat("=") else None
            self._expect(";")
            return Global(name, typ, init)
        depth, nonnull = self._stars_and_quals()
        typ = _apply_ptrs(base, depth)
        name = self._name()
        if toks[self._i] == "(":
            return self._function(typ, nonnull, name)
        init = self._expr() if self._eat("=") else None
        self._expect(";")
        return Global(name, typ, init)

    def _struct_def(self) -> CStructDef:
        self._i += 1  # struct
        name = self._name()
        self._expect("{")
        fields: list[tuple[str, CType]] = []
        while not self._eat("}"):
            base = self._base_type()
            depth, _ = self._stars_and_quals()
            fname = self._name()
            fields.append((fname, _apply_ptrs(base, depth)))
            self._expect(";")
        self._expect(";")
        return CStructDef(name, tuple(fields))

    def _function(self, ret: CType, nonnull_return: bool, name: str) -> CFunction:
        toks = self._toks
        self._expect("(")
        params: list[Param] = []
        if toks[self._i] != ")":
            if toks[self._i] == "void" and toks[self._i + 1] == ")":
                self._i += 1
            else:
                while True:
                    params.append(self._param())
                    if not self._eat(","):
                        break
        self._expect(")")
        mix: Optional[str] = None
        if self._eat("MIX"):
            self._expect("(")
            mix = toks[self._i]
            if mix not in ("typed", "symbolic"):
                raise CParseError(
                    f"MIX annotation must be typed or symbolic, got {mix!r}"
                )
            self._i += 1
            self._expect(")")
        body: Optional[Block] = None
        if toks[self._i] == "{":
            body = self._block()
        else:
            self._expect(";")
        return CFunction(name, tuple(params), ret, body, mix, nonnull_return)

    def _param(self) -> Param:
        base = self._base_type()
        if self._toks[self._i] == "(" and self._toks[self._i + 1] == "*":
            name, typ = self._fn_ptr_declarator(base)
            return Param(name, typ, False)
        depth, nonnull = self._stars_and_quals()
        name = self._name()
        return Param(name, _apply_ptrs(base, depth), nonnull)

    def _fn_ptr_declarator(self, ret: CType) -> tuple[str, CType]:
        """``(*name)(param-types)`` — a function-pointer declarator."""
        toks = self._toks
        self._expect("(")
        self._expect("*")
        name = self._name()
        self._expect(")")
        self._expect("(")
        param_types: list[CType] = []
        if toks[self._i] != ")":
            if toks[self._i] == "void" and toks[self._i + 1] == ")":
                self._i += 1
            else:
                while True:
                    base = self._base_type()
                    depth, _ = self._stars_and_quals()
                    if _is_name(toks[self._i]):
                        self._i += 1  # optional parameter name
                    param_types.append(_apply_ptrs(base, depth))
                    if not self._eat(","):
                        break
        self._expect(")")
        return name, PtrType(FunType(tuple(param_types), ret))

    # -- types -------------------------------------------------------------------

    def _base_type(self) -> CType:
        toks = self._toks
        while toks[self._i] == "const":
            self._i += 1
        if toks[self._i] == "struct":
            self._i += 1
            base: CType = StructType(self._name())
        else:
            base = _SCALARS.get(toks[self._i])
            if base is None:
                # The token as written: a string literal keeps its quotes.
                line = self._found()[1]
                raise CParseError(
                    f"expected a type, got {toks[self._i]!r} at line {line}"
                )
            self._i += 1
        while toks[self._i] == "const":
            self._i += 1
        return base

    def _stars_and_quals(self) -> tuple[int, bool]:
        toks = self._toks
        depth = 0
        nonnull = False
        while True:
            tok = toks[self._i]
            if tok == "*":
                depth += 1
            elif tok == "nonnull":
                nonnull = True
            elif tok != "const":
                return depth, nonnull
            self._i += 1

    # -- statements ---------------------------------------------------------------

    def _block(self) -> Block:
        self._expect("{")
        stmts: list[CStmt] = []
        while not self._eat("}"):
            stmts.append(self._stmt())
        return Block(tuple(stmts))

    def _stmt(self) -> CStmt:
        toks = self._toks
        tok = toks[self._i]
        if tok == "{":
            return self._block()
        if tok == "if":
            self._i += 1
            self._expect("(")
            cond = self._expr()
            self._expect(")")
            then = _as_block(self._stmt())
            els = _as_block(self._stmt()) if self._eat("else") else None
            return If(cond, then, els)
        if tok == "while":
            self._i += 1
            self._expect("(")
            cond = self._expr()
            self._expect(")")
            return While(cond, _as_block(self._stmt()))
        if tok == "return":
            self._i += 1
            value = None if toks[self._i] == ";" else self._expr()
            self._expect(";")
            return Return(value)
        if tok in _TYPE_KEYWORDS:
            base = self._base_type()
            if toks[self._i] == "(" and toks[self._i + 1] == "*":
                name, typ = self._fn_ptr_declarator(base)
            else:
                depth, _ = self._stars_and_quals()
                name = self._name()
                typ = _apply_ptrs(base, depth)
            init = self._expr() if self._eat("=") else None
            self._expect(";")
            return VarDecl(name, typ, init)
        expr = self._expr()
        self._expect(";")
        return ExprStmt(expr)

    # -- expressions (C precedence) --------------------------------------------------

    def _expr(self) -> CExpr:
        lhs = self._binary(1)
        if self._toks[self._i] == "=":  # right-associative
            self._i += 1
            return Assign(lhs, self._expr())
        return lhs

    def _binary(self, floor: int) -> CExpr:
        """Precedence climbing: a chain of operators of precedence at
        least ``floor``; each right operand binds tighter than its
        operator."""
        left = self._unary()
        toks = self._toks
        while True:
            op = toks[self._i]
            prec = _BINARY.get(op, 0)
            if prec < floor:
                return left
            self._i += 1
            left = Binary(op, left, self._binary(prec + 1))

    def _unary(self) -> CExpr:
        toks = self._toks
        tok = toks[self._i]
        if tok == "!" or tok == "-":
            self._i += 1
            return Unary(tok, self._unary())
        if tok == "*":
            self._i += 1
            return Deref(self._unary())
        if tok == "&":
            self._i += 1
            return AddrOf(self._unary())
        if tok == "(" and toks[self._i + 1] in _TYPE_KEYWORDS:  # a cast
            self._i += 1
            base = self._base_type()
            depth, _ = self._stars_and_quals()
            self._expect(")")
            return Cast(_apply_ptrs(base, depth), self._unary())
        return self._postfix()

    def _postfix(self) -> CExpr:
        expr = self._primary()
        toks = self._toks
        while True:
            tok = toks[self._i]
            if tok == "(":
                self._i += 1
                args: list[CExpr] = []
                if toks[self._i] != ")":
                    while True:
                        args.append(self._expr())
                        if not self._eat(","):
                            break
                self._expect(")")
                expr = Call(expr, tuple(args))
            elif tok == "->":
                self._i += 1
                expr = Field(expr, self._name(), arrow=True)
            elif tok == ".":
                self._i += 1
                expr = Field(expr, self._name(), arrow=False)
            else:
                return expr

    def _primary(self) -> CExpr:
        tok = self._toks[self._i]
        if tok and tok not in _FIXED:
            self._i += 1
            if tok[0] == '"':
                return StrLit(tok[1:-1])
            if tok[0] in "0123456789":
                return IntLit(int(tok))
            return VarRef(tok)
        if tok == "NULL":
            self._i += 1
            return NullLit()
        if tok == "malloc":
            self._i += 1
            self._expect("(")
            self._expect("sizeof")
            self._expect("(")
            base = self._base_type()
            depth, _ = self._stars_and_quals()
            self._expect(")")
            self._expect(")")
            return Malloc(_apply_ptrs(base, depth))
        if tok == "symbolic":
            self._i += 1
            self._expect("(")
            self._expect(")")
            return Symbolic()
        if tok == "assume" or tok == "check":
            self._i += 1
            self._expect("(")
            cond = self._expr()
            self._expect(")")
            return Assume(cond) if tok == "assume" else Check(cond)
        if tok == "(":
            self._i += 1
            inner = self._expr()
            self._expect(")")
            return inner
        text, line = self._found()
        raise CParseError(f"unexpected token {text!r} at line {line}")


def _as_block(stmt: CStmt) -> Block:
    return stmt if isinstance(stmt, Block) else Block((stmt,))


def _apply_ptrs(base: CType, depth: int) -> CType:
    for _ in range(depth):
        base = PtrType(base)
    return base


def parse_program(source: str) -> CProgram:
    """Parse a mini-C translation unit."""
    return _Parser(source).program()
