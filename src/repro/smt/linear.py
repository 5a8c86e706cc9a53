"""Linear integer atoms: extraction from terms and canonicalization.

After preprocessing (:mod:`repro.smt.preprocess`) every integer-sorted leaf
is a plain variable, so each arithmetic atom denotes a linear constraint

    c1*x1 + ... + cn*xn <= k        (all ci, k integers)

:class:`LinAtom` is the canonical, hashable form of such a constraint.
Canonicalization divides by the gcd of the coefficients and *tightens* the
constant (``k -> floor(k / g)``), which is sound and complete over the
integers and lets the rational simplex refute systems such as
``3x - 3y = 1`` that plain branch-and-bound cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

from repro.smt.terms import INT, Kind, SortError, Term


class NonlinearError(SortError):
    """Raised when a term is not linear in its integer variables."""


@dataclass(frozen=True)
class LinAtom:
    """Canonical linear constraint ``sum(coeffs) <= constant``.

    ``coeffs`` maps variable terms to non-zero integer coefficients and is
    stored as a sorted tuple so atoms are hashable and syntactically
    comparable.  The negation of a ``LinAtom`` is again a ``LinAtom``
    because the domain is the integers: ``not (e <= k)  ==  -e <= -k-1``.
    """

    coeffs: tuple[tuple[Term, int], ...]
    constant: int

    def negate(self) -> "LinAtom":
        negation = _NEGATIONS.get(self)
        if negation is None:
            flipped = {v: -c for v, c in self.coeffs}
            negation = _NEGATIONS[self] = make_atom(flipped, -self.constant - 1)
        return negation

    @property
    def is_trivially_true(self) -> bool:
        return not self.coeffs and 0 <= self.constant

    @property
    def is_trivially_false(self) -> bool:
        return not self.coeffs and 0 > self.constant

    def __str__(self) -> str:
        if not self.coeffs:
            return f"0 <= {self.constant}"
        parts = []
        for v, c in self.coeffs:
            parts.append(f"{c}*{v}" if c != 1 else str(v))
        return f"{' + '.join(parts)} <= {self.constant}"


# Process-wide memos of pure functions over hash-consed terms (which are
# never freed, so the memos keep nothing alive that would otherwise be).
# Concurrent threads can at worst both compute an entry; they store equal
# atoms.
_NEGATIONS: dict[LinAtom, LinAtom] = {}
_COMPARISONS: dict[tuple[Term, Term, bool], LinAtom] = {}


def make_atom(coeffs: dict[Term, int], constant: int) -> LinAtom:
    """Build a canonical atom from raw coefficients (gcd-tightened)."""
    nonzero = {v: c for v, c in coeffs.items() if c != 0}
    if not nonzero:
        return LinAtom((), constant)
    g = 0
    for c in nonzero.values():
        g = gcd(g, abs(c))
    if g > 1:
        nonzero = {v: c // g for v, c in nonzero.items()}
        constant = floor(Fraction(constant, g))
    ordered = tuple(sorted(nonzero.items(), key=lambda item: str(item[0])))
    return LinAtom(ordered, constant)


def linearize(term: Term) -> tuple[dict[Term, int], int]:
    """Decompose an integer term into (coefficients, constant).

    Leaves must be integer constants or variables; raises
    :class:`NonlinearError` on symbolic products or other kinds (those must
    have been eliminated by preprocessing).
    """
    if term.sort != INT:
        raise SortError(f"linearize expects an Int term, got {term.sort}")
    coeffs: dict[Term, int] = {}
    constant = 0

    def walk(node: Term, scale: int) -> None:
        nonlocal constant
        kind = node.kind
        if kind is Kind.CONST_INT:
            constant += scale * node.payload  # type: ignore[operator]
        elif kind is Kind.VAR:
            coeffs[node] = coeffs.get(node, 0) + scale
        elif kind is Kind.ADD:
            for a in node.args:
                walk(a, scale)
        elif kind is Kind.NEG:
            walk(node.args[0], -scale)
        elif kind is Kind.MUL:
            left, right = node.args
            if left.kind is Kind.CONST_INT:
                walk(right, scale * left.payload)  # type: ignore[operator]
            elif right.kind is Kind.CONST_INT:
                walk(left, scale * right.payload)  # type: ignore[operator]
            else:
                raise NonlinearError(f"nonlinear product: {node}")
        else:
            raise NonlinearError(
                f"unexpected integer leaf {node} (kind {kind.value}); "
                "preprocessing should have replaced it with a variable"
            )

    walk(term, 1)
    return coeffs, constant


def atom_from_comparison(kind: Kind, left: Term, right: Term) -> LinAtom:
    """Build the canonical atom for ``left <= right`` or ``left < right``."""
    if kind is not Kind.LE and kind is not Kind.LT:
        raise SortError(f"not a comparison kind: {kind}")
    key = (left, right, kind is Kind.LT)
    atom = _COMPARISONS.get(key)
    if atom is None:
        atom = _COMPARISONS[key] = _comparison_atom(kind, left, right)
    return atom


def _comparison_atom(kind: Kind, left: Term, right: Term) -> LinAtom:
    lc, lk = linearize(left)
    rc, rk = linearize(right)
    coeffs = dict(lc)
    for v, c in rc.items():
        coeffs[v] = coeffs.get(v, 0) - c
    constant = rk - lk
    if kind is Kind.LT:
        constant -= 1  # over integers, e < k  iff  e <= k - 1
    return make_atom(coeffs, constant)
