"""Exact one-variable Laurent polynomial arithmetic over the integers.

Everything downstream (determinants, colorings, bounds) runs on exact
integer coefficients; nothing in this module touches floating point.
The module also builds the crossing/arc relation matrix of a diagram as
integer rows at any integer t (relation_rows); its entries are linear in t,
so the matrix over Z[t] is held as its values at t = 0 and t = 1.  A first
minor of size n is one integer determinant (fraction-free Bareiss
elimination) at each of t = 0, 1, ..., n, then exact Newton interpolation
back to Z[t].  Every division on the way, including the long division of
exact_div, is an integer divmod checked for a remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
import re
from typing import Iterable, Mapping

from .diagram import Diagram
from .errors import DiagramError, InexactDivisionError, NormalizationError


@dataclass(frozen=True)
class LaurentPoly:
    """A Laurent polynomial  c_0*t^min_exp + ... + c_k*t^(min_exp+k).

    Canonical form: `coeffs` is empty for the zero polynomial (min_exp 0),
    otherwise its first and last entries are non-zero.
    """

    coeffs: tuple[int, ...] = ()
    min_exp: int = 0

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        min_exp = self.min_exp
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            coeffs, min_exp = (), 0
        else:
            coeffs, min_exp = coeffs[lo:hi], min_exp + lo
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "min_exp", min_exp)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls((1,))

    @classmethod
    def t(cls) -> "LaurentPoly":
        return cls((1,), 1)

    @classmethod
    def from_terms(cls, terms: Mapping[int, int] | Iterable[tuple[int, int]]) -> "LaurentPoly":
        """Build from {exponent: coefficient} or an iterable of (exp, coeff)."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for e, c in items:
            acc[e] = acc.get(e, 0) + c
        acc = {e: c for e, c in acc.items() if c != 0}
        if not acc:
            return cls()
        lo, hi = min(acc), max(acc)
        return cls(tuple(acc.get(e, 0) for e in range(lo, hi + 1)), lo)

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Largest exponent with a non-zero coefficient.  Zero poly: -1."""
        if self.is_zero:
            return -1
        return self.min_exp + len(self.coeffs) - 1

    def coeff(self, exp: int) -> int:
        i = exp - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return [(self.min_exp + i, c) for i, c in enumerate(self.coeffs) if c != 0]

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.degree, other.degree)
        return LaurentPoly(
            tuple(self.coeff(e) + other.coeff(e) for e in range(lo, hi + 1)), lo
        )

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple(-c for c in self.coeffs), self.min_exp)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentPoly(tuple(out), self.min_exp + other.min_exp)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return LaurentPoly(self.coeffs, self.min_exp + k)

    def evaluate(self, m: int) -> int:
        """Value at t = m.  Requires min_exp >= 0 (shift the unit out first)."""
        if self.is_zero:
            return 0
        if self.min_exp < 0:
            raise ValueError("cannot evaluate a polynomial with negative exponents")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * m + c
        return acc * m ** self.min_exp

    # -- text form ------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


_TERM_RE = re.compile(r"^(?:(\d+)\s*\*?\s*)?t(?:\^(-?\d+))?$|^(\d+)$")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the text form produced by str(): e.g. '2 - 3t + 3t^2'.

    A '*' between coefficient and t is also accepted.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return LaurentPoly()
    # Split into signed terms.
    chunks = re.split(r"\s*([+-])\s*", s)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise ValueError(f"malformed polynomial text: {text!r}")
    terms: list[tuple[int, int]] = []
    for sign_tok, body in zip(chunks[::2], chunks[1::2]):
        mt = _TERM_RE.match(body.replace(" ", ""))
        if mt is None:
            raise ValueError(f"malformed polynomial term: {body!r}")
        sign = 1 if sign_tok == "+" else -1
        if mt.group(3) is not None:
            terms.append((0, sign * int(mt.group(3))))
        else:
            coeff = int(mt.group(1)) if mt.group(1) else 1
            exp = int(mt.group(2)) if mt.group(2) is not None else 1
            terms.append((exp, sign * coeff))
    return LaurentPoly.from_terms(terms)


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Divide p by q, requiring an exact quotient in Z[t, t^-1].

    Long division from the top coefficient down, in integers: when the
    quotient has integer coefficients every step divides exactly, so the
    first inexact step, or a non-zero remainder at the end, raises
    InexactDivisionError carrying the integer remainder left at that point.
    """
    if q.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero:
        return LaurentPoly()
    # Work with plain coefficient lists, constant terms non-zero.
    rem = list(p.coeffs)
    den = q.coeffs
    dq = len(den) - 1
    out: list[int] = []
    for top in range(len(rem) - 1, dq - 1, -1):
        c, r = divmod(rem[top], den[dq])
        if r:
            break
        out.append(c)
        if c:
            for j in range(dq + 1):
                rem[top - dq + j] -= c * den[j]
    if any(rem):
        nz = [(p.min_exp + i, c) for i, c in enumerate(rem) if c]
        detail = " + ".join(f"({c})t^{e}" for e, c in nz)
        raise InexactDivisionError(
            f"{q} does not divide {p}: remainder {detail}", remainder=nz
        )
    out.reverse()
    return LaurentPoly(tuple(out), p.min_exp - q.min_exp)


def unit_equivalent(p: LaurentPoly, q: LaurentPoly) -> bool:
    """True when p = ±t^n q for some integer n."""
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    return p.coeffs == q.coeffs or p.coeffs == tuple(-c for c in q.coeffs)


# ---------------------------------------------------------------------------
# Crossing/arc relation matrix
# ---------------------------------------------------------------------------


def relation_rows(d: Diagram, t: int) -> list[list[int]]:
    """Relation matrix of a diagram at an integer t: rows are crossings,
    columns are arcs.

    At a positive crossing the outgoing under-arc relation contributes
    t, 1-t, -1 in the columns of the incoming under-arc, the over-arc and
    the outgoing under-arc.  Negative crossings contribute the inverse
    relation scaled by t, which lands on the same three values with the
    under-arc roles swapped.
    """
    col = {arc: i for i, arc in enumerate(d.arcs)}
    rows = []
    for c in d.crossings:
        row = [0] * len(d.arcs)
        x_in, x_out = (c.under_in, c.under_out) if c.sign > 0 else (c.under_out, c.under_in)
        row[col[x_in]] += t
        row[col[c.over]] += 1 - t
        row[col[x_out]] -= 1
        rows.append(row)
    return rows


@dataclass(frozen=True)
class AlexMatrix:
    """The relation matrix over Z[t], held as its integer values at t = 0
    and t = 1 (see relation_rows).  Every entry is linear in t, so entry
    (i, j) is a + (b - a)t with a = at_0[i][j] and b = at_1[i][j]."""

    at_0: list[list[int]]
    at_1: list[list[int]]
    arc_labels: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return len(self.at_0)

    @property
    def n_cols(self) -> int:
        return len(self.arc_labels)


def alexander_matrix(d: Diagram) -> AlexMatrix:
    """Build the relation matrix of a diagram, one row per crossing."""
    return AlexMatrix(relation_rows(d, 0), relation_rows(d, 1), tuple(d.arcs))


def bareiss(rows: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) elimination of an integer matrix.

    Columns are taken in order.  The pivot of a column is the first
    remaining row that is non-zero there, swapped into place; a column
    without one is dropped.  Returns (pivot row indices in elimination
    order, last pivot, sign of the row swaps).  By Sylvester's identity the
    last pivot is the determinant of the pivot rows restricted to the pivot
    columns, in elimination order; with no pivots it is 1.  Every division
    by the previous pivot is exact; each one is checked, and a remainder
    raises InexactDivisionError.
    """
    m = [list(r) for r in rows]
    order = list(range(len(m)))
    pivots: list[int] = []
    sign = 1
    prev = 1
    while m and m[0]:
        k = next((i for i, r in enumerate(m) if r[0]), None)
        if k is None:
            m = [r[1:] for r in m]
            continue
        if k:
            m[0], m[k] = m[k], m[0]
            order[0], order[k] = order[k], order[0]
            sign = -sign
        pivots.append(order.pop(0))
        pivot, *head = m[0]
        reduced = []
        for row in m[1:]:
            a = row[0]
            out = []
            for x, y in zip(row[1:], head):
                # A row with a zero in the pivot column is only rescaled, and
                # relation matrices are mostly zeros: skip the work for those.
                v = pivot * x - a * y if a else pivot * x
                if not v:
                    out.append(0)
                    continue
                q, r = divmod(v, prev)
                if r:
                    raise InexactDivisionError(
                        f"Bareiss step: {prev} does not divide {v}", remainder=r
                    )
                out.append(q)
            reduced.append(out)
        m = reduced
        prev = pivot
    return pivots, prev, sign


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by bareiss: the signed last
    pivot when every row is a pivot row, else 0."""
    pivots, last, sign = bareiss(rows)
    return sign * last if len(pivots) == len(rows) else 0


def _newton_expand(values: list[int]) -> tuple[int, ...]:
    """Coefficients of the integer polynomial f with f(x) = values[x].

    The Newton coefficients c_k = (forward difference)^k f(0) / k! of a
    polynomial with integer coefficients are integers; each division is
    checked, and a remainder raises InexactDivisionError.  The Newton form
    sum c_k x(x-1)...(x-k+1) is then expanded by Horner's rule.
    """
    newton = []
    diffs = list(values)
    for k in range(len(values)):
        c, r = divmod(diffs[0], factorial(k))
        if r:
            raise InexactDivisionError(
                f"Newton coefficient {k}: {k}! does not divide {diffs[0]}",
                remainder=r,
            )
        newton.append(c)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs: list[int] = []
    for k in range(len(newton) - 1, -1, -1):
        # coeffs * (x - k) + c_k
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += newton[k]
    return tuple(coeffs)


def det_pencil(a: list[list[int]], b: list[list[int]]) -> LaurentPoly:
    """det(A + tB) for square integer matrices A and B of size n.

    The determinant has degree at most n, so one integer determinant at
    each of t = 0, 1, ..., n fixes it; exact Newton interpolation recovers it.
    """
    values = [
        det_int([[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        for t in range(len(a) + 1)
    ]
    return LaurentPoly(_newton_expand(values))


def first_minor(mat: AlexMatrix, drop_row: int = 0, drop_col: int = 0) -> LaurentPoly:
    """Determinant after deleting one row and one column.

    Defined only up to a unit ±t^n: different (drop_row, drop_col) choices
    agree up to that ambiguity, which reduce_normalize absorbs.  A matrix
    with no rows (a diagram without crossings) raises DiagramError.
    """
    if mat.n_rows == 0:
        raise DiagramError("a diagram without crossings has no first minor")
    if not (0 <= drop_row < mat.n_rows and 0 <= drop_col < mat.n_cols):
        raise IndexError("minor indices out of range")

    def minor(rows: list[list[int]]) -> list[list[int]]:
        return [
            [x for j, x in enumerate(r) if j != drop_col]
            for i, r in enumerate(rows)
            if i != drop_row
        ]

    at_0, at_1 = minor(mat.at_0), minor(mat.at_1)
    if at_0 and len(at_0) != len(at_0[0]):
        raise ValueError("minor of a non-square matrix")
    slope = [[y - x for x, y in zip(r0, r1)] for r0, r1 in zip(at_0, at_1)]
    return det_pencil(at_0, slope)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize_unit(p: LaurentPoly) -> LaurentPoly:
    """Multiply by ±t^n so min_exp = 0 and the constant term is positive."""
    if p.is_zero:
        raise NormalizationError("cannot normalize the zero polynomial")
    q = p.shifted(-p.min_exp)
    return q if q.coeffs[0] > 0 else -q


def reduce_normalize(p: LaurentPoly, components: int) -> LaurentPoly:
    """Turn a raw first minor into the reduced polynomial of the diagram.

    Knots: normalize the unit and check the shape every valid reduced
    polynomial has (palindromic, even degree, odd middle coefficient); a
    failed check means the determinant upstream is wrong, so it raises.
    Links with >= 2 components: divide by 1 - t first, then normalize.
    """
    if p.is_zero:
        raise NormalizationError("zero determinant (split diagram?)")
    if components < 1:
        raise ValueError("component count must be >= 1")
    if components >= 2:
        one_minus_t = LaurentPoly((1, -1))
        try:
            p = exact_div(p, one_minus_t)
        except InexactDivisionError as exc:
            raise NormalizationError(
                f"link determinant not divisible by 1 - t: {exc}"
            ) from exc
        return normalize_unit(p)
    q = normalize_unit(p)
    problems = []
    k = q.degree
    if q.coeffs != tuple(reversed(q.coeffs)):
        problems.append("coefficients are not palindromic")
    if k % 2 != 0:
        problems.append(f"degree {k} is odd")
    elif q.coeff(k // 2) % 2 == 0:
        problems.append(f"middle coefficient {q.coeff(k // 2)} is even")
    if problems:
        raise NormalizationError(
            f"not a reduced knot polynomial ({'; '.join(problems)}): {q}"
        )
    return q
