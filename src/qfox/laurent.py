"""Exact one-variable Laurent polynomial arithmetic over the integers.

Everything downstream (determinants, colorings, bounds) runs on exact
integer coefficients; nothing in this module touches floating point.
The module also builds the crossing/arc relation matrix of a diagram
straight from its crossings (alexander_matrix).  Every entry is linear in
t, so the matrix is a sparse pencil A + tB: one row of at most three
(column, a, b) triples per crossing, for the entries a + bt.  A first
minor of size n is det(A + tB) for the minor's rows, taken by sparse
elimination modulo a Mersenne prime above twice one bound H on its
coefficients, Hadamard's at |t| = 1: at one point t = 2^K whose base-2^K
digits are the coefficients, or for the largest minors at n + 1 points
and by interpolation (see qfox.sparse), so no division needs checking;
the dense integer route is a test oracle.
Exact division (exact_div) is long division by integer divmod checked for
a remainder.  No integer elimination runs here: the mod-p kernel and the
collapse checks (qfox.coloring) evaluate the same triples at t = m and take
them to the echelon form of qfox.sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
import re
from typing import Iterable

from .diagram import Diagram
from .errors import DiagramError, InexactDivisionError, NormalizationError
from .sparse import Row, pencil_det


@dataclass(frozen=True)
class LaurentPoly:
    """A Laurent polynomial  c_0*t^min_exp + ... + c_k*t^(min_exp+k).

    Canonical form: `coeffs` is empty for the zero polynomial (min_exp 0),
    otherwise its first and last entries are non-zero.
    """

    coeffs: tuple[int, ...] = ()
    min_exp: int = 0

    def __post_init__(self):
        coeffs = tuple([int(c) for c in self.coeffs])
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
    def from_terms(cls, terms: Iterable[tuple[int, int]]) -> "LaurentPoly":
        """Build from (exponent, coefficient) pairs, summing repeated
        exponents."""
        acc: dict[int, int] = {}
        for e, c in terms:
            acc[e] = acc.get(e, 0) + c
        acc = {e: c for e, c in acc.items() if c != 0}
        if not acc:
            return cls()
        lo, hi = min(acc), max(acc)
        return cls(tuple([acc.get(e, 0) for e in range(lo, hi + 1)]), lo)

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

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple([-c for c in self.coeffs]), self.min_exp)

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
    return p.coeffs == q.coeffs or p.coeffs == tuple([-c for c in q.coeffs])


# ---------------------------------------------------------------------------
# Crossing/arc relation matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlexMatrix:
    """The relation matrix over Z[t] as a sparse pencil: one row per
    crossing, each a list of at most three (column, a, b) triples, one per
    entry a + bt that is not identically zero."""

    rows: list[Row]
    arc_labels: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.arc_labels)


def alexander_matrix(d: Diagram) -> AlexMatrix:
    """The relation matrix of a diagram, read straight from the crossings.

    A positive crossing contributes t, 1 - t and -1 in the columns of the
    incoming under-arc, the over-arc and the outgoing under-arc; a negative
    one the inverse relation scaled by t, the same entries with the
    under-arc roles swapped.  Where arcs coincide (a kink) their entries are
    summed, and a sum that is identically zero is dropped."""
    col = {arc: i for i, arc in enumerate(d.arcs)}
    rows = []
    for c in d.crossings:
        x_in, x_out = (c.under_in, c.under_out) if c.sign > 0 else (c.under_out, c.under_in)
        row = [(col[x_in], 0, 1), (col[c.over], 1, -1), (col[x_out], -1, 0)]
        if x_in == c.over or c.over == x_out or x_out == x_in:
            a, b = {}, {}
            for j, x, y in row:
                a[j], b[j] = a.get(j, 0) + x, b.get(j, 0) + y
            row = [(j, a[j], b[j]) for j in a if a[j] or b[j]]
        rows.append(row)
    return AlexMatrix(rows, tuple(d.arcs))


def first_minor(mat: AlexMatrix) -> LaurentPoly:
    """Determinant after deleting the first row and the first column.

    Defined only up to a unit ±t^n: every choice of deleted row and column
    agrees up to that ambiguity, which reduce_normalize absorbs.  A matrix
    with no rows (a diagram without crossings) raises DiagramError.
    """
    if mat.n_rows == 0:
        raise DiagramError("a diagram without crossings has no first minor")
    if mat.n_rows > 1 and mat.n_rows != mat.n_cols:
        raise ValueError("minor of a non-square matrix")
    rows = [[(j - 1, a, b) for j, a, b in row if j] for row in mat.rows[1:]]
    return LaurentPoly(tuple(pencil_det(rows)))


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
