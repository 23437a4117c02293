"""Colorings of diagrams by linear quandles on Z_n.

The quandle operation is x * y = m x + (1 - m) y (mod n) with m a unit of
Z_n; m = -1 gives the dihedral operation 2y - x.  Colorings of a diagram
are exactly the kernel vectors of the relation matrix reduced mod n, so
for prime n everything reduces to linear algebra over a field.

Minimum-color search walks the non-trivial kernel vectors up to the affine
action  v -> a v + b  (a unit, b anything), which preserves both validity
and the number of distinct colors.  One vector per affine class is visited,
stepping from one to the next by a single vector addition, and colors are
counted on it as it stands; only the returned witness is put in canonical
form: first entry 0, first entry differing from it 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product
from math import gcd

from .diagram import Diagram
from .errors import ColoringError
from .laurent import alexander_matrix, det_int
from .bounds import is_odd_prime, kl_lower_bound


@dataclass(frozen=True)
class QuandleParams:
    """Modulus n >= 3 and multiplier m with gcd(m, n) = 1."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 3:
            raise ColoringError(f"modulus must be >= 3, got {self.n}")
        if gcd(self.m, self.n) != 1:
            raise ColoringError(f"multiplier {self.m} is not a unit mod {self.n}")

    @property
    def m_inv(self) -> int:
        return pow(self.m, -1, self.n)


def quandle_op(params: QuandleParams, x: int, y: int) -> int:
    """x * y = m x + (1 - m) y mod n."""
    return (params.m * x + (1 - params.m) * y) % params.n


def quandle_op_inv(params: QuandleParams, x: int, y: int) -> int:
    """The inverse operation: quandle_op_inv(quandle_op(x, y), y) == x."""
    mi = params.m_inv
    return (mi * x + (1 - mi) * y) % params.n


@dataclass(frozen=True)
class Coloring:
    """An arc -> color assignment for specific quandle parameters."""

    n: int
    m: int
    colors: dict[int, int]

    @property
    def distinct(self) -> int:
        return len(set(self.colors.values()))

    def to_json(self) -> dict:
        return {
            "p": self.n,
            "m": self.m,
            "colors": {str(a): c for a, c in sorted(self.colors.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Coloring":
        return cls(
            n=data["p"],
            m=data["m"],
            colors={int(a): c for a, c in data["colors"].items()},
        )


@dataclass(frozen=True)
class ModMatrix:
    """The relation matrix with t = m, reduced mod n."""

    rows: tuple[tuple[int, ...], ...]
    modulus: int
    arc_labels: tuple[int, ...]


def coloring_matrix(d: Diagram, params: QuandleParams) -> ModMatrix:
    """Relation matrix over Z_n whose kernel is the space of colorings."""
    alex = alexander_matrix(d)
    rows = tuple(
        tuple(e.evaluate(params.m) % params.n for e in row) for row in alex.rows
    )
    return ModMatrix(rows=rows, modulus=params.n, arc_labels=alex.arc_labels)


# ---------------------------------------------------------------------------
# Linear algebra over Z_p
# ---------------------------------------------------------------------------


def _row_reduce(rows: list[list[int]], p: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """RREF mod p.  Returns (pivots, reduced) where pivots lists
    (original_row_index, column) per pivot, in elimination order."""
    m = [[v % p for v in r] for r in rows]
    orig = list(range(len(m)))
    ncols = len(m[0]) if m else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        orig[r], orig[sel] = orig[sel], orig[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append((orig[r], col))
        r += 1
    return pivots, m


def _require_prime_modulus(p: int) -> None:
    if not is_odd_prime(p) and p != 2:
        raise ColoringError(f"kernel computation needs a prime modulus, got {p}")


def rank(mat: ModMatrix) -> int:
    _require_prime_modulus(mat.modulus)
    pivots, _ = _row_reduce([list(r) for r in mat.rows], mat.modulus)
    return len(pivots)


def kernel_basis(mat: ModMatrix) -> list[tuple[int, ...]]:
    """Basis of the null space over Z_p, one vector per free column."""
    _require_prime_modulus(mat.modulus)
    p = mat.modulus
    pivots, red = _row_reduce([list(r) for r in mat.rows], p)
    ncols = len(mat.arc_labels)
    pivot_cols = {col: i for i, (_, col) in enumerate(pivots)}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [0] * ncols
        v[f] = 1
        for col, row_i in pivot_cols.items():
            v[col] = (-red[row_i][f]) % p
        basis.append(tuple(v))
    return basis


def is_nontrivially_colorable(d: Diagram, params: QuandleParams, reduced=None) -> bool:
    """Whether some coloring uses more than one color: kernel dimension >= 2.

    When the reduced polynomial is supplied, the divisibility implication
    n | value(m)  =>  colorable  is re-checked and an inconsistency raises.
    """
    dim = len(kernel_basis(coloring_matrix(d, params)))
    result = dim >= 2
    if reduced is not None and not reduced.is_zero:
        if reduced.evaluate(params.m) % params.n == 0 and not result:
            raise ColoringError(
                "internal inconsistency: modulus divides the reduced value "
                "but only constant colorings exist"
            )
    return result


# ---------------------------------------------------------------------------
# Orbit enumeration and minimum colors
# ---------------------------------------------------------------------------


def _affine_canonical(v: Sequence[int], p: int) -> tuple[int, ...]:
    """Representative of the affine class of a non-constant vector:
    first coordinate 0, first differing coordinate 1."""
    base = v[0]
    j = next((i for i, x in enumerate(v) if x != base), None)
    if j is None:
        raise ColoringError("constant vector has no canonical form")
    scale = pow((v[j] - base) % p, -1, p)
    return tuple(((x - base) * scale) % p for x in v)


def _orbit_representatives(d: Diagram, params: QuandleParams):
    """Yield one coloring vector per affine class of non-constant colorings,
    as a list that is never changed after it is yielded.  Vectors are not in
    canonical form; pass the one kept to _affine_canonical."""
    p = params.n
    if not is_odd_prime(p):
        raise ColoringError(f"orbit search needs an odd prime modulus, got {p}")
    mat = coloring_matrix(d, params)
    basis = kernel_basis(mat)
    if len(basis) < 2:
        return
    q = len(mat.arc_labels)
    ones = tuple([1] * q)
    # Rebase so the all-ones vector is the first basis element; quotienting
    # by it then turns affine classes into projective classes.
    coeffs = _solve_in_span(basis, ones, p)
    if coeffs is None:
        raise ColoringError("internal inconsistency: constant vectors not in kernel")
    lead = next(i for i, c in enumerate(coeffs) if c != 0)
    rest = [b for i, b in enumerate(basis) if i != lead]
    last = rest[-1]
    # Projective class j: coefficient 1 on rest[j], 0 before it, and every
    # coefficient tuple after it in product order, the last one fastest.
    # Each prefix combination is built once; the last coefficient then
    # steps by adding rest[-1].  The final class is rest[-1] alone.
    for j in range(len(rest) - 1):
        middle = rest[j + 1:-1]
        for prefix in product(range(p), repeat=len(middle)):
            v = list(rest[j])
            for c, b in zip(prefix, middle):
                if c:
                    v = [(x + c * y) % p for x, y in zip(v, b)]
            yield v
            for _ in range(p - 1):
                v = [(x + y) % p for x, y in zip(v, last)]
                yield v
    yield list(last)


def _solve_in_span(basis: list[tuple[int, ...]], target: tuple[int, ...], p: int):
    """Coefficients expressing target in the span of basis, or None."""
    if not basis:
        return None
    q = len(target)
    rows = [[basis[j][i] for j in range(len(basis))] + [target[i]] for i in range(q)]
    pivots, red = _row_reduce(rows, p)
    coeffs = [0] * len(basis)
    for (_, col), row in zip(pivots, red):
        if col == len(basis):
            return None  # inconsistent system
    # Back-read: after RREF each pivot row gives coeff[col] = rhs.
    for i, (_, col) in enumerate(pivots):
        coeffs[col] = red[i][len(basis)]
    return coeffs


def min_colors_on_diagram(d: Diagram, params: QuandleParams) -> tuple[int, Coloring]:
    """Fewest distinct colors over all non-trivial colorings of this diagram.

    Raises when no non-trivial coloring exists, and when a knot's minimum is
    below the Kauffman-Lopes bound, which the theory forbids.  The returned
    witness is the canonical form of the first representative attaining the
    minimum.
    """
    best: tuple[int, list[int]] | None = None
    for v in _orbit_representatives(d, params):
        count = len(set(v))
        if best is None or count < best[0]:
            best = (count, v)
    if best is None:
        raise ColoringError(
            f"no non-trivial coloring of {d.name or 'diagram'} for n={params.n}, m={params.m}"
        )
    count, v = best
    p, m = params.n, params.m
    # Links are left out: a split link has 2-color colorings.
    if d.components == 1 and max(abs(m), abs(m - 1)) >= 2:
        kl = kl_lower_bound(p, m)
        if count < kl:
            raise ColoringError(
                f"internal inconsistency: {count} colors is below the "
                f"Kauffman-Lopes bound {kl} for p={p}, m={m}"
            )
    coloring = Coloring(p, m, dict(zip(d.arcs, _affine_canonical(v, p))))
    return count, coloring


def coloring_from_anchors(
    d: Diagram, params: QuandleParams, anchors: dict[int, int]
) -> Coloring:
    """The unique coloring taking prescribed values on the anchor arcs.

    Solves for kernel coordinates; raises when the constraints are
    inconsistent or leave freedom (the anchors must pin the kernel down).
    """
    p = params.n
    mat = coloring_matrix(d, params)
    basis = kernel_basis(mat)
    if not basis:
        raise ColoringError("kernel is trivial; no colorings at all")
    col_of = {arc: i for i, arc in enumerate(mat.arc_labels)}
    rows = []
    for arc, val in sorted(anchors.items()):
        if arc not in col_of:
            raise ColoringError(f"anchor arc {arc} is not an arc of the diagram")
        rows.append([b[col_of[arc]] for b in basis] + [val % p])
    pivots, red = _row_reduce(rows, p)
    if any(col == len(basis) for _, col in pivots):
        raise ColoringError("anchor constraints are inconsistent")
    if len(pivots) < len(basis):
        raise ColoringError(
            f"anchors leave {len(basis) - len(pivots)} kernel degrees of freedom"
        )
    coeffs = [0] * len(basis)
    for i, (_, col) in enumerate(pivots):
        coeffs[col] = red[i][len(basis)]
    q = len(mat.arc_labels)
    v = [0] * q
    for c, b in zip(coeffs, basis):
        if c:
            for i, x in enumerate(b):
                v[i] = (v[i] + c * x) % p
    return Coloring(params.n, params.m, dict(zip(mat.arc_labels, v)))


def verify_coloring(d: Diagram, coloring: Coloring) -> bool:
    """Check every crossing relation; works for composite moduli too."""
    params = QuandleParams(coloring.n, coloring.m)
    col = coloring.colors
    if set(col) != set(d.arcs):
        return False
    for c in d.crossings:
        x, y, z = col[c.under_in], col[c.over], col[c.under_out]
        expect = quandle_op(params, x, y) if c.sign > 0 else quandle_op_inv(params, x, y)
        if z % params.n != expect:
            return False
    return True


def enumerate_colorings_brute(d: Diagram, params: QuandleParams) -> set[tuple[int, ...]]:
    """All colorings by exhaustive search over n^q assignments.

    Exponential; exists as an independent oracle for the linear-algebra
    route and is only run on tiny inputs.
    """
    q = len(d.arcs)
    out = set()
    for v in product(range(params.n), repeat=q):
        c = Coloring(params.n, params.m, dict(zip(d.arcs, v)))
        if verify_coloring(d, c):
            out.add(v)
    return out


# ---------------------------------------------------------------------------
# All-arcs-distinct colorings
# ---------------------------------------------------------------------------


def kh_witness(
    d: Diagram, params: QuandleParams, reduced_alternating: bool
) -> Coloring | None:
    """A coloring giving pairwise distinct colors to all arcs, or None.

    Meaningful under the hypotheses: the diagram is reduced alternating
    (asserted by the caller, not detected here), 1 < m < p, and p is the
    prime value of the reduced polynomial at m.  The answer is about the
    diagram as given, not about all diagrams of the underlying knot.
    """
    if not reduced_alternating:
        raise ColoringError(
            "kh_check needs the caller to assert a reduced alternating diagram"
        )
    p, m = params.n, params.m
    if not is_odd_prime(p):
        raise ColoringError(f"kh_check needs an odd prime modulus, got {p}")
    if not 1 < m < p:
        raise ColoringError(f"kh_check needs 1 < m < p, got m={m}, p={p}")
    from .laurent import first_minor, reduce_normalize

    value = reduce_normalize(
        first_minor(alexander_matrix(d)), d.components
    ).evaluate(m)
    if value != p:
        raise ColoringError(
            f"kh_check needs p equal to the reduced value at m: value {value}, p {p}"
        )
    q = len(d.arcs)
    for v in _orbit_representatives(d, params):
        if len(set(v)) == q:
            return Coloring(p, m, dict(zip(d.arcs, _affine_canonical(v, p))))
    return None


def kh_check(d: Diagram, params: QuandleParams, reduced_alternating: bool) -> bool:
    """Does some non-trivial coloring give pairwise distinct colors to all arcs?"""
    return kh_witness(d, params, reduced_alternating) is not None


# ---------------------------------------------------------------------------
# Column collapse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollapseReport:
    """Result of collapsing the integer relation matrix along a coloring."""

    p: int
    m: int
    distinct: int
    det_b: int
    bound: int          # max(|m|, |m-1|) ** (distinct - 1)
    divisible: bool     # p | det_b
    bounded: bool       # |det_b| <= bound
    ok: bool

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "distinct": self.distinct,
            "det_b": self.det_b,
            "bound": self.bound,
            "divisible": self.divisible,
            "bounded": self.bounded,
            "ok": self.ok,
        }


def _pivot_rows_rational(rows: list[list[int]]) -> list[int]:
    """Original indices of a maximal independent row set, chosen by Gaussian
    elimination over the rationals in row order.

    The elimination runs in integers: row_i becomes piv * row_i - f * row_r,
    divided by its content.  Each row stays a non-zero multiple of its
    rational counterpart, so the zero pattern and the pivots are the same.
    """
    m = [list(r) for r in rows]
    orig = list(range(len(m)))
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        orig[r], orig[sel] = orig[sel], orig[r]
        piv = m[r][col]
        for i in range(r + 1, len(m)):
            f = m[i][col]
            if f:
                row = [piv * a - f * b for a, b in zip(m[i], m[r])]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(orig[r])
        r += 1
    return pivots


def collapse_and_check(d: Diagram, coloring: Coloring) -> CollapseReport:
    """Merge equal-colored columns of the integer relation matrix, keep an
    independent set of rows, drop the (zero) summed column, and test the
    determinant of what is left: it must be a non-zero multiple of p with
    absolute value at most max(|m|, |m-1|)^(d-1).
    """
    p, m = coloring.n, coloring.m
    if not is_odd_prime(p):
        raise ColoringError(f"collapse needs an odd prime modulus, got {p}")
    if not verify_coloring(d, coloring):
        raise ColoringError("collapse needs a valid coloring of this diagram")
    dcount = coloring.distinct
    if dcount < 2:
        raise ColoringError("non-trivial coloring required")

    # Integer relation matrix, t = m over Z (no reduction).
    alex = alexander_matrix(d)
    a_rows = [[e.evaluate(m) for e in row] for row in alex.rows]

    # Color classes ordered by first appearance along the arc order.
    classes: list[int] = []
    class_of: dict[int, int] = {}
    for arc in d.arcs:
        c = coloring.colors[arc]
        if c not in class_of:
            class_of[c] = len(classes)
            classes.append(c)
    merged = []
    for row, _ in zip(a_rows, alex.rows):
        out = [0] * dcount
        for j, arc in enumerate(alex.arc_labels):
            out[class_of[coloring.colors[arc]]] += row[j]
        merged.append(out)

    pivots = _pivot_rows_rational(merged)
    if len(pivots) != dcount - 1:
        raise ColoringError(
            f"collapsed matrix has rank {len(pivots)}, expected {dcount - 1}"
        )
    chosen = [merged[i] for i in pivots]

    # Adding every column into the last must zero it: row sums vanish.
    for row in chosen:
        if sum(row) != 0:
            raise ColoringError("internal inconsistency: collapsed row sum is non-zero")
    b = [row[:-1] for row in chosen]
    det_b = det_int(b)
    big_m = max(abs(m), abs(m - 1))
    bound = big_m ** (dcount - 1)
    divisible = det_b % p == 0
    bounded = abs(det_b) <= bound
    return CollapseReport(
        p=p,
        m=m,
        distinct=dcount,
        det_b=det_b,
        bound=bound,
        divisible=divisible,
        bounded=bounded,
        ok=divisible and bounded and det_b != 0,
    )
