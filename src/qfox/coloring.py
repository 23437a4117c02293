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
from dataclasses import asdict, dataclass
from itertools import product
from math import gcd

from .diagram import Diagram
from .errors import ColoringError
from .laurent import alexander_matrix, bareiss, first_minor, reduce_normalize, relation_rows
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
    def from_json(cls, data) -> "Coloring":
        """Read the to_json form; any other shape raises ColoringError."""
        if not (
            isinstance(data, dict)
            and type(data.get("p")) is int
            and type(data.get("m")) is int
            and isinstance(data.get("colors"), dict)
            and all(type(c) is int for c in data["colors"].values())
        ):
            raise ColoringError(
                'a coloring must look like {"p": int, "m": int, "colors": {"arc": int, ...}}'
            )
        try:
            colors = {int(a): c for a, c in data["colors"].items()}
        except ValueError as exc:
            raise ColoringError(f"coloring arc labels must be integers: {exc}") from exc
        return cls(n=data["p"], m=data["m"], colors=colors)


@dataclass(frozen=True)
class ModMatrix:
    """The relation matrix with t = m, reduced mod n."""

    rows: tuple[tuple[int, ...], ...]
    modulus: int
    arc_labels: tuple[int, ...]


def coloring_matrix(d: Diagram, params: QuandleParams) -> ModMatrix:
    """Relation matrix over Z_n whose kernel is the space of colorings."""
    n = params.n
    rows = tuple(tuple(x % n for x in row) for row in relation_rows(d, params.m))
    return ModMatrix(rows=rows, modulus=n, arc_labels=tuple(d.arcs))


# ---------------------------------------------------------------------------
# Linear algebra over Z_p
# ---------------------------------------------------------------------------


def _row_reduce(rows: list[list[int]], p: int) -> tuple[list[int], list[list[int]]]:
    """RREF mod p.  Returns (pivots, reduced) where pivots lists the pivot
    column of each row of reduced, in elimination order."""
    m = [[v % p for v in r] for r in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return pivots, m


def _require_prime_modulus(p: int) -> None:
    if not is_odd_prime(p) and p != 2:
        raise ColoringError(f"kernel computation needs a prime modulus, got {p}")


def kernel_basis(mat: ModMatrix) -> list[tuple[int, ...]]:
    """Basis of the null space over Z_p, one vector per free column."""
    _require_prime_modulus(mat.modulus)
    p = mat.modulus
    pivots, red = _row_reduce([list(r) for r in mat.rows], p)
    ncols = len(mat.arc_labels)
    pivot_cols = {col: i for i, col in enumerate(pivots)}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [0] * ncols
        v[f] = 1
        for col, row_i in pivot_cols.items():
            v[col] = (-red[row_i][f]) % p
        basis.append(tuple(v))
    return basis


def is_nontrivially_colorable(d: Diagram, params: QuandleParams) -> bool:
    """Whether some coloring uses more than one color: kernel dimension >= 2."""
    return len(kernel_basis(coloring_matrix(d, params))) >= 2


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
    basis = kernel_basis(coloring_matrix(d, params))
    if len(basis) < 2:
        return
    # Each basis vector is 1 on its own free column and 0 on the other free
    # columns, so the all-ones vector, which is always in the kernel, is the
    # sum of the basis.  It can then replace basis[0], and quotienting by it
    # turns affine classes into projective classes of the span of the rest.
    if any(sum(col) % p != 1 for col in zip(*basis)):
        raise ColoringError("internal inconsistency: constant vectors not in kernel")
    rest = basis[1:]
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

    Row-reduces the relation rows at t = m, with a zero right-hand side,
    together with one unit row per anchor; raises when the constraints are
    inconsistent or leave freedom (the anchors must pin the kernel down).
    """
    p = params.n
    _require_prime_modulus(p)
    q = len(d.arcs)
    if not q:
        raise ColoringError("kernel is trivial; no colorings at all")
    col_of = {arc: i for i, arc in enumerate(d.arcs)}
    rows = [row + [0] for row in relation_rows(d, params.m)]
    for arc, val in sorted(anchors.items()):
        if arc not in col_of:
            raise ColoringError(f"anchor arc {arc} is not an arc of the diagram")
        unit = [0] * (q + 1)
        unit[col_of[arc]], unit[q] = 1, val
        rows.append(unit)
    pivots, red = _row_reduce(rows, p)
    if q in pivots:
        raise ColoringError("anchor constraints are inconsistent")
    if len(pivots) < q:
        raise ColoringError(f"anchors leave {q - len(pivots)} kernel degrees of freedom")
    # Every column is a pivot, so row i of the reduced system reads v[i] = red[i][q].
    return Coloring(params.n, params.m, dict(zip(d.arcs, (r[q] for r in red))))


def verify_coloring(d: Diagram, coloring: Coloring) -> bool:
    """Check that every arc has a color in 0..n-1 and every crossing
    relation holds; works for composite moduli too."""
    params = QuandleParams(coloring.n, coloring.m)
    col = coloring.colors
    if set(col) != set(d.arcs) or not all(0 <= c < params.n for c in col.values()):
        return False
    for c in d.crossings:
        x, y, z = col[c.under_in], col[c.over], col[c.under_out]
        expect = quandle_op(params, x, y) if c.sign > 0 else quandle_op_inv(params, x, y)
        if z != expect:
            return False
    return True


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
            "KH check needs the caller to assert a reduced alternating diagram"
        )
    p, m = params.n, params.m
    if not is_odd_prime(p):
        raise ColoringError(f"KH check needs an odd prime modulus, got {p}")
    if not 1 < m < p:
        raise ColoringError(f"KH check needs 1 < m < p, got m={m}, p={p}")
    value = reduce_normalize(
        first_minor(alexander_matrix(d)), d.components
    ).evaluate(m)
    if value != p:
        raise ColoringError(
            f"KH check needs p equal to the reduced value at m: value {value}, p {p}"
        )
    q = len(d.arcs)
    for v in _orbit_representatives(d, params):
        if len(set(v)) == q:
            return Coloring(p, m, dict(zip(d.arcs, _affine_canonical(v, p))))
    return None


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
        return asdict(self)


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

    # Color classes ordered by first appearance along the arc order; the
    # columns of the integer relation matrix at t = m merge class by class.
    class_of: dict[int, int] = {}
    for arc in d.arcs:
        class_of.setdefault(coloring.colors[arc], len(class_of))
    column_class = [class_of[coloring.colors[arc]] for arc in d.arcs]
    merged = []
    for row in relation_rows(d, m):
        out = [0] * dcount
        for j, x in zip(column_class, row):
            out[j] += x
        merged.append(out)

    pivots, det_b, _ = bareiss(merged)
    if len(pivots) != dcount - 1:
        raise ColoringError(
            f"collapsed matrix has rank {len(pivots)}, expected {dcount - 1}"
        )
    # Rows that sum to 0 make the last column minus the sum of the others,
    # so the pivot columns are the first d-1, and the last pivot is det B:
    # B is the pivot rows, in elimination order, without the last column.
    for i in pivots:
        if sum(merged[i]) != 0:
            raise ColoringError("internal inconsistency: collapsed row sum is non-zero")
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
