"""Reference computations kept as oracles for the tests.

None of them runs in the package.  qfox.laurent.first_minor takes det(A + tB)
by sparse elimination mod a Mersenne prime (qfox.sparse); det_pencil
computes it in integers, one dense Bareiss determinant (det_int) at each of
t = 0..n and exact Newton interpolation (_newton_expand) with every
division checked, and det_bareiss and det_cofactor compute the same
polynomial directly, by fraction-free elimination over Z[t] and by cofactor
expansion, in RingPoly: LaurentPoly with the sums, differences and
constants 0, 1 and t that no package code uses.  alexander_matrix_reference
builds the dense relation matrix from RingPoly arithmetic, against the
sparse (column, a, b) triples of qfox.laurent.alexander_matrix and their
values at t = m mod p (qfox.sparse.pencil_at), and is the source of every
Z[t] matrix and every dense integer row the tests need.  kernel_vectors
lists every coloring that the orbit search walks up to the affine action,
enumerate_colorings_brute lists them by exhaustive search, and
orbit_representatives is the walk itself on plain lists, one class at a
time with no line skipped, against the packed walk of
qfox.coloring._orbit_walk: first_minimum and first_all_distinct read the
witnesses of min_colors_on_diagram and kh_witness off it.  _row_reduce is
the dense RREF mod p that the sparse echelon form of qfox.sparse replaced:
rank, kernel_basis_rref and anchored_solution_rref read the rank, the
kernel basis and the coloring pinned by anchor values off it, the last
against qfox.families.pretzel_m2_coloring.  bareiss, the fraction-free
integer elimination behind det_int, and pivot_rows_fraction, the same
elimination over Fraction, are the oracles for the pivot rows and det B
that collapse_and_check reads off qfox.sparse.pivot_minor.
markowitz_inverse is the Markowitz elimination that reduces each row by
the inverse of its pivot, with the sign of its pivots counted by
inversions, against the fraction-free, folded one of qfox.sparse.
arc_of_edge numbers arcs with a union-find of its own, against
build_diagram.
validate lists the invariants a built Diagram must satisfy, and
base_m_digits expands an integer in base m, the digit count that
qfox.bounds.floor_log computes without the digits.  prime_scan_reference
scans one m at a time, LaurentPoly.evaluate and then is_odd_prime on every
value, against the block sieve of qfox.bounds.prime_scan.  hironaka_quotient
is the rational form of the pretzel polynomial, an exact division by
(1+t)^3, against the closed form of qfox.families.pretzel_alexander.
strong_lucas_uv is the strong Lucas test on the chain of U and V, against
the V-only ladder of qfox.bounds.  smallest_prime_factor factors the
values the tests need prime, with the trial division and rho search that
qfox.bounds runs on a composite p.
"""

from fractions import Fraction
from itertools import combinations, product
from math import factorial

from math import isqrt

from qfox import bounds
from qfox.bounds import _jacobi, is_odd_prime
from qfox.coloring import (
    Coloring,
    ModMatrix,
    _affine_canonical,
    coloring_matrix,
    kernel_basis,
    verify_coloring,
)
from qfox.diagram import Diagram, PdCode
from qfox.errors import BoundsError, ColoringError, InexactDivisionError
from qfox.laurent import LaurentPoly, exact_div


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


class RingPoly(LaurentPoly):
    """LaurentPoly with the sums, differences and constants 0, 1 and t that
    only the Z[t] oracles use.  Products and negations stay RingPoly, and a
    RingPoly equals the LaurentPoly with the same terms."""

    @classmethod
    def of(cls, p: LaurentPoly) -> "RingPoly":
        return cls(p.coeffs, p.min_exp)

    @classmethod
    def zero(cls) -> "RingPoly":
        return cls()

    @classmethod
    def one(cls) -> "RingPoly":
        return cls((1,))

    @classmethod
    def t(cls) -> "RingPoly":
        return cls((1,), 1)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.coeffs, self.min_exp) == (other.coeffs, other.min_exp)

    __hash__ = LaurentPoly.__hash__

    def __add__(self, other: LaurentPoly) -> "RingPoly":
        return RingPoly.from_terms(self.terms() + other.terms())

    def __neg__(self) -> "RingPoly":
        return RingPoly(tuple([-c for c in self.coeffs]), self.min_exp)

    def __sub__(self, other: LaurentPoly) -> "RingPoly":
        return self + -other

    def __mul__(self, other: LaurentPoly) -> "RingPoly":
        return RingPoly.of(LaurentPoly.__mul__(self, other))


def det_bareiss(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Fraction-free determinant over Z[t].  Entries must have min_exp >= 0."""
    n = len(rows)
    if n == 0:
        return RingPoly.one()
    m = [[RingPoly.of(x) for x in r] for r in rows]
    sign = 1
    prev = RingPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, n):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return RingPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = RingPoly.of(exact_div(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev))
            m[i][k] = RingPoly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def det_cofactor(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by cofactor expansion.  Exponential; small matrices only."""
    n = len(rows)
    if n == 0:
        return RingPoly.one()
    if n == 1:
        return rows[0][0]
    acc = RingPoly.zero()
    for j, head in enumerate(rows[0]):
        if head.is_zero:
            continue
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = head * det_cofactor(sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def alexander_matrix_reference(d) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The relation matrix over Z[t], one row per crossing, by LaurentPoly
    arithmetic: t, 1-t, -1 on the incoming under-arc, the over-arc and the
    outgoing under-arc, under-arc roles swapped at negative crossings."""
    col = {arc: i for i, arc in enumerate(d.arcs)}
    t = RingPoly.t()
    one = RingPoly.one()
    rows = []
    for c in d.crossings:
        row = [RingPoly.zero()] * len(d.arcs)
        x_in, x_out = (c.under_in, c.under_out) if c.sign > 0 else (c.under_out, c.under_in)
        row[col[x_in]] = row[col[x_in]] + t
        row[col[c.over]] = row[col[c.over]] + (one - t)
        row[col[x_out]] = row[col[x_out]] - one
        rows.append(tuple(row))
    return tuple(rows)


def arc_of_edge(pd: PdCode) -> dict[int, int]:
    """Map each edge label to its arc id: arcs merge the two over-edges at
    every crossing and are numbered 1..q by their smallest edge label."""
    parent: dict[int, int] = {}
    for quad in pd.crossings:
        for e in quad:
            parent.setdefault(e, e)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, b, _, dd in pd.crossings:
        rb, rd = find(b), find(dd)
        if rb != rd:
            parent[rb] = rd
    classes: dict[int, list[int]] = {}
    for e in parent:
        classes.setdefault(find(e), []).append(e)
    rank = {m: i + 1 for i, m in enumerate(sorted(min(v) for v in classes.values()))}
    out: dict[int, int] = {}
    for edges in classes.values():
        aid = rank[min(edges)]
        for e in edges:
            out[e] = aid
    return out


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


def rank(mat: ModMatrix) -> int:
    dense = [[r.get(j, 0) for j in range(len(mat.arc_labels))] for r in mat.rows]
    pivots, _ = _row_reduce(dense, mat.modulus)
    return len(pivots)


def kernel_basis_rref(rows: list[list[int]], ncols: int, p: int) -> list[tuple[int, ...]]:
    """The kernel basis read off the RREF, one vector per free column: 1
    there, 0 on the other free columns, minus the free column's entry of
    each reduced row on that row's pivot column."""
    pivots, red = _row_reduce(rows, p)
    pivot_cols = {col: i for i, col in enumerate(pivots)}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        v = [0] * ncols
        v[f] = 1
        for col, row_i in pivot_cols.items():
            v[col] = (-red[row_i][f]) % p
        basis.append(tuple(v))
    return basis


def anchored_solution_rref(rows: list[list[int]], anchors: dict[int, int], p: int) -> list[int]:
    """The unique v with rows . v = 0 mod p and v[j] = anchors[j], read off
    the RREF of the system with the right-hand side as a last column and one
    unit row per anchor, or ColoringError when there is none or more: the
    reference for qfox.families.pretzel_m2_coloring, which rescales the one
    affine class of the kernel instead."""
    q = len(rows[0])
    system = [row + [0] for row in rows]
    for j, val in sorted(anchors.items()):
        unit = [0] * (q + 1)
        unit[j], unit[q] = 1, val
        system.append(unit)
    pivots, red = _row_reduce(system, p)
    if q in pivots:
        raise ColoringError("anchor constraints are inconsistent")
    if len(pivots) < q:
        raise ColoringError(f"anchors leave {q - len(pivots)} kernel degrees of freedom")
    return [r[q] for r in red[:q]]


def enumerate_colorings_brute(d, params) -> set[tuple[int, ...]]:
    """All colorings by exhaustive search over n^q assignments.

    Exponential; an independent oracle for the linear-algebra route, run
    only on tiny inputs.
    """
    q = len(d.arcs)
    out = set()
    for v in product(range(params.n), repeat=q):
        c = Coloring(params.n, params.m, dict(zip(d.arcs, v)))
        if verify_coloring(d, c):
            out.add(v)
    return out


def kernel_vectors(d, params) -> set[tuple[int, ...]]:
    """All colorings via the kernel (prime modulus): span of the basis."""
    mat = coloring_matrix(d, params)
    basis = kernel_basis(mat)
    p = params.n
    q = len(mat.arc_labels)
    out = set()
    for coeffs in product(range(p), repeat=len(basis)):
        v = [0] * q
        for c, b in zip(coeffs, basis):
            if c:
                for i, x in enumerate(b):
                    v[i] = (v[i] + c * x) % p
        out.add(tuple(v))
    return out


def orbit_representatives(d, params):
    """Yield one coloring vector per affine class of non-constant colorings,
    in the walk order of qfox.coloring._orbit_walk, as a list that is never
    changed after it is yielded.  Vectors are not in canonical form."""
    p = params.n
    basis = kernel_basis(coloring_matrix(d, params))
    if len(basis) < 2:
        return
    # The all-ones vector is the sum of the basis, so it can replace
    # basis[0]: affine classes are the projective classes of the rest.
    rest = basis[1:]
    last = rest[-1]
    # Projective class j: coefficient 1 on rest[j], 0 before it, and every
    # coefficient tuple after it in product order, the last one fastest.
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


def first_minimum(d, params) -> tuple[int, tuple[int, ...]] | None:
    """The fewest colors over orbit_representatives and the canonical form
    of the first representative attaining them, or None."""
    best = None
    for v in orbit_representatives(d, params):
        count = len(set(v))
        if best is None or count < best[0]:
            best = (count, v)
    return None if best is None else (best[0], _affine_canonical(best[1], params.n))


def first_all_distinct(d, params) -> tuple[int, ...] | None:
    """The canonical form of the first of orbit_representatives with
    pairwise distinct colors, or None."""
    for v in orbit_representatives(d, params):
        if len(set(v)) == len(v):
            return _affine_canonical(v, params.n)
    return None


def pivot_rows_fraction(rows: list[list[int]]) -> tuple[list[int], Fraction]:
    """Original indices of a maximal independent row set, chosen by Gaussian
    elimination over Fraction in row order, and the product of the pivots."""
    m = [[Fraction(v) for v in r] for r in rows]
    orig = list(range(len(m)))
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    product_of_pivots = Fraction(1)
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        orig[r], orig[sel] = orig[sel], orig[r]
        for i in range(r + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(orig[r])
        product_of_pivots *= m[r][col]
        r += 1
    return pivots, product_of_pivots


def smallest_prime_factor(n: int) -> int | None:
    """Smallest prime factor of n >= 2: trial division, then, for an n that
    is not prime, the rho search of qfox.bounds._rho_smallest_prime_factor.
    None when that runs out of budget before n is split into primes."""
    if n < 2:
        raise BoundsError(f"no prime factor of {n}")
    f = bounds._trial_factor(n)
    if f is not None:
        return f
    return n if bounds._is_prime(n) else bounds._rho_smallest_prime_factor(n)


def markowitz_inverse(rows: list[dict[int, int]], p: int) -> tuple[int, list[tuple[int, int]]]:
    """Determinant mod p of a square matrix of rows {column: non-zero value},
    by elimination with Markowitz pivoting, each target row reduced by the
    inverse of the pivot, and the (row, column) pivots in elimination
    order.  A singular matrix gives 0 and a shorter order.

    The pivot rule is qfox.sparse's: the shortest row, then its sparsest
    columns, then an entry +-2^s, then the lowest column.  It tests each
    entry as the fraction-free elimination holds it, the entry here times
    its row's scale: the product of the held values of the pivots that
    cleared the row and are not +-2^s, since only those scale a row."""
    shifts = {sign * 2**s % p for s in range(p.bit_length()) for sign in (1, -1)}
    rows = [dict(r) for r in rows]
    scale = [1] * len(rows)
    in_col: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            in_col.setdefault(j, set()).add(i)
    live = set(range(len(rows)))
    order = []
    det = 1
    while live:
        i = min(live, key=lambda i: (len(rows[i]), i))
        piv_row = rows[i]
        if not piv_row:
            return 0, order
        j = min(piv_row, key=lambda j: (len(in_col[j]), scale[i] * piv_row[j] % p not in shifts, j))
        live.discard(i)
        for jj in piv_row:
            in_col[jj].discard(i)
        order.append((i, j))
        pv = piv_row[j]
        held = scale[i] * pv % p
        det = det * pv % p
        inv = pow(pv, -1, p)
        for k in list(in_col[j]):
            r = rows[k]
            if held not in shifts:
                scale[k] = scale[k] * held % p
            f = r[j] * inv % p
            for jj, v in piv_row.items():
                x = (r.get(jj, 0) - f * v) % p
                if x:
                    if jj not in r:
                        in_col[jj].add(k)
                    r[jj] = x
                elif jj in r:
                    del r[jj]
                    in_col[jj].discard(k)
    cols = [j for _, j in sorted(order)]
    inversions = sum(a > b for a, b in combinations(cols, 2))
    return (-1) ** inversions * det % p, order


def validate(d: Diagram) -> list[str]:
    """Return a list of invariant violations; empty means valid."""
    problems: list[str] = []
    arcs = set(d.arcs)
    if sorted(d.arcs) != list(d.arcs):
        problems.append("arc labels are not sorted")
    if d.components < 1:
        problems.append("component count must be >= 1")
    ins: dict[int, int] = {a: 0 for a in d.arcs}
    outs: dict[int, int] = {a: 0 for a in d.arcs}
    for i, c in enumerate(d.crossings):
        if c.sign not in (1, -1):
            problems.append(f"crossing {i}: sign {c.sign} is not +-1")
        for role, arc in (("under_in", c.under_in), ("over", c.over), ("under_out", c.under_out)):
            if arc not in arcs:
                problems.append(f"crossing {i}: {role} references unknown arc {arc}")
        if c.under_in in ins:
            ins[c.under_in] += 1
        if c.under_out in outs:
            outs[c.under_out] += 1
    for a in d.arcs:
        if ins.get(a) != 1:
            problems.append(f"arc {a} is under_in of {ins.get(a, 0)} crossings, expected 1")
        if outs.get(a) != 1:
            problems.append(f"arc {a} is under_out of {outs.get(a, 0)} crossings, expected 1")
    if d.crossings and len(d.arcs) != len(d.crossings):
        problems.append(
            f"{len(d.arcs)} arcs for {len(d.crossings)} crossings"
        )
    return problems


def base_m_digits(p: int, m: int) -> list[int]:
    """Digits d_0..d_r of p in base m, least significant first, d_r >= 1."""
    if p < 1:
        raise BoundsError(f"digit expansion needs a positive integer, got {p}")
    if m < 2:
        raise BoundsError(f"digit expansion needs base >= 2, got {m}")
    digits = []
    while p:
        p, d = divmod(p, m)
        digits.append(d)
    return digits


def prime_scan_reference(poly: LaurentPoly, m_from: int, m_to: int) -> list[tuple[int, int]]:
    """Every (m, value) with m_from <= m <= m_to and value an odd prime,
    testing each value."""
    values = [(m, poly.evaluate(m)) for m in range(m_from, m_to + 1)]
    return [(m, v) for m, v in values if is_odd_prime(v)]


def strong_lucas_uv(n: int) -> bool:
    """Strong Lucas test of odd n > 1 with Selfridge's parameters, on the
    chain of U_k, V_k and Q^k by the doubling formulas, with a halving for
    each 1 bit of k where n + 1 = k 2^s."""
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    k = (n + 1) >> s
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (d * u + v) % n
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def hironaka_quotient(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of P(p,q,-2) as the rational-form quotient:
    (1 + 2t + t^(1+p) + t^(1+q) - t^3 - t^(p+q) + t^(p+2) + t^(q+2)
     + 2t^(p+q+2) + t^(3+p+q)) / (1+t)^3."""
    num = LaurentPoly.from_terms(
        [(0, 1), (1, 2), (1 + p, 1), (1 + q, 1), (3, -1), (p + q, -1),
         (p + 2, 1), (q + 2, 1), (p + q + 2, 2), (p + q + 3, 1)]
    )
    den = LaurentPoly((1, 1), 0)
    return exact_div(num, den * den * den)
