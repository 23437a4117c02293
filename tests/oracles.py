"""Reference computations kept as oracles for the tests.

None of them runs in the package.  First minors are computed by evaluation
and interpolation (qfox.laurent.det_pencil); det_bareiss and det_cofactor
compute the same polynomial directly, by fraction-free elimination over
Z[t] and by cofactor expansion.  alexander_matrix_reference builds the
relation matrix from LaurentPoly arithmetic, against the integer rows of
qfox.laurent.relation_rows and the AlexMatrix values at_0/at_1, and is the
source of every Z[t] matrix the tests need.  kernel_vectors lists every
coloring that the orbit search walks up to the affine action,
enumerate_colorings_brute lists them by exhaustive search, and rank reads
the rank of a mod-p matrix off its row reduction.  pivot_rows_fraction is
the Fraction elimination behind the integer one (qfox.laurent.bareiss) in
collapse_and_check.  arc_of_edge numbers arcs with a union-find of its own,
against build_diagram.  validate lists the invariants a built Diagram must
satisfy, and base_m_digits expands an integer in base m, the digit count
that qfox.bounds.floor_log computes without the digits.  hironaka_quotient
is the rational form of the pretzel polynomial, an exact division by
(1+t)^3, against the closed form of qfox.families.pretzel_alexander.
"""

from fractions import Fraction
from itertools import product

from qfox.coloring import (
    Coloring,
    ModMatrix,
    _require_prime_modulus,
    _row_reduce,
    coloring_matrix,
    kernel_basis,
    verify_coloring,
)
from qfox.diagram import Diagram, PdCode
from qfox.errors import BoundsError
from qfox.laurent import LaurentPoly, exact_div


def det_bareiss(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Fraction-free determinant over Z[t].  Entries must have min_exp >= 0."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    m = [list(r) for r in rows]
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, n):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = LaurentPoly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def det_cofactor(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by cofactor expansion.  Exponential; small matrices only."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return rows[0][0]
    acc = LaurentPoly.zero()
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
    t = LaurentPoly.t()
    one = LaurentPoly.one()
    rows = []
    for c in d.crossings:
        row = [LaurentPoly.zero()] * len(d.arcs)
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


def rank(mat: ModMatrix) -> int:
    _require_prime_modulus(mat.modulus)
    pivots, _ = _row_reduce([list(r) for r in mat.rows], mat.modulus)
    return len(pivots)


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
