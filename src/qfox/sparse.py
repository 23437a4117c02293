"""Sparse elimination modulo a prime, in two routines: the determinant of an
integer pencil A + tB by evaluation modulo one Mersenne prime, and a
column-ordered echelon form for kernels and the pivots and determinant of
an integer matrix.

A pencil row is a list of (column, a, b) triples, one per entry a + b*t that
is not identically zero; columns are numbered 0..n-1.  Each elimination
reads the pencil at one t through pencil_at, as rows {column: value
non-zero mod p}.  The determinant at that t is taken by _markowitz:
fraction-free elimination modulo a Mersenne prime p = 2^e - 1, pivoting by
Markowitz's rule (the shortest remaining row, then its sparsest columns),
where among those columns an entry +-2^s comes first, then the lowest
column, and a product is reduced by folding, (x & p) + (x >> e), instead
of by division.  Since 2^-s = 2^(e-s) mod p, a pivot +-2^s clears a row
as row + f * pivot row with f a rotation of the row's entry, at one
product per pivot-row entry and no change to the determinant; at t = 2^K
the relation entries t and -1 are such pivots.  A general pivot pv clears
each of its targets as pv * row - v * pivot row, and only its targets past
the first leave a factor pv to divide out, so one inverse runs at the end
only where a general pivot had two or more targets.  Counted minor by
minor over the first minors evaluated at the one point below, it runs on
no P(-2,3,a) minor (those are a <= 53) and no T(2,n) minor (n <= 57), and
once on every T(a,b) minor with a >= 3.  Every pivot it takes is non-zero
mod p, so the determinant mod p is exact whatever the order.

Most pencils are evaluated at one point, t = 2^K (Kronecker substitution),
by one such elimination.  On |t| = 1 every entry has |a + bt| <= |a| + |b|,
so by Hadamard's inequality |det(A + tB)| < H = isqrt(prod_i sum_j
(|a_ij| + |b_ij|)^2) + 1 there, and every coefficient, a Fourier
coefficient of det on the unit circle, is below H as well.  With
K = bits(H) + 2 each coefficient lies in (-2^(K-2), 2^(K-2)), so
|det(2^K)| < 2^(K(n+1) - 1); modulo the smallest tabulated Mersenne prime
above 2^(K(n+1) + 1) the symmetric lift of the residue is det(2^K) itself,
and its balanced base-2^K digits, each in [-2^(K-1), 2^(K-1)), are the
coefficients.  Past ONE_POINT_MAX_EXPONENT one wide evaluation costs more
than n + 1 narrow ones, so there the pencil is evaluated at t = 2, 3, ...,
n + 2, modulo the smallest tabulated Mersenne prime above twice the 1-norm
bound below, and Newton interpolation mod p gives the coefficients.  On
that path the pivot order is chosen once, by _markowitz at a generic point
modulo 2^61 - 1: the order is only a heuristic, since every replay checks
its pivots, so a word-size modulus serves every pencil.  The order is
compiled into a fixed sequence of the same fraction-free updates on a flat
value array, covering every entry the order can fill at any t, and the
sequence is replayed at each point; where a replayed pivot vanishes,
_markowitz at that t gives the value instead.  The relation entries t,
1 - t and -1 vanish at no such t, which is why the points start at 2.

echelon reads rows in that form too and takes the columns in increasing
order; a column's pivot is the first remaining row that is non-zero there,
swapped into place.  For a kernel any prime p will do, since back
substitution reads the basis off the echelon form.
pivot_minor runs it on an integer matrix.

Exactness rests on bounds, not on checked divisions, and on a fixed table
of Mersenne primes 2^e - 1 whose primality is proven (Lucas-Lehmer): the
modulus is the smallest of them above twice the bound, so no primality
test and no Chinese remaindering runs.  For a pencil at n + 1 points,
expanding the product over the rows of the sums of |a_ij| + |b_ij| covers
every term of the Leibniz expansion, so B = prod_i sum_j (|a_ij| + |b_ij|)
bounds the 1-norm of the coefficient vector of det(A + tB), and each
coefficient is the symmetric lift of its residue.  For an integer matrix,
Hadamard's inequality bounds every minor by the product of the Euclidean
norms of the min(rows, columns) largest non-zero rows.  Every entry a
column-ordered elimination meets is a ratio of two minors (the Bareiss
entries), so below that bound an entry vanishes mod p exactly when it
vanishes over the rationals: the modular run picks the pivots of the exact
one, and the product of its pivots, a minor, is the symmetric lift of its
residue.
"""

from __future__ import annotations

from math import isqrt, prod

from .errors import DiagramError

# Exponents e of the Mersenne primes 2^e - 1 from 2^61 - 1 up.
MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937,
)

# The point and the modulus of the ordering elimination past
# ONE_POINT_MAX_EXPONENT (see the module docstring).
_GENERIC_T = 0x9E3779B97F4A7C15
_ORDER_P = (1 << 61) - 1

# The largest Mersenne exponent evaluated at one point.  Whole first minors
# timed both ways (Python 3.11.7, 2-core Xeon, best of 5 runs): modulo
# 2^4253 - 1 and 2^4423 - 1, one point took 6-10 ms against 8-15 ms for
# n + 1 points (T(5,13), T(2,57), P(-2,3,53)); at the next exponent, 9689,
# it took 19-37 ms against 9-17 ms (T(2,59), T(2,61), P(-2,3,55)).
ONE_POINT_MAX_EXPONENT = 4423

# The interpolation points are t = _FIRST_T, ..., _FIRST_T + n.
_FIRST_T = 2

Row = list[tuple[int, int, int]]


def _mersenne_above(bound: int) -> int:
    """The smallest tabulated Mersenne prime above 2 * bound; DiagramError
    when the bound is past the table."""
    for e in MERSENNE_EXPONENTS:
        if (1 << e) - 1 > 2 * bound:
            return (1 << e) - 1
    raise DiagramError(
        f"determinant bound of {bound.bit_length()} bits is past "
        f"the largest tabulated modulus 2^{MERSENNE_EXPONENTS[-1]} - 1"
    )


def _symmetric(c: int, p: int) -> int:
    """The lift of a residue c mod p to (-p/2, p/2]."""
    return c - p if c > p // 2 else c


def pencil_modulus(rows: list[Row]) -> int:
    """The modulus for det(A + tB): the smallest tabulated Mersenne prime
    above twice its coefficient bound."""
    return _mersenne_above(prod(sum(abs(a) + abs(b) for _, a, b in row) for row in rows))


def pencil_at(rows: list[Row], t: int, p: int) -> list[dict[int, int]]:
    """The rows of A + tB mod p as {column: value non-zero mod p}."""
    return [{j: v for j, a, b in row if (v := (a + b * t) % p)} for row in rows]


def pencil_det(rows: list[Row]) -> list[int]:
    """The n + 1 coefficients of det(A + tB), lowest degree first, for a
    square pencil given as n rows of (column, a, b) triples: at one point
    while its modulus is at most 2^ONE_POINT_MAX_EXPONENT - 1, else at
    n + 1 points."""
    width = _digit_width(rows)
    if width * (len(rows) + 1) + 1 < ONE_POINT_MAX_EXPONENT:
        return _det_at_one_point(rows, width)
    return _det_at_points(rows)


def _digit_width(rows: list[Row]) -> int:
    """K = bits(H) + 2, where H = isqrt(prod_i sum_j (|a_ij| + |b_ij|)^2) + 1
    exceeds every coefficient of det(A + tB) (see the module docstring)."""
    h = isqrt(prod(sum((abs(a) + abs(b)) ** 2 for _, a, b in row) for row in rows)) + 1
    return h.bit_length() + 2


def _det_at_one_point(rows: list[Row], width: int) -> list[int]:
    """det(A + tB) from its value at t = 2^width modulo the smallest
    tabulated Mersenne prime above 2^(width * (n + 1) + 1), by one Markowitz
    elimination: the balanced base-2^width digits of the symmetric lift."""
    n = len(rows)
    p = _mersenne_above(1 << (width * (n + 1)))
    value = _symmetric(_markowitz(pencil_at(rows, 1 << width, p), p)[0], p)
    half, mask = 1 << (width - 1), (1 << width) - 1
    coeffs = []
    for _ in range(n + 1):
        coeffs.append(((value + half) & mask) - half)
        value = (value + half) >> width
    return coeffs


def _det_at_points(rows: list[Row]) -> list[int]:
    """det(A + tB) from its values at t = 2, 3, ..., n + 2 modulo
    pencil_modulus, by interpolation.  The values come from one compiled
    elimination in a Markowitz order taken mod _ORDER_P; a fresh Markowitz
    elimination mod p gives each value the replay cannot."""
    p = pencil_modulus(rows)
    order = _markowitz(pencil_at(rows, _GENERIC_T, _ORDER_P), _ORDER_P)[1]
    compiled = _compile(rows, order) if len(order) == len(rows) else None
    values = []
    for t in range(_FIRST_T, _FIRST_T + len(rows) + 1):
        v = _replay(compiled, t, p) if compiled else None
        values.append(_markowitz(pencil_at(rows, t, p), p)[0] if v is None else v)
    return [_symmetric(c, p) for c in _interpolate(values, p)]


def _perm_sign(order: list[tuple[int, int]]) -> int:
    """Sign of the permutation taking each pivot row to its pivot column."""
    col = dict(order)
    seen = set()
    sign = 1
    for start in col:
        if start in seen:
            continue
        i, length = start, 0
        while i not in seen:
            seen.add(i)
            i = col[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _shift(v: int, p: int) -> int:
    """For v = -2^s modulo the Mersenne prime p = 2^e - 1, r = e - s, so that
    -1/v = 2^r; for v = 2^s, -r, so that -1/v = -2^r; for any other v, 0."""
    if not v & (v - 1):
        return v.bit_length() - 1 - p.bit_length()
    w = p - v
    if not w & (w - 1):
        return p.bit_length() - w.bit_length() + 1
    return 0


def _markowitz(rows: list[dict[int, int]], p: int) -> tuple[int, list[tuple[int, int]]]:
    """Determinant mod the Mersenne prime p = 2^e - 1 of a square matrix of
    rows {column: value non-zero mod p}, by fraction-free elimination with
    Markowitz pivoting (see the module docstring), and the (row, column)
    pivots in elimination order.  A singular matrix gives 0 and a shorter
    order.  Each cleared row is a non-zero multiple of the row an
    elimination by the inverse of the pivot would leave, so the zero
    pattern is that elimination's.

    The pivot is in the shortest row, in one of its sparsest columns: an
    entry +-2^s if one of those holds one, then the lowest column.  A pivot
    pv = +-2^s clears target row k as row k + f * pivot row, where
    f = -v / pv is v rotated by e - s bits (2^-s = 2^(e-s) mod p), negated
    for pv = 2^s: one product per pivot-row entry, row k's other entries
    untouched and the matrix's determinant unchanged, so det takes pv.  A
    general pivot pv clears each of its t target rows as pv * row -
    v * pivot row, which multiplies the determinant by pv^t, while the
    pivot itself contributes pv to it: det / den changes by pv^(1 - t), so
    den takes pv^(t - 1) for t >= 1 (nothing for one target) and det takes
    pv for t = 0.  The inverse of den is taken once, at the end, only when
    den != 1."""
    e = p.bit_length()
    rows = [dict(r) for r in rows]
    in_col: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            in_col.setdefault(j, set()).add(i)
    live = set(range(len(rows)))
    order = []
    det = den = 1
    while live:
        i = min(live, key=lambda i: (len(rows[i]), i))
        piv_row = rows[i]
        if not piv_row:
            return 0, order
        j = min(piv_row, key=lambda j: (len(in_col[j]), not _shift(piv_row[j], p), j))
        live.discard(i)
        for jj in piv_row:
            in_col[jj].discard(i)
        order.append((i, j))
        pv = piv_row.pop(j)
        targets = in_col.pop(j)
        rot = _shift(pv, p)
        if rot or not targets:
            x = det * pv
            x = (x & p) + (x >> e)
            x = (x & p) + (x >> e)
            det = x - p if x >= p else x
        else:
            for _ in range(len(targets) - 1):
                x = den * pv
                x = (x & p) + (x >> e)
                x = (x & p) + (x >> e)
                den = x - p if x >= p else x
        for k in targets:
            r = rows[k]
            v = r.pop(j)
            if rot:
                # f = -v / pv: v, or p - v for pv = 2^s, rotated by |rot| bits
                a = 1
                x = (v if rot > 0 else p - v) << abs(rot)
                f = (x & p) + (x >> e)
            else:
                a, f = pv, p - v
                for jj, w in r.items():
                    if jj not in piv_row:
                        x = pv * w
                        x = (x & p) + (x >> e)
                        x = (x & p) + (x >> e)
                        r[jj] = x - p if x >= p else x
            for jj, w in piv_row.items():
                x = a * r.get(jj, 0) + f * w
                x = (x & p) + (x >> e)
                x = (x & p) + (x >> e)
                x = x - p if x >= p else x
                if x:
                    if jj not in r:
                        in_col[jj].add(k)
                    r[jj] = x
                elif jj in r:
                    del r[jj]
                    in_col[jj].discard(k)
    if den != 1:
        det = det * pow(den, -1, p) % p
    return _perm_sign(order) * det % p, order


def _compile(rows: list[Row], order: list[tuple[int, int]]):
    """The elimination in `order` as updates on a flat array of entries.

    Entries are placed by structure, never by value, so the array holds
    every entry that can be non-zero at any t.  A step clears the pivot
    column from each target row k without division: row k becomes
    pv * row k - v * pivot row, where v is its entry in the pivot column.
    Returns (the initial entries as (slot, a, b), the steps, the slot count,
    the sign of the pivot permutation); a step is (pivot slot, targets),
    and a target is (the slot of v, [(slot, pivot-row slot) for entries the
    pivot row also has], [slots the pivot row lacks, which are only
    scaled])."""
    slot: dict[tuple[int, int], int] = {}
    init = []
    cols = []
    in_col: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        cols.append({j for j, _, _ in row})
        for j, a, b in row:
            slot[i, j] = len(slot)
            init.append((slot[i, j], a, b))
            in_col.setdefault(j, set()).add(i)
    steps = []
    for i, j in order:
        piv_cols = cols[i] - {j}
        for jj in cols[i]:
            in_col[jj].discard(i)
        targets = []
        for k in in_col[j]:
            for jj in piv_cols - cols[k]:
                slot[k, jj] = len(slot)
                in_col[jj].add(k)
            cols[k] = (cols[k] | piv_cols) - {j}
            pairs = [(slot[k, jj], slot[i, jj]) for jj in piv_cols]
            scaled = [slot[k, jj] for jj in cols[k] - piv_cols]
            targets.append((slot[k, j], pairs, scaled))
        steps.append((slot[i, j], targets))
    return init, steps, len(slot), _perm_sign(order)


def _replay(compiled, t: int, p: int) -> int | None:
    """det(A + tB) mod the Mersenne prime p = 2^e - 1 by the compiled
    elimination; None when a pivot vanishes at this t.  Each target row
    scaled by a pivot pv puts one factor pv into `den`, which is divided out
    once at the end.  Values stay in [0, p): the subtracted term is
    (p - v) * w, and every product or sum of two products x < 2^(2e + 1) is
    reduced by folding, x = (x & p) + (x >> e) twice, which leaves
    x <= 2^e + 2, then one conditional subtraction of p."""
    init, steps, size, sign = compiled
    e = p.bit_length()
    vals = [0] * size
    for s, a, b in init:
        vals[s] = (a + b * t) % p
    det = sign % p
    den = 1
    for piv, targets in steps:
        pv = vals[piv]
        if not pv:
            return None
        x = det * pv
        x = (x & p) + (x >> e)
        x = (x & p) + (x >> e)
        det = x - p if x >= p else x
        for s, pairs, scaled in targets:
            v = vals[s]
            if v:
                x = den * pv
                x = (x & p) + (x >> e)
                x = (x & p) + (x >> e)
                den = x - p if x >= p else x
                nv = p - v
                for dst, src in pairs:
                    x = pv * vals[dst] + nv * vals[src]
                    x = (x & p) + (x >> e)
                    x = (x & p) + (x >> e)
                    vals[dst] = x - p if x >= p else x
                for dst in scaled:
                    x = pv * vals[dst]
                    x = (x & p) + (x >> e)
                    x = (x & p) + (x >> e)
                    vals[dst] = x - p if x >= p else x
    return det * pow(den, -1, p) % p


def _interpolate(values: list[int], p: int) -> list[int]:
    """Coefficients mod p of the polynomial f of degree <= n, where
    n + 1 = len(values), with f(t) = values[t - 2] at t = 2, 3, ..., n + 2:
    the Newton coefficients are the forward differences at 2 divided by k!,
    and the Newton form sum c_k (t-2)(t-3)...(t-k-1) is expanded by
    Horner's rule."""
    newton = []
    diffs = list(values)
    fact = 1
    for k in range(len(values)):
        if k:
            fact = fact * k % p
        newton.append(diffs[0] * pow(fact, -1, p) % p)
        diffs = [(b - a) % p for a, b in zip(diffs, diffs[1:])]
    coeffs: list[int] = []
    for k in range(len(newton) - 1, -1, -1):
        coeffs = [(a - (_FIRST_T + k) * b) % p for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] = (coeffs[0] + newton[k]) % p
    return coeffs


def echelon(
    rows: list[dict[int, int]], p: int
) -> tuple[list[tuple[int, int]], list[dict[int, int]], int]:
    """Forward elimination mod p of rows {column: value non-zero mod p},
    columns in increasing order.  A column's pivot is the first remaining row that is
    non-zero there, swapped into the place of the first remaining row; a
    column without one is skipped.  Returns the (row, column) pivots in
    elimination order, with row an index into `rows`; the pivot rows as
    eliminated, in the same order, each zero left of its pivot column; and
    the product of the pivots mod p."""
    rows = [dict(r) for r in rows]
    at = list(range(len(rows)))  # at[k] is the row in place k of the swapped order
    pivots: list[tuple[int, int]] = []
    reduced = []
    det = 1
    for j in sorted(set().union(*rows)):
        first = len(pivots)
        k = next((k for k in range(first, len(at)) if j in rows[at[k]]), None)
        if k is None:
            continue
        at[first], at[k] = at[k], at[first]
        i = at[first]
        piv_row = rows[i]
        pivots.append((i, j))
        reduced.append(piv_row)
        pv = piv_row[j]
        det = det * pv % p
        inv = pow(pv, -1, p)
        for k in at[first + 1:]:
            r = rows[k]
            if j not in r:
                continue
            f = r[j] * inv % p
            for jj, v in piv_row.items():
                x = (r.get(jj, 0) - f * v) % p
                if x:
                    r[jj] = x
                elif jj in r:
                    del r[jj]
    return pivots, reduced, det


def pivot_minor(rows: list[dict[int, int]]) -> tuple[list[int], int]:
    """The pivot rows of echelon on an integer matrix of rows {column:
    non-zero value}, in elimination order, and the determinant of those
    rows on the pivot columns (1 when there are none), in integers.

    The run is mod the smallest tabulated Mersenne prime above twice the
    Hadamard bound on every minor (see the module docstring)."""
    ncols = len(set().union(*rows))
    norms = sorted((sum(x * x for x in r.values()) for r in rows if r), reverse=True)
    p = _mersenne_above(isqrt(prod(norms[:ncols]) - 1) + 1)
    # Every entry is a minor, so it is non-zero mod p too.
    pivots, _, det = echelon(rows, p)
    return [i for i, _ in pivots], _symmetric(det, p)
