"""Colorings of diagrams by linear quandles on Z_n.

The quandle operation is x * y = m x + (1 - m) y (mod n) with m a unit of
Z_n; m = -1 gives the dihedral operation 2y - x.  Colorings of a diagram
are exactly the kernel vectors of the relation pencil (alexander_matrix)
at t = m, reduced mod n, so for prime n everything reduces to linear
algebra over a field: the kernel is read off the column-ordered sparse
echelon form of qfox.sparse by back substitution, and the collapse checks,
which sum the pencil at t = m per color class, take their pivot rows and
det B from the same elimination, run mod a prime above twice a Hadamard
bound on the collapsed matrix.

Minimum-color search walks the non-trivial kernel vectors up to the affine
action  v -> a v + b  (a unit, b anything), which preserves both validity
and the number of distinct colors.  It visits one vector per affine class,
a line at a time: the p classes  x + c * step,  c = 0..p-1, where step is
the last basis vector and x runs over the prefixes.  For p < 128 a prefix
is one int with a byte per arc, so a step to the next is one packed
addition mod p; at larger p it is a plain list of colors.  Arcs with
equal coordinates in step keep the differences of their colors along a
line, so the largest such group's number of colors bounds every class on
the line from below: the minimum search skips a line whose bound reaches
the best count so far, which does not change the class found.  A KH
request never walks a line: at p = value(m) the kernel leaves one class
(see kh_witness).

The prefixes come in runs of p, x + c * inner with inner the last prefix
vector, and across a run each group moves along a line of its own.  So one
count per group, made as a line is counted below, bounds all p prefixes of
a run at once: a run whose weakest bounds are turned down is skipped whole,
and only the prefixes still taken are stepped to.  No group is counted
where the most a group count could show, the largest group's size, would
not turn a line down, and the first p prefixes that need bounds, which
cost about as much as building the run counter, take one set per group.

For p < 128 the colors of a whole line are counted at once.
For each coordinate s of step, a pattern of p rows of 2p bits, each padded
to whole bytes, has bits (c s mod p) and (c s mod p) + p set in row c.  On
a line with base x, the OR of pattern[s] << a over the pairs (s, a) of step
coordinate and color of x holds, in bits p..2p-1 of row c, exactly the
colors of x + c * step: since a < p, one copy of (c s + a) mod p lands there
and the other lands in bits 0..p-1 of row c, in its padding, or in bits
0..p-1 of row c + 1, none of which is read.  The row counts come from a few
operations on the whole mask.  The patterns take at most
(distinct s) * 127 * 256 bits per search.  The pairs are ORed in order of
step coordinate, and after 60% of them the fewest colors in a row of the
partial mask bound every class of the line from below as well: the minimum
search skips the rest of a line there when that bound reaches the best
count.  The partial mask is counted only where it could: with k pairs in
it, no row has more than k colors, so while the best count exceeds k the
check is left out.

At larger p a line is counted from where arc colors meet.  Two arcs with step
coordinates s != t and colors a, b in x meet at the one offset
c = (b - a) / (s - t) mod p, and arcs with equal step coordinates never
meet.  Grouping the meetings by offset and color gives each class's count,
and every offset without a meeting has all of the line's colors, so a line
takes O(q^2) steps for q arcs whatever p is.

A search with lines at p >= 2^63 would walk more than 2^63 classes and
raises ColoringError instead.  Only the returned witness is put in
canonical form: first entry 0, first entry differing from it 1.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from itertools import combinations
from math import gcd, isqrt
from operator import itemgetter

from .diagram import Diagram
from .errors import ColoringError
from .laurent import alexander_matrix, first_minor, reduce_normalize
from .bounds import is_odd_prime, kl_lower_bound
from .sparse import echelon, pencil_at, pivot_minor


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
    """The relation matrix with t = m, reduced mod n, as one row
    {column: non-zero value} per crossing."""

    rows: list[dict[int, int]]
    modulus: int
    arc_labels: tuple[int, ...]


def coloring_matrix(d: Diagram, params: QuandleParams) -> ModMatrix:
    """Relation matrix over Z_n whose kernel is the space of colorings: the
    relation pencil of alexander_matrix at t = m."""
    rows = pencil_at(alexander_matrix(d).rows, params.m, params.n)
    return ModMatrix(rows=rows, modulus=params.n, arc_labels=tuple(d.arcs))


# ---------------------------------------------------------------------------
# Linear algebra over Z_p
# ---------------------------------------------------------------------------


def kernel_basis(mat: ModMatrix) -> list[tuple[int, ...]]:
    """Basis of the null space over Z_p, p = 2 or an odd prime, one vector
    per free column: 1 on its own free column and 0 on the others."""
    p = mat.modulus
    if not is_odd_prime(p) and p != 2:
        raise ColoringError(f"kernel computation needs a prime modulus, got {p}")
    pivots, reduced, _ = echelon(mat.rows, p)
    ncols = len(mat.arc_labels)
    pivot_cols = {j for _, j in pivots}
    free = [f for f in range(ncols) if f not in pivot_cols]
    if not free:
        return []
    # columns[j] is coordinate j of every basis vector.  The pivot columns
    # come by back substitution, last first, so each pivot is inverted once.
    columns = {f: [int(i == k) for i in range(len(free))] for k, f in enumerate(free)}
    zero = [0] * len(free)
    for (_, j), row in zip(reversed(pivots), reversed(reduced)):
        # columns has no entry at j yet, and a row's other columns come after j.
        acc = zero
        for jj, x in row.items():
            if jj != j:
                acc = [a + x * v for a, v in zip(acc, columns[jj])]
        scale = -pow(row[j], -1, p)
        columns[j] = [a * scale % p for a in acc]
    return list(zip(*[columns[j] for j in range(ncols)]))


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
    return tuple([((x - base) * scale) % p for x in v])


def _pack(v: Sequence[int]) -> int:
    """One int holding the colors v[i] < 256 in byte i."""
    return int.from_bytes(bytes(v), "little")


def _mod_adder(p: int, q: int):
    """Byte-by-byte addition mod p < 128 of packed vectors of q colors.  A
    byte of the sum is below 2p < 256; adding 128 - p to it sets its top
    bit exactly when it is >= p, and p is taken off those bytes."""
    ones = _pack([1] * q)
    high = ones << 7
    offset = ones * (128 - p)

    def add(x: int, y: int) -> int:
        s = x + y
        return s - (((s + offset) & high) >> 7) * p

    return add


def _without_constants(basis: list[tuple[int, ...]], p: int) -> list[tuple[int, ...]]:
    """basis[1:], whose projective classes are the affine classes of
    non-constant colorings: each basis vector is 1 on its own free column
    and 0 on the other free columns, so the all-ones vector, always in the
    kernel, is the sum of the basis and can replace basis[0]."""
    if any(sum(col) % p != 1 for col in zip(*basis)):
        raise ColoringError("internal inconsistency: constant vectors not in kernel")
    return basis[1:]


def _orbit_walk(d: Diagram, params: QuandleParams, walk_line):
    """Yield (offsets, counts, colors, step) for runs of affine classes of
    non-constant colorings, in walk order: counts[i] is the number of colors
    of the class colors + offsets[i] * step.  Each run is a line of
    _walk_lines, and lines whose lower bound walk_line(lower) turns down are
    left out; the last run is the class of rest[-1] alone.  A class of a
    line missing from offsets has max(counts) colors and follows a listed
    class with that many, so the first class of a run with a given count is
    always listed.  When walk_line takes a bound, it must also take every
    lower one, and a bound it turns down must stay turned down for the rest
    of the walk: one answer can skip a whole run of lines.  At p >= 2^63,
    where a line alone is more than 2^63 classes, a search with lines
    raises ColoringError."""
    p = params.n
    rest = _without_constants(kernel_basis(coloring_matrix(d, params)), p)
    if not rest:
        return
    if len(rest) > 1:
        if p >> 63:
            raise ColoringError(f"orbit search at p={p} would walk at least 2^63 affine classes")
        yield from _walk_lines(rest, p, walk_line)
    yield (0,), [len(set(rest[-1]))], rest[-1], rest[-1]


def _walk_lines(rest: list[tuple[int, ...]], p: int, walk_line):
    """The lines of _orbit_walk: step is rest[-1], and colors the line's
    base as counted, bytes for p < 128 and a list otherwise.  Projective
    class j has coefficient 1 on rest[j], 0 before it, and every coefficient
    tuple after it in product order, the last one fastest: for each prefix
    x = rest[j] + c . rest[j+1:-1] it is the line of p classes
    x + c * rest[-1], c = 0..p-1.

    Along a line, arcs with equal coordinates in rest[-1] move by the same
    amount, so each such group keeps its number of distinct colors.  The
    largest is a lower bound on the count of every class on the line;
    walk_line(lower) says whether to walk the line.  For p < 128 a prefix is
    packed a byte per arc, and a walked line is counted by _bitmask_lines,
    which may turn it down on a second bound; at larger p a prefix is a
    color list, and _meeting_lines counts.

    The prefixes come in runs of p, base + c * inner for c = 0..p-1, where
    inner = rest[-2] is the innermost prefix vector, and each group moves
    along a line of its own across a run.  So one count per group
    (_group_runs) gives the group bounds of every prefix of a run at once;
    where walk_line turns down the run's weakest bound, the whole run is
    skipped, and otherwise only the prefixes whose bounds it still takes
    are stepped to.  Before any group is counted, walk_line is asked about
    the strongest bound a count could give, the largest group's size: where
    it takes that, it takes every prefix's bound, and none is counted.
    Building the run counter costs about p prefix bounds, so runs are
    bounded a prefix at a time, with one set per group, until p prefixes
    have been, and so is the lone last prefix."""
    q = len(rest[-1])
    bitmask = p < 128
    if bitmask:
        add, read = _mod_adder(p, q), lambda x: x.to_bytes(q, "little")
        prefixes = [_pack(v) for v in rest[:-1]]
    else:
        add, read = lambda x, y: [(a + b) % p for a, b in zip(x, y)], list
        prefixes = rest[:-1]
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(rest[-1]):
        groups.setdefault(c, []).append(i)
    shared = [g for g in groups.values() if len(g) > 1]
    getters = [itemgetter(*g) for g in shared]
    probe = max(map(len, shared), default=1)
    count_line = (_bitmask_lines if bitmask else _meeting_lines)(rest[-1], p)
    group_runs = None
    bounded = 0         # prefixes bounded one at a time
    inner = prefixes[-1]
    for j in range(len(prefixes)):
        # The bases of the runs step through the other digits of the prefix;
        # the last prefix of all, rest[-2] itself, is a run of one.
        outer = prefixes[j + 1:-1]
        size = p if j < len(prefixes) - 1 else 1
        digits = [0] * len(outer)
        base = prefixes[j]
        while True:
            lowers = one_by_one = None
            x, at = base, 0     # the prefix stepped to last, base + at * inner
            for c in range(size):
                by_sets = False
                if lowers is None and not walk_line(probe):
                    if not shared:
                        break       # the probe is every prefix's bound
                    if one_by_one is None:
                        one_by_one = bounded < p or size == 1
                    if one_by_one:
                        bounded += 1
                        by_sets = True
                    else:
                        if group_runs is None:
                            group_runs = _group_runs(shared, rest[-2], p, bitmask)
                        per_group = group_runs(read(base))
                        if not walk_line(max(map(min, per_group))):
                            break
                        lowers = [max(t) for t in zip(*per_group)]
                if lowers is not None and not walk_line(lowers[c]):
                    continue
                while at < c:
                    x = add(x, inner)
                    at += 1
                colors = read(x)
                if by_sets:
                    if not walk_line(max([len(set(get(colors))) for get in getters])):
                        continue
                run = count_line(colors, walk_line)
                if run is not None:
                    yield *run, colors, rest[-1]
            # The next base.  A coefficient that wraps from p - 1 to 0 has
            # had its vector added p times, which is 0 mod p.
            i = len(outer) - 1
            while i >= 0:
                base = add(base, outer[i])
                digits[i] += 1
                if digits[i] < p:
                    break
                digits[i] = 0
                i -= 1
            if i < 0:
                break


def _group_runs(groups: list[list[int]], inner: Sequence[int], p: int, bitmask: bool):
    """For groups of arcs and the innermost prefix vector of _walk_lines, a
    function of the colors of a run's base x that gives, for each group,
    the number of colors of the group in x + c * inner for c = 0..p-1.  A
    group moves along a line of its own, so it is counted as a line is.
    With bitmask (p < 128) all groups share one mask of row patterns, group
    k in rows k p .. k p + p - 1: the copy that a row's pattern shifts past
    its read bits lands in bits 0..p-1 of the next row, which are not read.
    Otherwise each group is counted from its meetings."""
    if bitmask:
        arcs = [i for g in groups for i in g]
        patterns = _row_patterns([inner[i] for i in arcs], p)
        block = p * ((2 * p + 7) // 8) * 8
        shifted = [patterns[inner[i]] << k * block for k, g in enumerate(groups) for i in g]
        colors = _getter(arcs)
        row_counts = _row_counter(p, p * len(groups))
        starts = range(0, p * len(groups), p)

        def count(fields) -> list[bytes]:
            mask = 0
            for pattern, a in zip(shifted, colors(fields)):
                mask |= pattern << a
            counts = row_counts(mask)
            return [counts[k:k + p] for k in starts]

        return count

    parts = [(get, _meeting_lines(get(inner), p)) for get in map(_getter, groups)]

    def count(fields) -> list[list[int]]:
        runs = []
        for get, count_group in parts:
            # The meeting count takes no walk_line.
            offsets, counts = count_group(get(fields), None)
            full = [max(counts)] * p
            for c, k in zip(offsets, counts):
                full[c] = k
            runs.append(full)
        return runs

    return count


# The share of a line's arcs in the partial mask of _bitmask_lines.
_PARTIAL = 0.6


def _bitmask_lines(steps: Sequence[int], p: int):
    """For p < 128, a function of the colors of a line's base x and of
    walk_line that gives (range(p), counts) for the classes x + c * step, or
    None.  The (step coordinate, color) pairs of the arcs, ordered by step
    coordinate, are ORed into one mask of shifted row patterns (see the
    module docstring).  After the first cut of them, a share _PARTIAL of
    the arcs, the least row count of the partial mask bounds every class on
    the line from below; walk_line(lower) can turn the line down there,
    before the rest is ORed in.  Each row of the partial mask has at most
    cut colors, so where walk_line takes cut, no partial count can turn the
    line down, and none is made."""
    patterns = _row_patterns(steps, p)
    row_counts = _row_counter(p, p)
    cut = max(1, int(len(steps) * _PARTIAL))
    offsets = range(p)
    split = None

    def count(fields, walk_line):
        nonlocal split
        mask = 0
        if walk_line(cut):
            for s, a in zip(steps, fields):
                mask |= patterns[s] << a
            return offsets, list(row_counts(mask))
        # The arcs in order of step coordinate, split at cut: made on the
        # first line that needs them, which a search of one line never has.
        if split is None:
            order = sorted(range(len(steps)), key=steps.__getitem__)
            first, second = _getter(order[:cut]), _getter(order[cut:])
            split = first, first(steps), second, second(steps)
        first, first_steps, second, second_steps = split
        for s, a in zip(first_steps, first(fields)):
            mask |= patterns[s] << a
        if not walk_line(min(row_counts(mask))):
            return None
        for s, a in zip(second_steps, second(fields)):
            mask |= patterns[s] << a
        return offsets, list(row_counts(mask))

    return count


def _getter(indices: list[int]):
    """itemgetter(*indices), but giving a sequence for any number of
    indices."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda v: [v[i] for i in indices]


def _row_patterns(steps: Sequence[int], p: int) -> dict[int, int]:
    """For each coordinate s of steps, p rows of 2p bits, each padded to
    whole bytes, row c with bits (c s mod p) and (c s mod p) + p set: a
    join of p precomputed rows, O(p) steps per pattern."""
    size = (2 * p + 7) // 8
    rows = [((1 << r) | (1 << (r + p))).to_bytes(size, "little") for r in range(p)]
    return {
        s: int.from_bytes(b"".join([rows[c * s % p] for c in range(p)]), "little")
        for s in set(steps)
    }


# The number of set bits of each byte value.
_POPCOUNT = bytes(bin(b).count("1") for b in range(256))


def _row_counter(p: int, rows: int):
    """For p < 128, a function giving the bytes of the counts of a mask of
    `rows` shifted row patterns: the set bits in p..2p-1 of each row.  The
    other bits are cleared, each byte replaced by its number of set bits,
    and the bytes of a row summed by one multiplication into the byte that
    holds that row's bit 2p - 1.  Each byte of the product sums as many
    consecutive bytes as a row spans, which hold at most the 2p < 256 bits
    of two rows, so no sum carries."""
    size = (2 * p + 7) // 8
    window = int.from_bytes(((1 << 2 * p) - (1 << p)).to_bytes(size, "little") * rows, "little")
    first, last = p // 8, (2 * p - 1) // 8
    ones = int.from_bytes(b"\1" * (last - first + 1), "little")
    n = rows * size

    def counts(mask: int) -> bytes:
        bits = int.from_bytes((mask & window).to_bytes(n, "little").translate(_POPCOUNT), "little")
        return (bits * ones).to_bytes(n + size, "little")[last:n:size]

    return counts


def _meeting_lines(steps: Sequence[int], p: int):
    """A function of the colors of a line's base x (and of walk_line, not
    used) that gives compact (offsets, counts) for the classes x + c * step.
    Two arcs with step coordinates s != t and colors a, b take one color at
    exactly one offset, c = (b - a) / (s - t) mod p; arcs with equal step
    coordinates never meet unless their colors are equal.  So a class has
    the line's distinct (s, a) pairs as colors, less k - 1 for each color
    where k > 1 pairs meet, which shows as k (k - 1) / 2 meetings: every c
    without a meeting has all the pairs' colors.  The offsets are those
    with meetings and the first without, in order, so O(q^2) steps count a
    line at any p."""
    values = set(steps)
    inverse = {d: pow(d, -1, p) for d in {t - s for s in values for t in values if s < t}}

    def count(fields, walk_line):
        pairs = sorted(set(zip(steps, fields)))
        # Each meeting as c * p + its color; in sorted pairs s <= t.
        meetings = Counter([
            (c := (a - b) * inverse[t - s] % p) * p + (a + c * s) % p
            for (s, a), (t, b) in combinations(pairs, 2) if s != t
        ])
        lost: dict[int, int] = {}
        for key, k in meetings.items():
            c = key // p
            lost[c] = lost.get(c, 0) + (isqrt(8 * k + 1) - 1) // 2
        offsets = sorted(lost)
        counts = [len(pairs) - lost[c] for c in offsets]
        free = next((i for i, c in enumerate(offsets) if i != c), len(offsets))
        if free < p:
            offsets.insert(free, free)
            counts.insert(free, len(pairs))
        return offsets, counts

    return count


def min_colors_on_diagram(d: Diagram, params: QuandleParams) -> tuple[int, Coloring]:
    """Fewest distinct colors over all non-trivial colorings of this diagram.

    Raises when no non-trivial coloring exists, and when a knot's minimum is
    below the Kauffman-Lopes bound, which the theory forbids.  The returned
    witness is the canonical form of the first representative attaining the
    minimum.
    """
    best: tuple[int, Sequence[int], Sequence[int], int] | None = None
    # A line whose lower bound reaches the best count holds no class with
    # fewer colors, so skipping it keeps the first minimum as the witness.
    for offsets, counts, colors, step in _orbit_walk(
        d, params, lambda lower: best is None or lower < best[0]
    ):
        count = min(counts)
        if best is None or count < best[0]:
            best = (count, colors, step, offsets[counts.index(count)])
    if best is None:
        raise ColoringError(
            f"no non-trivial coloring of {d.name or 'diagram'} for n={params.n}, m={params.m}"
        )
    count, colors, step, c = best
    p, m = params.n, params.m
    # Links are left out: a split link has 2-color colorings.  A knot colored
    # non-trivially has m not 0 or 1 mod p, so max(|m|, |m - 1|) >= 2.
    if d.components == 1:
        kl = kl_lower_bound(p, m)
        if count < kl:
            raise ColoringError(
                f"internal inconsistency: {count} colors is below the "
                f"Kauffman-Lopes bound {kl} for p={p}, m={m}"
            )
    v = [(a + c * s) % p for a, s in zip(colors, step)]
    return count, Coloring(p, m, dict(zip(d.arcs, _affine_canonical(v, p))))


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

    At such a p the kernel has dimension 2, so no class is walked.  At
    t = m the first minor is +-m^j value(m) for a knot and
    +-m^j (1 - m) value(m) for a link, and 1 < m < p, so p divides it
    exactly once.  The Smith invariants d_1 | ... | d_n of the integer
    matrix A + mB have d_n = 0, as the constants color, and d_1 ... d_(n-1),
    the gcd of the first minors, divides this one.  So p divides at most one
    of d_1 .. d_(n-1), and A + mB has rank at least n - 2 mod p.  Every
    first minor is +-m^i times this one, so p divides them all and the rank
    is n - 2: the kernel holds the constants and one affine class, returned
    in canonical form when its colors are pairwise distinct.  Any other
    kernel dimension raises ColoringError as an internal inconsistency.
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
    basis = kernel_basis(coloring_matrix(d, params))
    if len(basis) != 2:
        raise ColoringError(
            f"internal inconsistency: kernel dimension {len(basis)} at p = value(m) = {p}"
        )
    (v,) = _without_constants(basis, p)
    if len(set(v)) < len(v):
        return None
    return Coloring(p, m, dict(zip(d.arcs, _affine_canonical(v, p))))


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
    # entries of the relation pencil at t = m are summed class by class.
    class_of: dict[int, int] = {}
    for arc in d.arcs:
        class_of.setdefault(coloring.colors[arc], len(class_of))
    column_class = [class_of[coloring.colors[arc]] for arc in d.arcs]
    merged = []
    for row in alexander_matrix(d).rows:
        out: dict[int, int] = {}
        for j, a, b in row:
            k = column_class[j]
            out[k] = out.get(k, 0) + a + b * m
        merged.append({k: x for k, x in out.items() if x})

    pivots, det_b = pivot_minor(merged)
    if len(pivots) != dcount - 1:
        raise ColoringError(
            f"collapsed matrix has rank {len(pivots)}, expected {dcount - 1}"
        )
    # Rows that sum to 0 make the last column minus the sum of the others,
    # so the pivot columns are the first d-1, and det_b is det B: B is the
    # pivot rows, in elimination order, without the last column.
    for i in pivots:
        if sum(merged[i].values()) != 0:
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
