"""Torus knots T(a,b) and pretzel knots P(-2,3,a): diagrams and formulas.

Diagrams are assembled from a port model: each crossing has four ports
UL, UR, LL, LR; the two strands through it are UL-LR and UR-LL, one of
which is flagged as the over-strand.  Connectors pair up ports, every
connector is one PD edge, and a traversal orients the result and numbers
edges consecutively along each component, which is exactly what the PD
parser expects.  Braid closures and the three-tower pretzel layout are
both thin wiring layers over this.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

from .bounds import BoundReport, improved_lower_bound, require_odd_prime
from .coloring import Coloring, QuandleParams, min_colors_on_diagram, verify_coloring
from .diagram import Diagram, PdCode, build_diagram, relabel_arcs
from .errors import BoundsError, DiagramError
from .laurent import LaurentPoly, exact_div, reduce_normalize

_OPP = {"UL": "LR", "LR": "UL", "UR": "LL", "LL": "UR"}
_STRAND = {"UL": "UL-LR", "LR": "UL-LR", "UR": "UR-LL", "LL": "UR-LL"}
# Counterclockwise port order starting at each port (UR 45deg, UL 135deg,
# LL 225deg, LR 315deg).
_CCW = {
    "UR": ("UR", "UL", "LL", "LR"),
    "UL": ("UL", "LL", "LR", "UR"),
    "LL": ("LL", "LR", "UR", "UL"),
    "LR": ("LR", "UR", "UL", "LL"),
}

Port = tuple[int, str]

# Family diagrams and polynomials are built up to this many crossings.  The
# determinant bound of a first minor passes the largest tabulated modulus
# near 10^4 crossings, which the CLI reports as an error; the cap stops a
# specifier such as torus:2,99999999999 before its braid word of b(a-1)
# letters or its dense polynomial of about ab coefficients is built.
MAX_CROSSINGS = 100_000


def _assemble(over_flags: list[str], connectors: list[tuple[Port, Port]]) -> PdCode:
    """Edges from connectors, orientation by traversal, PD tuples per crossing.

    Each (crossing, port) must occur exactly once across all connectors.
    The first endpoint listed second in connectors[0] seeds the traversal
    direction of its component; other components start at their
    lowest-index unvisited connector, toward its second endpoint.
    """
    n = len(over_flags)
    want = {(c, p) for c in range(n) for p in ("UL", "UR", "LL", "LR")}
    seen: dict[Port, int] = {}
    for idx, (e1, e2) in enumerate(connectors):
        for ep in (e1, e2):
            if ep not in want:
                raise DiagramError(f"connector references unknown port {ep}")
            if ep in seen:
                raise DiagramError(f"port {ep} wired twice")
            seen[ep] = idx
    if len(seen) != len(want):
        raise DiagramError("some crossing ports are left unwired")

    labels: dict[int, int] = {}
    entry: dict[tuple[int, str], str] = {}
    label = 1
    for e0 in range(len(connectors)):
        if e0 in labels:
            continue
        e, head = e0, connectors[e0][1]
        while e not in labels:
            labels[e] = label
            label += 1
            c, p = head
            entry[(c, _STRAND[p])] = p
            out = (c, _OPP[p])
            e = seen[out]
            a, b = connectors[e]
            head = b if a == out else a

    quads = []
    for c in range(n):
        under = "UR-LL" if over_flags[c] == "UL-LR" else "UL-LR"
        p0 = entry.get((c, under))
        if p0 is None or (c, _STRAND[_OPP[p0]]) not in entry:
            raise DiagramError(f"crossing {c} was not traversed on both strands")
        quads.append(tuple([labels[seen[(c, q)]] for q in _CCW[p0]]))
    return PdCode(tuple(quads))


# ---------------------------------------------------------------------------
# Braid closures
# ---------------------------------------------------------------------------


def braid_closure_pd(word: list[int]) -> PdCode:
    """PD code of the closure of a braid word.

    Letters are non-zero integers: +i is the generator crossing columns
    i, i+1 with the UR-LL strand over, -i its inverse.  Strands flow
    downward; the closure joins each column's bottom back to its top.  There
    are max|letter| + 1 strands, and a strand no letter crosses is rejected.
    """
    if not word or any(g == 0 for g in word):
        raise DiagramError("braid word must be non-empty with non-zero letters")
    n = max(abs(g) for g in word) + 1
    over = ["UR-LL" if g > 0 else "UL-LR" for g in word]
    connectors: list[tuple[Port, Port]] = []
    open_port: dict[int, Port] = {}
    first_port: dict[int, Port] = {}
    for j, g in enumerate(word):
        i = abs(g) - 1
        for col, in_port in ((i, "UL"), (i + 1, "UR")):
            if col in open_port:
                connectors.append((open_port[col], (j, in_port)))
            else:
                first_port[col] = (j, in_port)
        open_port[i] = (j, "LL")
        open_port[i + 1] = (j, "LR")
    for col in range(n):
        if col not in first_port:
            raise DiagramError(f"strand {col + 1} is never crossed; closure splits")
        connectors.append((open_port[col], first_port[col]))
    return _assemble(over, connectors)


def braid_closure(word: list[int], name: str = "") -> Diagram:
    return build_diagram(braid_closure_pd(word), name=name)


# ---------------------------------------------------------------------------
# Torus knots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusParams:
    """Coprime parameters, canonicalized to 2 <= a < b (signs stripped), of
    a knot with at most MAX_CROSSINGS crossings."""

    a: int
    b: int

    def __post_init__(self):
        a, b = abs(self.a), abs(self.b)
        if a > b:
            a, b = b, a
        if a < 2:
            raise DiagramError(f"T({self.a},{self.b}) is not a torus knot (|a| >= 2 needed)")
        if gcd(a, b) != 1:
            raise DiagramError(f"T({self.a},{self.b}) needs coprime parameters")
        if b * (a - 1) > MAX_CROSSINGS:
            raise DiagramError(
                f"T({self.a},{self.b}) has more than {MAX_CROSSINGS} crossings, "
                "the size limit of a family"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def name(self) -> str:
        return f"T({self.a},{self.b})"

    @property
    def crossing_number(self) -> int:
        # Murasugi: min{a(b-1), b(a-1)}, which is b(a-1) once a < b.
        return self.b * (self.a - 1)


def torus_braid_word(tp: TorusParams) -> list[int]:
    return [i for _ in range(tp.b) for i in range(1, tp.a)]


def torus_diagram(tp: TorusParams) -> Diagram:
    d = braid_closure(torus_braid_word(tp), name=tp.name)
    if d.components != 1:
        raise DiagramError(f"{tp.name} closure split into {d.components} components")
    return d


def torus_alexander(tp: TorusParams) -> LaurentPoly:
    """f(t^b)/f(t) with f = 1 + t + ... + t^(a-1), normalized."""
    a, b = tp.a, tp.b
    num = LaurentPoly.from_terms((i * b, 1) for i in range(a))
    den = LaurentPoly(tuple([1] * a), 0)
    return reduce_normalize(exact_div(num, den), components=1)


def torus_interval(tp: TorusParams) -> tuple[int, int]:
    """Combinatorial interval endpoints (c - (a-2), c), independent of m."""
    c = tp.crossing_number
    return c - (tp.a - 2), c


def torus_mincol_interval(tp: TorusParams, m: int) -> tuple[int, int, int]:
    """(lower, upper, p) with lower = c - (a-2), upper = c = crossing number.

    Needs m > 1 and p = poly(m) an odd prime; composite values raise with
    a factor so the caller can withhold the interval and fall back to the
    plain Kauffman-Lopes bound.
    """
    if m <= 1:
        raise BoundsError(f"torus interval needs m > 1, got {m}")
    p = torus_alexander(tp).evaluate(m)
    require_odd_prime(p)
    lo, hi = torus_interval(tp)
    return lo, hi, p


# ---------------------------------------------------------------------------
# Pretzel knots P(-2, 3, a)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PretzelParams:
    """Odd a >= 3; the knot P(-2, 3, a), with a + 5 <= MAX_CROSSINGS
    crossings."""

    a: int

    def __post_init__(self):
        # a = 1 is excluded: the closed-form polynomial degenerates there
        # (its value at 1 is 0, impossible for a knot).
        if self.a < 3 or self.a % 2 == 0:
            raise DiagramError(f"pretzel parameter must be odd and >= 3, got {self.a}")
        if self.a + 5 > MAX_CROSSINGS:
            raise DiagramError(
                f"{self.name} has more than {MAX_CROSSINGS} crossings, the size limit of a family"
            )

    @property
    def name(self) -> str:
        return f"P(-2,3,{self.a})"


def pretzel_alexander(pp: PretzelParams) -> LaurentPoly:
    """1 - t + sum_{i=3}^{a} (-1)^(i+1) t^i - t^(a+2) + t^(a+3)."""
    a = pp.a
    terms = [(0, 1), (1, -1), (a + 2, -1), (a + 3, 1)]
    terms += [(i, 1 if i % 2 == 1 else -1) for i in range(3, a + 1)]
    return reduce_normalize(LaurentPoly.from_terms(terms), components=1)


def _pretzel_connectors(pp: PretzelParams) -> tuple[list[str], list[tuple[Port, Port]]]:
    """Three vertical twist towers of 2, 3, a crossings, joined pretzel-wise."""
    sizes = (2, 3, pp.a)
    # The -2 tower twists opposite to the +3 and +a towers.
    flags = ("UL-LR", "UR-LL", "UR-LL")
    over: list[str] = []
    firsts: list[int] = []
    lasts: list[int] = []
    connectors: list[tuple[Port, Port]] = []
    c = 0
    for size, flag in zip(sizes, flags):
        firsts.append(c)
        for r in range(size):
            over.append(flag)
            if r > 0:
                connectors.append(((c - 1, "LL"), (c, "UL")))
                connectors.append(((c - 1, "LR"), (c, "UR")))
            c += 1
        lasts.append(c - 1)
    t1f, t2f, t3f = firsts
    t1l, t2l, t3l = lasts
    connectors += [
        ((t1f, "UL"), (t3f, "UR")),   # outer top arc
        ((t1f, "UR"), (t2f, "UL")),   # inner top arcs
        ((t2f, "UR"), (t3f, "UL")),
        ((t1l, "LL"), (t3l, "LR")),   # outer bottom arc
        ((t1l, "LR"), (t2l, "LL")),   # inner bottom arcs
        ((t2l, "LR"), (t3l, "LL")),
    ]
    return over, connectors


def pretzel_anchors(d: Diagram) -> tuple[int, int, int, int]:
    """The arcs (x, y, z, w) of the first tower satisfying z = x*y and
    y = w*z, read off the two clasp crossings (built first, indices 0, 1)."""

    def relation(c):
        # lhs = rhs1 * rhs2 in quandle terms, regardless of crossing sign.
        if c.sign > 0:
            return (c.under_out, c.under_in, c.over)
        return (c.under_in, c.under_out, c.over)

    r0, r1 = relation(d.crossings[0]), relation(d.crossings[1])
    for p, q in ((r0, r1), (r1, r0)):
        if p[0] == q[2] and q[0] == p[2]:
            z, x, y = p
            _, w, _ = q
            return (x, y, z, w)
    raise DiagramError("first-tower crossings do not form the clasp pattern")


def pretzel_diagram(pp: PretzelParams) -> Diagram:
    """The standard three-tower diagram, arcs renumbered so the left-tower
    arcs (x, y, z, w) are 1..4."""
    over, connectors = _pretzel_connectors(pp)
    d = build_diagram(_assemble(over, connectors), name=pp.name)
    if d.components != 1 or len(d.arcs) != pp.a + 5:
        raise DiagramError(
            f"{pp.name} assembly gave {d.components} components, {len(d.arcs)} arcs"
        )
    return relabel_arcs(d, list(pretzel_anchors(d)))


def pretzel_m2_coloring(pp: PretzelParams) -> Coloring:
    """The explicit coloring at m = 2 with x=1, y=0, hence z=2, w=1; uses
    exactly a+4 of the p = poly(2) colors.

    It rests on the fact behind coloring.kh_witness: at p = poly(2) the
    kernel leaves the constants and one affine class, so
    min_colors_on_diagram returns that class without walking a line, and
    c -> (c - v[y]) / (v[x] - v[y]) takes it to this coloring."""
    p = pretzel_alexander(pp).evaluate(2)
    require_odd_prime(p)
    d = pretzel_diagram(pp)
    x, y, z, w = pretzel_anchors(d)
    v = min_colors_on_diagram(d, QuandleParams(p, 2))[1].colors
    if v[x] == v[y]:
        raise DiagramError(f"{pp.name} coloring gives x and y one color")
    scale = pow(v[x] - v[y], -1, p)
    coloring = Coloring(p, 2, {arc: (c - v[y]) * scale % p for arc, c in v.items()})
    got = coloring.colors
    if got[z] != 2 % p or got[w] != 1:
        raise DiagramError(
            f"{pp.name} coloring gave z={got[z]}, w={got[w]}; expected 2, 1"
        )
    if not verify_coloring(d, coloring):
        raise DiagramError(f"{pp.name} propagated coloring fails verification")
    if coloring.distinct != pp.a + 4:
        raise DiagramError(
            f"{pp.name} coloring uses {coloring.distinct} colors, expected {pp.a + 4}"
        )
    return coloring


def pretzel_mincol_report(pp: PretzelParams, m: int) -> BoundReport:
    """Lower bound a+4 = k+1; at m = 2 the explicit coloring is attached as
    a matching upper bound."""
    if m <= 1:
        raise BoundsError(f"pretzel report needs m > 1, got {m}")
    poly = pretzel_alexander(pp)
    report = improved_lower_bound(poly, m, name=pp.name)
    if report.improved != pp.a + 4:
        raise BoundsError(
            f"{pp.name}: improved bound {report.improved} != a+4 = {pp.a + 4}"
        )
    if m == 2:
        witness = pretzel_m2_coloring(pp)
        report = replace(
            report, upper_value=witness.distinct, upper_witness=witness.to_json()
        )
    return report
