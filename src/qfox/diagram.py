"""Oriented knot and link diagrams from PD codes.

A PD code lists one 4-tuple per crossing: the edge labels around the
crossing counterclockwise, starting from the incoming under-edge.  Edge
labels run consecutively along each component (wrapping at the end of the
component's range), which is what encodes orientation.  The crossing sign
falls out of the numbering: when the over-strand leaves through the second
tuple entry the crossing is positive, when through the fourth it is
negative.

Arcs (over-strand runs between consecutive under-passes) are computed by
merging the two over-edges at every crossing and are labelled 1..q in
order of their smallest edge label.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass, replace
import functools
import os
import re
from importlib import resources

from .errors import DiagramError, PdSyntaxError, RegistryError


@dataclass(frozen=True)
class PdCode:
    """Raw PD data: a tuple of 4-tuples of edge labels."""

    crossings: tuple[tuple[int, int, int, int], ...]

    def __str__(self) -> str:
        inner = ",".join("X[%d,%d,%d,%d]" % c for c in self.crossings)
        return f"PD[{inner}]"

    def __len__(self) -> int:
        return len(self.crossings)


@dataclass(frozen=True)
class Crossing:
    """One crossing in arc terms.  sign is +1 or -1."""

    sign: int
    under_in: int
    over: int
    under_out: int


@dataclass(frozen=True)
class Diagram:
    """An oriented diagram with arcs labelled 1..q."""

    name: str
    arcs: tuple[int, ...]
    crossings: tuple[Crossing, ...]
    components: int

    def to_json(self) -> dict:
        out = asdict(self)
        out["arcs"], out["crossings"] = list(self.arcs), list(out["crossings"])
        return out


# ---------------------------------------------------------------------------
# PD text
# ---------------------------------------------------------------------------

_WS = re.compile(r"\s+")
_CROSSING = re.compile(r"X\[(-?\d+),(-?\d+),(-?\d+),(-?\d+)\]")


def parse_pd(text: str) -> PdCode:
    """Parse 'PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]'.  Whitespace-insensitive."""
    stripped = _WS.sub("", text)
    if not stripped.startswith("PD["):
        raise PdSyntaxError("expected 'PD[' prefix", position=0)
    if not stripped.endswith("]"):
        raise PdSyntaxError("expected closing ']'", position=len(text))
    body = stripped[3:-1]
    if body == "":
        return PdCode(())
    crossings = []
    pos = 0
    while pos < len(body):
        mt = _CROSSING.match(body, pos)
        if mt is None:
            raise PdSyntaxError(
                f"expected X[a,b,c,d] near {body[pos:pos + 16]!r}", position=pos + 3
            )
        labels = tuple([int(g) for g in mt.groups()])
        if any(v <= 0 for v in labels):
            raise PdSyntaxError(f"edge labels must be positive: {labels}", position=pos + 3)
        crossings.append(labels)
        pos = mt.end()
        if pos < len(body):
            if body[pos] != ",":
                raise PdSyntaxError("expected ',' between crossings", position=pos + 3)
            pos += 1
            if pos == len(body):
                raise PdSyntaxError("trailing comma", position=pos + 3)
    return PdCode(tuple(crossings))


# ---------------------------------------------------------------------------
# Building diagrams
# ---------------------------------------------------------------------------


def _classes(items: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Union-find: the classes of `items` under the equivalences in `pairs`,
    each sorted, ordered by their smallest member."""
    parent = {x: x for x in items}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    groups: dict[int, list[int]] = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def build_diagram(pd: PdCode, name: str = "") -> Diagram:
    """Derive arcs, orientations and signs from a PD code.

    Rejects codes whose edge labels do not describe a coherent oriented
    diagram: a label not appearing exactly twice, component labels that are
    not consecutive, or over/under edges inconsistent with the numbering.
    """
    if len(pd) == 0:
        return Diagram(name=name, arcs=(), crossings=(), components=1)

    counts: dict[int, int] = {}
    for quad in pd.crossings:
        for e in quad:
            counts[e] = counts.get(e, 0) + 1
    bad = sorted(e for e, n in counts.items() if n != 2)
    if bad:
        raise DiagramError(f"edge labels must appear exactly twice: {bad}")

    # Components: each crossing joins a to c along the under-strand and b to
    # d along the over-strand.
    comps = _classes(
        counts,
        [(a, c) for a, _, c, _ in pd.crossings] + [(b, d) for _, b, _, d in pd.crossings],
    )
    succ: dict[int, int] = {}
    for labels in comps:
        lo, hi = labels[0], labels[-1]
        if labels != list(range(lo, hi + 1)):
            raise DiagramError(
                f"component edge labels are not consecutive: {labels}"
            )
        for e in labels:
            succ[e] = e + 1 if e < hi else lo

    raw: list[tuple[int, ...]] = []
    for idx, (a, b, c, d) in enumerate(pd.crossings):
        if succ[a] != c:
            raise DiagramError(
                f"crossing {idx}: under-strand must run {a} -> {succ[a]}, got {c}"
            )
        # Over-strand direction.  When both readings are consistent (a
        # two-edge component crossing only as over-strand) we pick positive.
        if succ[d] == b:
            sign = 1
        elif succ[b] == d:
            sign = -1
        else:
            raise DiagramError(
                f"crossing {idx}: over-edges {b},{d} are not consecutive"
            )
        raw.append((sign, a, b, c))

    # A component that never passes under would leave a closed-loop arc; the
    # relation rows cannot see it, so reject outright.
    under_edges = {quad[0] for quad in pd.crossings}
    for labels in comps:
        if not any(e in under_edges for e in labels):
            raise DiagramError(
                f"component with edges {labels} never passes under a crossing"
            )

    # Arcs: the two over-edges at every crossing lie on one arc.
    arcs = _classes(succ, ((b, d) for _, b, _, d in pd.crossings))
    edge_arc = {e: i for i, edges in enumerate(arcs, start=1) for e in edges}
    crossings = [
        Crossing(sign=sign, under_in=edge_arc[a], over=edge_arc[b], under_out=edge_arc[c])
        for sign, a, b, c in raw
    ]
    return Diagram(
        name=name,
        arcs=tuple(range(1, len(arcs) + 1)),
        crossings=tuple(crossings),
        components=len(comps),
    )


def relabel_arcs(d: Diagram, first: list[int]) -> Diagram:
    """Renumber arcs so the ids in `first` become 1, 2, ... in that order.

    Remaining arcs keep their relative order after the reserved block.
    """
    if len(set(first)) != len(first) or not set(first) <= set(d.arcs):
        raise DiagramError("arc relabel list must be distinct existing arcs")
    order = list(first) + [a for a in d.arcs if a not in set(first)]
    new_id = {old: i + 1 for i, old in enumerate(order)}
    return replace(
        d,
        arcs=tuple(range(1, len(d.arcs) + 1)),
        crossings=tuple([
            Crossing(c.sign, new_id[c.under_in], new_id[c.over], new_id[c.under_out])
            for c in d.crossings
        ]),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ENV_REGISTRY = "QF_REGISTRY"

_NAME_LINE = re.compile(r"^(?P<name>[^=\s]+)\s*=\s*(?P<pd>PD\[.*\])\s*$")


def parse_registry_text(text: str) -> dict[str, PdCode]:
    """Parse 'name = PD[...]' lines; '#' starts a comment; blanks ignored."""
    out: dict[str, PdCode] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        mt = _NAME_LINE.match(line)
        if mt is None:
            raise RegistryError(f"registry line {ln}: expected 'name = PD[...]'")
        name = mt.group("name")
        if name in out:
            raise RegistryError(f"registry line {ln}: duplicate name {name!r}")
        out[name] = parse_pd(mt.group("pd"))
    return out


@functools.cache
def _builtin_registry() -> dict[str, PdCode]:
    """The registry shipped with the package, parsed on the first call; the
    package data does not change while the process runs."""
    return parse_registry_text(
        resources.files("qfox").joinpath("data/registry.txt").read_text()
    )


def load_registry(path: str | None = None) -> dict[str, PdCode]:
    """Load the named-diagram registry as a new dict the caller may change.

    Order of precedence: explicit path argument, the QF_REGISTRY
    environment variable, then the registry shipped with the package.  A
    path is read on every call; the shipped registry is parsed once.
    """
    if path is None:
        path = os.environ.get(ENV_REGISTRY)
    if path is None:
        return dict(_builtin_registry())
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_registry_text(fh.read())
    except OSError as exc:
        raise RegistryError(f"cannot read registry {path!r}: {exc}") from exc


def _normalize_name(name: str) -> str:
    return name.replace("{", "_").replace("}", "").replace("(", "_").replace(
        ")", ""
    ).replace(",", "_").replace("-", "m").lower()


def get_diagram(name: str, registry: dict[str, PdCode] | None = None) -> Diagram:
    """Look up a registered diagram by name (brace/paren variants accepted)."""
    reg = load_registry() if registry is None else registry
    if name in reg:
        return build_diagram(reg[name], name=name)
    wanted = _normalize_name(name)
    for key, pd in reg.items():
        if _normalize_name(key) == wanted:
            return build_diagram(pd, name=key)
    raise RegistryError(
        f"unknown diagram {name!r}; registry has: {', '.join(sorted(reg))}"
    )
