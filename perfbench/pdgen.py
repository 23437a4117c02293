"""PD codes for braid closures and P(-2,3,a) pretzel knots.

The benchmark builds its inputs here rather than through qfox.families, so a
change to the package cannot change what the benchmark feeds it.

A crossing has four ports UL, UR, LL, LR; its two strands are UL-LR and
UR-LL.  Connectors join ports pairwise and each connector is one PD edge.
Walking the connectors orients every component and numbers its edges
consecutively, which is the convention qfox.diagram.parse_pd documents.
"""

from __future__ import annotations

_OPPOSITE = {"UL": "LR", "LR": "UL", "UR": "LL", "LL": "UR"}
_CCW = ("UR", "UL", "LL", "LR")  # ports counterclockwise from 45 degrees

Port = tuple[int, str]


def assemble(over: list[str], connectors: list[tuple[Port, Port]]) -> list[tuple[int, ...]]:
    """PD 4-tuples from port wiring.  over[c] is 'UL' when the UL-LR strand of
    crossing c passes over, 'UR' when the UR-LL strand does."""
    edge_at: dict[Port, int] = {}
    for idx, (a, b) in enumerate(connectors):
        edge_at[a] = idx
        edge_at[b] = idx
    if len(edge_at) != 4 * len(over):
        raise ValueError("every port must be wired exactly once")
    label: dict[int, int] = {}
    under_entry: dict[int, str] = {}
    next_label = 1
    for start in range(len(connectors)):
        edge, head = start, connectors[start][1]
        while edge not in label:
            label[edge] = next_label
            next_label += 1
            c, port = head
            on_over_strand = (port in ("UL", "LR")) == (over[c] == "UL")
            if not on_over_strand:
                under_entry[c] = port
            leave = (c, _OPPOSITE[port])
            edge = edge_at[leave]
            a, b = connectors[edge]
            head = b if a == leave else a
    quads = []
    for c in range(len(over)):
        i = _CCW.index(under_entry[c])
        quads.append(tuple(label[edge_at[(c, _CCW[(i + k) % 4])]] for k in range(4)))
    return quads


def pd_text(quads: list[tuple[int, ...]]) -> str:
    return "PD[" + ",".join("X[%d,%d,%d,%d]" % q for q in quads) + "]"


def braid_closure(word: list[int], strands: int | None = None) -> str:
    """PD text of the closure of a braid word; letter +i crosses columns
    i and i+1 with the UR-LL strand over, -i is its inverse."""
    n = strands if strands is not None else max(abs(g) for g in word) + 1
    over: list[str] = []
    connectors: list[tuple[Port, Port]] = []
    open_port: dict[int, Port] = {}
    first_port: dict[int, Port] = {}
    for j, g in enumerate(word):
        i = abs(g) - 1
        for col, port in ((i, "UL"), (i + 1, "UR")):
            if col in open_port:
                connectors.append((open_port[col], (j, port)))
            else:
                first_port[col] = (j, port)
        open_port[i] = (j, "LL")
        open_port[i + 1] = (j, "LR")
        over.append("UR" if g > 0 else "UL")
    for col in range(n):
        connectors.append((open_port[col], first_port[col]))
    return pd_text(assemble(over, connectors))


def torus(a: int, b: int) -> str:
    """T(a,b) as the closure of (s1 ... s(a-1))^b."""
    return braid_closure([i for _ in range(b) for i in range(1, a)], strands=a)


def torus2_sum(ns: list[int]) -> str:
    """T(2,n1) # T(2,n2) # ... as the closure of s1^n1 s2^n2 ..."""
    return braid_closure([i + 1 for i, n in enumerate(ns) for _ in range(n)])


def pretzel(a: int) -> str:
    """P(-2,3,a): vertical twist towers of 2, 3 and a crossings joined
    side by side; the -2 tower twists the other way."""
    over: list[str] = []
    connectors: list[tuple[Port, Port]] = []
    firsts, lasts = [], []
    c = 0
    for size, flag in ((2, "UL"), (3, "UR"), (a, "UR")):
        firsts.append(c)
        for r in range(size):
            over.append(flag)
            if r:
                connectors.append(((c - 1, "LL"), (c, "UL")))
                connectors.append(((c - 1, "LR"), (c, "UR")))
            c += 1
        lasts.append(c - 1)
    (f1, f2, f3), (l1, l2, l3) = firsts, lasts
    connectors += [
        ((f1, "UL"), (f3, "UR")),
        ((f1, "UR"), (f2, "UL")),
        ((f2, "UR"), (f3, "UL")),
        ((l1, "LL"), (l3, "LR")),
        ((l1, "LR"), (l2, "LL")),
        ((l2, "LR"), (l3, "LL")),
    ]
    return pd_text(assemble(over, connectors))
