"""Prime pretzel diagrams P(q, ..., q) for the tests and the CI pins.

An odd number of twist towers of q crossings each, all twisted the same
way, joined pretzel-wise as qfox.families joins the three towers of
P(-2,3,a).  With q odd this is a knot.  At (p, m) = (q, q - 1) its coloring
kernel has one dimension per tower in every case the tests pin, so the
minimum-color search walks many lines of a prime diagram.

    python3 -c 'import sys; sys.path.insert(0, "tests"); import pretzels; print(pretzels.pretzel_pd(7, 7))'

prints the PD code of P(7, 7, 7, 7, 7, 7, 7).
"""

from __future__ import annotations

from qfox.diagram import PdCode
from qfox.families import _assemble


def pretzel_pd(q: int, towers: int) -> PdCode:
    """The PD code of P(q, ..., q) with `towers` towers of q crossings."""
    over: list[str] = []
    connectors = []
    firsts: list[int] = []
    lasts: list[int] = []
    c = 0
    for _ in range(towers):
        firsts.append(c)
        for r in range(q):
            over.append("UR-LL")
            if r > 0:
                connectors.append(((c - 1, "LL"), (c, "UL")))
                connectors.append(((c - 1, "LR"), (c, "UR")))
            c += 1
        lasts.append(c - 1)
    connectors.append(((firsts[0], "UL"), (firsts[-1], "UR")))     # outer top arc
    connectors += [((a, "UR"), (b, "UL")) for a, b in zip(firsts, firsts[1:])]
    connectors.append(((lasts[0], "LL"), (lasts[-1], "LR")))       # outer bottom arc
    connectors += [((a, "LR"), (b, "LL")) for a, b in zip(lasts, lasts[1:])]
    return _assemble(over, connectors)
