"""Re-time the ROADMAP baseline figures once, as a sanity note.

    python3 perfbench/baselines.py

Prints the first-minor time of P(-2,3,41) and T(5,9) (the first minor
alone, diagram built beforehand) and the time of prime_scan of P(-2,3,5)
over m = 2..20000, each the best of REPEATS runs, beside the ROADMAP figure.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import oracle
import pdgen

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qfox import bounds, diagram, laurent  # noqa: E402

REPEATS = 2


def best_of(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def main() -> int:
    cases = []
    for label, pd, roadmap in (("P(-2,3,41)", pdgen.pretzel(41), "1.7-2.0 s"), ("T(5,9)", pdgen.torus(5, 9), "0.32 s")):
        mat = laurent.alexander_matrix(diagram.build_diagram(diagram.parse_pd(pd)))
        cases.append((f"first minor of {label}", roadmap, lambda mat=mat: laurent.first_minor(mat)))
    poly = laurent.LaurentPoly(oracle.pretzel_poly(5))
    cases.append(("prime_scan of P(-2,3,5), m = 2..20000", "5.8 s", lambda: bounds.prime_scan(poly, 2, 20000)))
    for what, roadmap, fn in cases:
        print(f"{what}: {best_of(fn):.3f} s (ROADMAP: {roadmap})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
