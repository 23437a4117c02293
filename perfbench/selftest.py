"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a seed always generates the same inputs, that the oracles agree
with qfox on small inputs and reject wrong answers, and that traced and
untraced runs give identical answers.  Exits 1 on the first failure.
"""

from __future__ import annotations

import sys

import gen
import oracle
import pdgen
import run
import worker


def same_seed_same_inputs() -> None:
    for w in gen.WORKLOADS:
        assert gen.generate(w, 7) == gen.generate(w, 7), w
        assert gen.generate(w, 7) != gen.generate(w, 8), w


def oracles_agree_with_qfox() -> None:
    for w in gen.WORKLOADS:
        data = gen.generate(w, 3)
        # The cheapest few inputs of each workload, answered by qfox.
        specs = data["inputs"][:: max(1, len(data["inputs"]) // 12)]
        if w == "minor_ladder":
            specs = [s for s in specs if len(oracle.parse_pd(s["pd"])) <= 16]
        if w == "orbit_search":
            specs = [s for s in data["inputs"] if "x" not in s["label"]][:6]
        for spec in specs:
            if spec.get("argv") == ["alexander", "PD[]"]:
                continue
            answer = worker.prepare(w, spec)()
            why = oracle.check(w, spec, answer)
            assert why is None, (w, spec.get("label") or spec["argv"], why)


def oracles_reject_wrong_answers() -> None:
    spec = {"pd": pdgen.torus(2, 5), "expect": list(oracle.torus_poly(2, 5))}
    assert oracle.check("minor_ladder", spec, [[1, -1, 1], 0]) is not None
    scan = {"coeffs": list(oracle.TABLE["3_1"]), "lo": 2, "hi": 30}
    hits = oracle.prime_hits(scan["coeffs"], 2, 30)
    assert oracle.check("prime_scan", scan, hits) is None
    assert oracle.check("prime_scan", scan, hits[1:]) is not None
    orbit = {"pd": pdgen.torus(2, 5), "p": 11, "m": 2}
    good = worker.prepare("orbit_search", orbit)()
    assert oracle.check("orbit_search", orbit, good) is None
    bad = dict(good, colors=[0] * len(good["colors"]))
    assert oracle.check("orbit_search", orbit, bad) is not None
    # Own kernel dimension against qfox's on the granny knot: 3 at p = 3.
    granny = oracle.Knot(pdgen.torus2_sum([3, 3]))
    assert oracle.kernel_dim(granny, 3, 2) == 3
    assert oracle.is_prime(2) and oracle.is_prime(997) and not oracle.is_prime(1001)


def traced_matches_untraced() -> None:
    for w in gen.WORKLOADS:
        data = gen.generate(w, 5)
        cheap = [i for i, s in enumerate(data["inputs"])
                 if "x" not in s.get("label", "") and len(oracle.parse_pd(s.get("pd") or "")) <= 12][:8]
        base = {"workload": w, "inputs": data["inputs"], "schedule": [cheap], "seconds": 0}
        plain = run.run_worker({**base, "mode": "once"}, timeout=120)
        traced = run.run_worker({**base, "mode": "traced"}, timeout=120)
        got = [[r["outcomes"][o][1:] for _, _, o in r["records"]] for r in (plain, traced)]
        assert got[0] == got[1], w
        assert "layers" in traced and "layers" not in plain, w


def main() -> int:
    for test in (same_seed_same_inputs, oracles_agree_with_qfox, oracles_reject_wrong_answers,
                 traced_matches_untraced):
        try:
            test()
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
