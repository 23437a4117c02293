"""Seeded inputs for the four workloads.

generate(workload, seed) returns {"inputs": [...], "schedule": [[...], ...]}:
distinct op inputs and the passes that index them, which a run replays in
turn.  The same seed gives the
same inputs; qfox is not imported, so the package cannot change them.

Each pass draws one input per slot from a fixed list of rungs whose members
cost about the same, so every pass does about the same work whatever the
seed and the timed figures compare across seeds.
"""

from __future__ import annotations

import random

import oracle
import pdgen

# A run replays this many drawn passes in turn, so the oracle checks each
# distinct answer once however long the run.
DISTINCT_PASSES = 8


def _passes(rng: random.Random, rungs: list[tuple[int, list]], make) -> dict:
    """Fill `count` slots per pass from each rung, shuffled within the pass.

    A rung deals its members from a shuffled deck, reshuffled when empty, so
    any few consecutive passes hold every member about equally often and
    seeds differ in order and pairing rather than in how much work they hold.
    """
    decks: list[list] = [[] for _ in rungs]

    def deal(r: int):
        if not decks[r]:
            decks[r] = list(rungs[r][1])
            rng.shuffle(decks[r])
        return decks[r].pop()

    inputs: list[dict] = []
    index: dict[str, int] = {}
    schedule = []
    for _ in range(DISTINCT_PASSES):
        picks = [make(deal(r)) for r, (count, _) in enumerate(rungs) for _ in range(count)]
        rng.shuffle(picks)
        ids = []
        for spec in picks:
            key = repr(sorted(spec.items()))
            if key not in index:
                index[key] = len(inputs)
                inputs.append(spec)
            ids.append(index[key])
        schedule.append(ids)
    return {"inputs": inputs, "schedule": schedule}


# ---------------------------------------------------------------------------
# minor_ladder: PD text -> reduced polynomial; P(-2,3,a), T(a,b), T(2,n) sums
# ---------------------------------------------------------------------------

def _p(a):
    return ("pretzel", a)


def _t(a, b):
    return ("torus", a, b)


def _s(*ns):
    return ("sum",) + ns


# Rungs of inputs whose ops cost about the same, by median time over many
# runs on a 2-core Xeon: from 6 ms for the first rung to 0.85 s for the last.
# One pass is 30 ops, about 3.2 s.  The median op falls amid the four 31 ms
# ops and the 90th percentile amid the three 0.26 s ops, so neither sits at
# the edge of a cluster or rests on a single op's time.
MINOR_RUNGS = [
    (2, [_p(5), _s(5, 5)]),
    (3, [_t(2, 13), _p(7)]),
    (4, [_t(3, 7), _s(3, 3, 7), _t(4, 5), _p(9), _t(2, 15)]),
    (3, [_s(3, 11), _t(3, 8), _s(5, 9)]),
    (4, [_t(2, 17), _p(11)]),
    (1, [_p(13)]),
    (2, [_t(3, 11), _t(3, 10), _s(5, 13), _t(4, 7)]),
    (2, [_s(7, 11), _s(9, 9), _p(15)]),
    (1, [_t(5, 6), _p(17)]),
    (1, [_t(2, 27), _s(9, 11), _t(3, 14)]),
    (1, [_t(4, 9), _p(19)]),
    (1, [_p(21), _p(23), _p(25), _s(11, 13)]),
    (3, [_t(2, 31), _t(5, 9)]),
    (1, [_p(31), _t(2, 37), _p(33)]),
    (1, [_p(35), _p(37), _p(41), _t(7, 8)]),
]


def knot_case(case) -> tuple[str, str, tuple[int, ...]]:
    """(label, PD text, closed-form reduced polynomial)."""
    kind, *args = case
    if kind == "pretzel":
        return f"P(-2,3,{args[0]})", pdgen.pretzel(args[0]), oracle.pretzel_poly(args[0])
    if kind == "torus":
        return f"T({args[0]},{args[1]})", pdgen.torus(*args), oracle.torus_poly(*args)
    label = "#".join(f"T(2,{n})" for n in args)
    return label, pdgen.torus2_sum(list(args)), oracle.torus2_sum_poly(list(args))


def _minor_input(case) -> dict:
    label, pd, poly = knot_case(case)
    return {"label": label, "pd": pd, "expect": list(poly)}


# ---------------------------------------------------------------------------
# prime_scan: prime_scan(poly, lo, hi) over one window of m
# ---------------------------------------------------------------------------

# Values below 3.3e24 are settled by 12 fixed witnesses.
LOW_DEGREE = ["3_1", "4_1", "5_1", "7_3", "10_145"]

# Degree 8 and 10: for m in 2000..6800 the values lie above 3.3e24, where
# every prime takes 64 more random rounds.
HIGH_DEGREE = {
    "P(-2,3,5)": oracle.pretzel_poly(5),
    "P(-2,3,7)": oracle.pretzel_poly(7),
    "T(2,11)": oracle.torus_poly(2, 11),
}


def _window(name: str, poly, lo: int, width: int) -> dict:
    return {"label": f"{name} m={lo}..{lo + width - 1}", "coeffs": list(poly), "lo": lo, "hi": lo + width - 1}


def prime_scan_inputs(rng: random.Random) -> dict:
    # Window starts come from a grid, dealt like any rung member, so every
    # seed scans values of the same sizes.
    rungs = [(1, [(name, lo) for lo in range(2, 16000, 4000)]) for name in LOW_DEGREE + ["T(3,4)"]]
    rungs += [(1, [(name, lo) for lo in range(2000, 6000, 800)]) for name in HIGH_DEGREE]

    def make(slot):
        name, lo = slot
        if name in HIGH_DEGREE:
            return _window(name, HIGH_DEGREE[name], lo, 800)
        return _window(name, oracle.TABLE[name], lo, 4000)   # T(3,4): every value is composite

    return _passes(rng, rungs, make)


# ---------------------------------------------------------------------------
# orbit_search: min_colors_on_diagram + collapse_and_check, p given
# ---------------------------------------------------------------------------

# p = reduced polynomial of T(2,n) at m = 2, i.e. (2^n + 1) / 3.
T2_PRIME = {3: 3, 5: 11, 7: 43, 11: 683, 13: 2731}


def _sum_case(n, copies):
    return {"label": f"{copies}xT(2,{n})", "pd": pdgen.torus2_sum([n] * copies), "p": T2_PRIME[n], "m": 2}


# Knots whose kernel has dimension 2 at p = reduced value at m, a prime:
# one representative each.  Every pass asks about each of them once, at an m
# dealt from the ones that make p prime.
SINGLES = [_t(2, 3), _t(2, 5), _t(2, 7), _t(2, 11), _t(2, 13), _t(3, 5), _t(3, 7), _p(5), _p(7), _p(13)]


def _single_cases(case) -> list[dict]:
    label, pd, poly = knot_case(case)
    return [{"label": f"{label} m={m}", "pd": pd, "p": oracle.evaluate(poly, m), "m": m}
            for m in (2, 3, 4, 5, 6) if oracle.is_prime(oracle.evaluate(poly, m))]


def orbit_search_inputs(rng: random.Random) -> dict:
    # Every sum of T(2,n) whose search ends within seconds, once per pass:
    # kernel dimension copies + 1 >= 3, about p^(copies - 1) representatives.
    # 4xT(2,7) at p = 43 is the largest; a fifth copy would take minutes.
    # Two more 5xT(2,5) put the 90th percentile inside their cluster.
    small = [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)]
    medium = [(7, 3), (5, 4), (13, 2), (11, 2)]
    rungs = [(1, [(7, 4)]), (3, [(5, 5)]), (len(medium), medium), (len(small), small)]
    rungs += [(1, _single_cases(case)) for case in SINGLES]
    return _passes(rng, rungs, lambda slot: slot if isinstance(slot, dict) else _sum_case(*slot))


# ---------------------------------------------------------------------------
# cli_mix: qfox.cli.main(argv), every subcommand, some requests exit 1
# ---------------------------------------------------------------------------

def _source(name: str):
    """(argv input, PD text or None, reduced polynomial) for a registry name,
    a family specifier, or 'sum:3,5' for a literal PD of T(2,3) # T(2,5)."""
    kind, _, tail = name.partition(":")
    if kind == "pretzel":
        return name, None, oracle.pretzel_poly(int(tail))
    if kind == "torus":
        a, b = map(int, tail.split(","))
        return name, pdgen.torus(a, b), oracle.torus_poly(a, b)
    if kind == "sum":
        ns = [int(n) for n in tail.split(",")]
        pd = pdgen.torus2_sum(ns)
        return pd, pd, oracle.torus2_sum_poly(ns)
    return name, None, oracle.TABLE[name]


def _prime_ms(poly, hi) -> list[int]:
    return [m for m in range(2, hi + 1) if oracle.is_prime(oracle.evaluate(poly, m))]


def _request(rng: random.Random, kind: str, name: str, fmt: str) -> dict:
    """One CLI request about diagram `name`; the seed picks m and scan
    windows, never the diagram."""
    src, pd, poly = _source(name)
    if kind == "parse":
        return {"argv": ["parse", src, "--format", fmt], "kind": kind, "pd": pd,
                "components": 2 if name == "L4a1{1}" else 1}
    if kind == "alexander":
        return {"argv": ["alexander", src, "--format", fmt], "kind": kind, "poly": list(poly)}
    if kind == "bounds":
        m = rng.choice(_prime_ms(poly, 12))
        p = oracle.evaluate(poly, m)
        return {"argv": ["bounds", src, "--m", str(m), "--format", fmt], "kind": kind,
                "p": p, "kl": oracle.kl_bound(p, m)}
    if kind in ("bounds_scan", "scan"):
        lo = rng.randrange(2, 400)
        window = f"{lo}..{lo + 99}"
        if kind == "scan":
            argv = ["scan", src, window, "--format", fmt]
        else:
            argv = ["bounds", src, "--scan", window, "--format", fmt]
        return {"argv": argv, "kind": "scan", "rows": oracle.prime_hits(poly, lo, lo + 99),
                "with_kl": kind == "bounds_scan"}
    if kind == "color_dim":
        # p is a prime factor of the value, so the kernel is non-trivial.
        m = rng.randrange(2, 7)
        p = max(oracle.sympy.primefactors(oracle.evaluate(poly, m)))
        return {"argv": ["color", src, "--m", str(m), "--p", str(p), "--format", fmt], "kind": kind,
                "pd": pd, "p": p, "m": m}
    m = rng.choice(_prime_ms(poly, 6))
    p = oracle.evaluate(poly, m)
    if kind == "color_kh":   # --kh asserts a reduced alternating diagram: T(2,n) is one
        return {"argv": ["color", src, "--m", str(m), "--kh", "--format", fmt], "kind": kind,
                "pd": pd, "p": p, "m": m}
    if kind in ("color_min", "collapse"):
        head = ["color", src, "--m", str(m), "--p", str(p), "--min"] if kind == "color_min" \
            else ["collapse", src, "--m", str(m), "--p", str(p)]
        return {"argv": head + ["--format", fmt], "kind": kind, "pd": pd, "p": p, "m": m}
    raise ValueError(kind)


def _families(rng: random.Random, name: str, fmt: str) -> dict:
    kind, _, tail = name.partition(":")
    if kind == "pretzel":
        a = int(tail)
        return {"argv": ["families", name, "--m", "2", "--format", fmt], "kind": "families",
                "poly": list(oracle.pretzel_poly(a)), "improved": a + 4}
    a, b = map(int, tail.split(","))
    poly = oracle.torus_poly(a, b)
    m = rng.randrange(2, 6)
    value = oracle.evaluate(poly, m)
    return {"argv": ["families", name, "--m", str(m), "--format", fmt], "kind": "families",
            "poly": list(poly), "interval": [b * (a - 1) - (a - 2), b * (a - 1)],
            "at_m": {"m": m, "p": value, "prime": value > 2 and oracle.is_prime(value)}}


# Requests that must exit 1 with an error line: a composite auto-p, an
# unknown name, malformed PD.  'alexander PD[]' belongs here too but
# currently escapes as an IndexError traceback.
EXIT_1 = {
    "composite": [["bounds", "4_1", "--m", "3"], ["bounds", "10_145", "--m", "2"],
                  ["color", "7_3", "--m", "2", "--min"], ["families", "pretzel:3", "--m", "2"],
                  ["collapse", "torus:3,4", "--m", "2"]],
    "unknown": [["parse", "9_99"], ["alexander", "K13n"], ["scan", "trefoil", "2..9"]],
    "malformed": [["parse", "PD[X[1,2,3]]"], ["alexander", "PD[X[1,4,2,5],X[3,6,4,1]"],
                  ["parse", "PD[X[1,4,2,5],]"], ["alexander", "PD[X[1,4,2,5]]"], ["parse", "PD[X[0,1,1,2]]"]],
}

# The diagrams each kind of request asks about, fixed so that every seed
# makes the same amount of work.
CLI_POOL = [
    ("parse", ["3_1", "10_145", "pretzel:5", "torus:3,4", "sum:3,5", "P(-2,3,5)"]),
    ("alexander", ["4_1", "7_3", "pretzel:7", "torus:3,5", "sum:3,3", "T(3,4)", "L4a1{1}"]),
    ("bounds", ["3_1", "5_1", "torus:2,7", "torus:3,5", "P(-2,3,5)"]),
    ("bounds_scan", ["4_1", "torus:2,5", "pretzel:5"]),
    ("scan", ["7_3", "10_145", "torus:3,4", "sum:3,5"]),
    ("color_dim", ["torus:2,5", "torus:2,7", "torus:3,5", "sum:3,5"]),
    ("color_min", ["torus:2,3", "torus:2,5", "torus:2,7", "torus:3,5"]),
    ("color_kh", ["torus:2,5", "torus:2,7"]),
    ("collapse", ["torus:2,3", "torus:2,5", "torus:2,7", "torus:3,5"]),
    ("families", ["torus:2,5", "torus:3,4", "pretzel:5", "pretzel:7"]),
]


def cli_mix_inputs(rng: random.Random) -> dict:
    """One seeded pool of requests, replayed in a fresh order every pass."""
    inputs = []
    for kind, names in CLI_POOL:
        # Output formats dealt in turn, so each kind uses each about equally.
        formats = {"scan": ["text", "json", "csv"], "bounds_scan": ["json", "csv"]}.get(kind, ["text", "json"])
        rng.shuffle(formats)
        for n, name in enumerate(names):
            fmt = formats[n % len(formats)]
            inputs.append(_families(rng, name, fmt) if kind == "families" else _request(rng, kind, name, fmt))
    for kind, count in (("composite", 2), ("unknown", 1), ("malformed", 2)):
        for argv in rng.sample(EXIT_1[kind], count):
            inputs.append({"argv": argv, "kind": "exit1"})
    inputs.append({"argv": ["alexander", "PD[]"], "kind": "exit1"})
    schedule = []
    for _ in range(DISTINCT_PASSES):
        order = list(range(len(inputs)))
        rng.shuffle(order)
        schedule.append(order)
    return {"inputs": inputs, "schedule": schedule}


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "minor_ladder":
        return _passes(rng, MINOR_RUNGS, _minor_input)
    if workload == "prime_scan":
        return prime_scan_inputs(rng)
    if workload == "orbit_search":
        return orbit_search_inputs(rng)
    if workload == "cli_mix":
        return cli_mix_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ["minor_ladder", "prime_scan", "orbit_search", "cli_mix"]
