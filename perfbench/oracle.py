"""Answers the benchmark checks qfox against, computed without qfox.

Polynomials are coefficient lists c[0] + c[1] t + ...; primality comes from
sympy, CLI JSON is validated against tests/data/cli_schema.json, and
colorings are checked with a mod-p elimination written here.
"""

from __future__ import annotations

import json
import math
import re
from itertools import product
from pathlib import Path

import jsonschema
import sympy

ROOT = Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# Reduced Alexander polynomials in closed form
# ---------------------------------------------------------------------------


def normalize(c: list[int]) -> tuple[int, ...]:
    """Strip zero ends and fix the sign so the constant term is positive."""
    lo, hi = 0, len(c)
    while lo < hi and c[lo] == 0:
        lo += 1
    while hi > lo and c[hi - 1] == 0:
        hi -= 1
    c = list(c[lo:hi])
    if c and c[0] < 0:
        c = [-x for x in c]
    return tuple(c)


def mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def div_exact(num, den) -> list[int]:
    """Quotient of integer polynomials whose divisor has leading coefficient 1."""
    rem = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for top in range(len(rem) - 1, len(den) - 2, -1):
        c = rem[top]
        q[top - len(den) + 1] = c
        for j, d in enumerate(den):
            rem[top - len(den) + 1 + j] -= c * d
    if any(rem):
        raise ArithmeticError("inexact division")
    return q


def torus_poly(a: int, b: int) -> tuple[int, ...]:
    """f(t^b) / f(t) with f = 1 + t + ... + t^(a-1)."""
    num = [0] * ((a - 1) * b + 1)
    for i in range(a):
        num[i * b] = 1
    return normalize(div_exact(num, [1] * a))


def pretzel_poly(a: int) -> tuple[int, ...]:
    """1 - t + sum_{i=3}^{a} (-1)^(i+1) t^i - t^(a+2) + t^(a+3)."""
    c = [0] * (a + 4)
    c[0], c[1], c[a + 2], c[a + 3] = 1, -1, -1, 1
    for i in range(3, a + 1):
        c[i] = 1 if i % 2 else -1
    return normalize(c)


def torus2_sum_poly(ns: list[int]) -> tuple[int, ...]:
    out = [1]
    for n in ns:
        out = mul(out, torus_poly(2, n))
    return normalize(out)


# Knot-table values for the registry shipped with qfox (Rolfsen numbering;
# L4a1{1} is the parallel (2,4) torus link, reduced by 1 - t).
TABLE = {
    "3_1": (1, -1, 1),
    "4_1": (1, -3, 1),
    "5_1": (1, -1, 1, -1, 1),
    "7_3": (2, -3, 3, -3, 2),
    "10_145": (1, 1, -3, 1, 1),
    "T(2,5)": (1, -1, 1, -1, 1),
    "T(2,7)": (1, -1, 1, -1, 1, -1, 1),
    "T(3,4)": (1, -1, 0, 1, 0, -1, 1),
    "L4a1{1}": (1, 0, 1),
    "P(-2,3,3)": pretzel_poly(3),
    "P(-2,3,5)": pretzel_poly(5),
}


def evaluate(c, m: int) -> int:
    acc = 0
    for x in reversed(c):
        acc = acc * m + x
    return acc


_TERM = re.compile(r"^(\d*)(t(?:\^(\d+))?)?$")


def parse_poly_text(text: str) -> tuple[int, ...]:
    """Read qfox's printed form, e.g. '2 - 3t + 3t^2', into coefficients."""
    tokens = text.replace(" - ", " + -").split(" + ")
    terms: dict[int, int] = {}
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        mt = _TERM.match(tok.lstrip("-"))
        if mt is None or not (mt.group(1) or mt.group(2)):
            raise ValueError(f"bad polynomial term {tok!r}")
        coeff = int(mt.group(1)) if mt.group(1) else 1
        exp = (int(mt.group(3)) if mt.group(3) else 1) if mt.group(2) else 0
        terms[exp] = terms.get(exp, 0) + sign * coeff
    top = max(terms)
    return normalize([terms.get(e, 0) for e in range(top + 1)])


# ---------------------------------------------------------------------------
# Primality and bounds
# ---------------------------------------------------------------------------


_SMALL_PRIMES = list(sympy.primerange(2, 1000))
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def is_prime(v: int) -> bool:
    """sympy.isprime, after a shared small factor or a base-2 Fermat
    witness has settled the composites cheaply."""
    if v < 2:
        return False
    g = math.gcd(v, _PRIMORIAL)
    if g > 1:
        return g == v and v in _SMALL_PRIMES
    if pow(2, v - 1, v) != 1:
        return False
    return sympy.isprime(v)


def prime_hits(c, lo: int, hi: int) -> list[list[int]]:
    out = []
    for m in range(lo, hi + 1):
        v = evaluate(c, m)
        if v > 2 and is_prime(v):
            out.append([m, v])
    return out


def kl_bound(p: int, m: int) -> int:
    """2 + floor(log_M p), M = max(|m|, |m-1|), by repeated multiplication."""
    big_m = max(abs(m), abs(m - 1))
    r, power = 0, big_m
    while power <= p:
        power *= big_m
        r += 1
    return 2 + r


# ---------------------------------------------------------------------------
# Diagrams, colorings and kernels mod p
# ---------------------------------------------------------------------------


def parse_pd(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in g) for g in re.findall(r"X\[(\d+),(\d+),(\d+),(\d+)\]", text)]


class Knot:
    """Arcs and crossing relations read off a PD code.

    Arcs are the classes of over-edges merged at crossings, numbered 1..q by
    smallest edge label, as qfox.diagram documents.  Each crossing is kept as
    (sign, under_in arc, over arc, under_out arc).
    """

    def __init__(self, text: str):
        quads = parse_pd(text)
        comp = _classes(quads, lambda q: ((q[0], q[2]), (q[1], q[3])))
        succ = {}
        for labels in comp:
            for e in labels:
                succ[e] = e + 1 if e < labels[-1] else labels[0]
        arcs = _classes(quads, lambda q: ((q[1], q[3]),))
        arc_of = {e: i + 1 for i, labels in enumerate(arcs) for e in labels}
        self.components = len(comp)
        self.n_arcs = len(arcs)
        self.crossings = [
            (1 if succ[d] == b else -1, arc_of[a], arc_of[b], arc_of[c])
            for a, b, c, d in quads
        ]

    def relation_rows(self, p: int, m: int) -> list[list[int]]:
        rows = []
        for sign, x, y, z in self.crossings:
            row = [0] * self.n_arcs
            if sign > 0:   # z = m x + (1 - m) y
                coef = ((x, m), (y, 1 - m), (z, -1))
            else:          # x = m z + (1 - m) y, the inverse relation
                coef = ((z, m), (y, 1 - m), (x, -1))
            for arc, v in coef:
                row[arc - 1] = (row[arc - 1] + v) % p
            rows.append(row)
        return rows

    def is_coloring(self, colors: list[int], p: int, m: int) -> bool:
        if len(colors) != self.n_arcs or any(not 0 <= c < p for c in colors):
            return False
        return all(
            sum(r * c for r, c in zip(row, colors)) % p == 0
            for row in self.relation_rows(p, m)
        )


def _classes(quads, pairs) -> list[list[int]]:
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for q in quads:
        for e in q:
            find(e)
        for a, b in pairs(q):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for e in parent:
        groups.setdefault(find(e), []).append(e)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def nullspace_mod(rows: list[list[int]], n_cols: int, p: int) -> list[list[int]]:
    m = [list(r) for r in rows]
    pivot_cols = []
    r = 0
    for col in range(n_cols):
        sel = next((i for i in range(r, len(m)) if m[i][col] % p), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] % p:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivot_cols.append(col)
        r += 1
    basis = []
    for free in (c for c in range(n_cols) if c not in pivot_cols):
        v = [0] * n_cols
        v[free] = 1
        for i, col in enumerate(pivot_cols):
            v[col] = -m[i][free] % p
        basis.append(v)
    return basis


ENUMERATE_LIMIT = 100_000


def min_colors(knot: Knot, p: int, m: int) -> int | None:
    """Fewest distinct colors of a non-constant coloring.  Exact in kernel
    dimension 2, where all non-constant colorings are affinely equivalent,
    and by enumeration when p^dim <= ENUMERATE_LIMIT; None otherwise."""
    basis = nullspace_mod(knot.relation_rows(p, m), knot.n_arcs, p)
    if len(basis) < 2:
        return None
    if len(basis) == 2:
        vecs = basis
    elif p ** len(basis) <= ENUMERATE_LIMIT:
        vecs = (
            [sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(knot.n_arcs)]
            for coeffs in product(range(p), repeat=len(basis))
        )
    else:
        return None
    counts = [len(set(v)) for v in vecs if len(set(v)) > 1]
    return min(counts)


def kernel_dim(knot: Knot, p: int, m: int) -> int:
    return len(nullspace_mod(knot.relation_rows(p, m), knot.n_arcs, p))


def check_witness(knot: Knot, p: int, m: int, count: int, colors: list[int]) -> str | None:
    """None when (count, colors) is a valid minimum-color witness, else why not."""
    if not knot.is_coloring(colors, p, m):
        return "witness breaks a crossing relation"
    if len(set(colors)) != count:
        return f"witness has {len(set(colors))} colors, reported {count}"
    if count < kl_bound(p, m):
        return f"count {count} below the Kauffman-Lopes bound {kl_bound(p, m)}"
    best = min_colors(knot, p, m)
    if best is not None and best != count:
        return f"minimum is {best}, reported {count}"
    return None


def check_collapse(rep: dict, p: int, m: int, count: int) -> str | None:
    det_b = rep["det_b"]
    big_m = max(abs(m), abs(m - 1))
    expect = {
        "p": p, "m": m, "distinct": count, "bound": big_m ** (count - 1),
        "divisible": det_b % p == 0, "bounded": abs(det_b) <= big_m ** (count - 1),
        "ok": True,
    }
    bad = {k: rep.get(k) for k, v in expect.items() if rep.get(k) != v}
    if bad or det_b == 0 or det_b % p:
        return f"collapse report {rep} fails the checks ({bad or 'det_b'})"
    return None


# ---------------------------------------------------------------------------
# CLI output
# ---------------------------------------------------------------------------

_schema = None


def schema_errors(payload: dict) -> str | None:
    global _schema
    if _schema is None:
        path = ROOT / "tests" / "data" / "cli_schema.json"
        _schema = jsonschema.Draft7Validator(json.loads(path.read_text()))
    errors = [e.message for e in _schema.iter_errors(payload)]
    return "; ".join(errors) or None


def all_distinct_exists(knot: Knot, p: int, m: int) -> bool | None:
    """Whether some coloring gives every arc its own color (None: too big)."""
    basis = nullspace_mod(knot.relation_rows(p, m), knot.n_arcs, p)
    if len(basis) == 2:
        return any(len(set(v)) == knot.n_arcs for v in basis if len(set(v)) > 1)
    if p ** len(basis) > ENUMERATE_LIMIT:
        return None
    return any(
        len({sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(knot.n_arcs)}) == knot.n_arcs
        for coeffs in product(range(p), repeat=len(basis))
    )


# ---------------------------------------------------------------------------
# Verdicts per workload
# ---------------------------------------------------------------------------

_knots: dict[str, Knot] = {}


def knot(pd: str) -> Knot:
    if pd not in _knots:
        _knots[pd] = Knot(pd)
    return _knots[pd]


def check(workload: str, spec: dict, answer) -> str | None:
    """None when the answer is right for this input, else what is wrong."""
    if workload == "minor_ladder":
        coeffs, min_exp = answer
        if min_exp != 0 or tuple(coeffs) != tuple(spec["expect"]):
            return f"reduced polynomial {coeffs} (t^{min_exp}), expected {spec['expect']}"
        return None
    if workload == "prime_scan":
        want = prime_hits(spec["coeffs"], spec["lo"], spec["hi"])
        if answer != want:
            got = {m for m, _ in answer}
            exp = {m for m, _ in want}
            return f"hits differ at m in {sorted(got ^ exp)[:5]}"
        return None
    if workload == "orbit_search":
        k, p, m = knot(spec["pd"]), spec["p"], spec["m"]
        why = check_witness(k, p, m, answer["count"], answer["colors"])
        return why or check_collapse(answer["collapse"], p, m, answer["count"])
    if workload == "cli_mix":
        return _check_cli(spec, *answer)
    raise ValueError(workload)


def _line(out: str, pattern: str) -> str:
    mt = re.search(pattern, out, re.M)
    if mt is None:
        raise ValueError(f"no line matching {pattern!r}")
    return mt.group(1)


def _rows_from_text(out: str, header: str) -> list[list[int]]:
    lines = out.splitlines()
    body = lines[lines.index(header) + 1:]
    return [[int(x) for x in re.split(r"[ ,]+", ln.strip())[:2]] for ln in body if re.match(r"^\d", ln)]


def _check_cli(spec: dict, code: int, out: str, err: str) -> str | None:
    argv, kind = spec["argv"], spec["kind"]
    if kind == "exit1":
        if code != 1 or out or not err.startswith("error:"):
            return f"expected exit 1 with an error line, got exit {code}"
        return None
    if code != 0 or err:
        return f"exit {code}, stderr {err[:80]!r}"
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    payload = json.loads(out) if fmt == "json" else None
    if payload is not None:
        bad = schema_errors(payload)
        if bad:
            return f"schema: {bad}"
    try:
        return _cli_fields(spec, kind, fmt, payload, out)
    except (KeyError, ValueError, IndexError) as exc:
        return f"output lacks an expected field: {exc}"


def _cli_fields(spec, kind, fmt, payload, out) -> str | None:
    if kind == "parse":
        comps = payload["diagram"]["components"] if payload else int(_line(out, r"^components: (\d+)"))
        crossings = len(payload["diagram"]["crossings"]) if payload else int(_line(out, r"^crossings:\s+(\d+)"))
        if comps != spec["components"]:
            return f"components {comps}, expected {spec['components']}"
        if spec["pd"] is not None and crossings != len(parse_pd(spec["pd"])):
            return f"{crossings} crossings, expected {len(parse_pd(spec['pd']))}"
        if payload and len(payload["diagram"]["arcs"]) != crossings:
            return "a knot diagram has as many arcs as crossings"
        return None
    if kind == "alexander":
        text = payload["reduced"] if payload else _line(out, r"^reduced: (.*)$")
        if parse_poly_text(text) != tuple(spec["poly"]):
            return f"reduced {text}, expected {spec['poly']}"
        return None
    if kind == "bounds":
        p = payload["p"] if payload else int(_line(out, r"^p:\s+(\d+)"))
        kl = payload["lower_bounds"]["kl"] if payload else int(_line(out, r"^kl:\s+(\d+)"))
        if (p, kl) != (spec["p"], spec["kl"]):
            return f"p={p} kl={kl}, expected p={spec['p']} kl={spec['kl']}"
        return None
    if kind == "scan":
        if payload:
            key = "p" if spec["with_kl"] else "value"
            rows = [[r["m"], r[key]] for r in payload["rows"]]
            if spec["with_kl"] and any(r["kl"] != kl_bound(r["p"], r["m"]) for r in payload["rows"]):
                return "a scan row has the wrong Kauffman-Lopes bound"
        else:
            rows = _rows_from_text(out, "m,value" if fmt == "csv" else "m    value")
        if rows != spec["rows"]:
            return f"scan rows differ: {len(rows)} rows, expected {len(spec['rows'])}"
        return None
    if kind == "families":
        poly_text = payload["poly"] if payload else _line(out, r"^poly:\s+(.*)$")
        if parse_poly_text(poly_text) != tuple(spec["poly"]):
            return f"family polynomial {poly_text}, expected {spec['poly']}"
        if "interval" in spec:
            lo, hi = spec["interval"]
            got = [payload["interval"]["lower"], payload["interval"]["upper"]] if payload else \
                [int(x) for x in _line(out, r"^interval:\s+\[(\d+, \d+)\]").split(", ")]
            if got != [lo, hi]:
                return f"interval {got}, expected {[lo, hi]}"
            at = spec["at_m"]
            if payload and at["prime"] and payload["at_m"].get("p") != at["p"]:
                return f"at m={at['m']} p should be {at['p']}"
            if payload and not at["prime"] and payload["at_m"].get("value") != at["p"]:
                return f"at m={at['m']} the withheld value should be {at['p']}"
        else:
            bound = payload["report"]["lower_bounds"]["improved"] if payload else int(_line(out, r"lower bound (\d+)"))
            upper = payload["report"]["upper_bound"]["value"] if payload else int(_line(out, r"^upper bound (\d+)"))
            if bound != spec["improved"] or upper != spec["improved"]:
                return f"pretzel bounds {bound}/{upper}, expected {spec['improved']}"
        return None
    k, p, m = knot(spec["pd"]), spec["p"], spec["m"]
    if kind == "color_dim":
        dim = payload["kernel_dim"] if payload else int(_line(out, r"^kernel dimension: (\d+)"))
        want = kernel_dim(k, p, m)
        return None if dim == want else f"kernel dimension {dim}, expected {want}"
    if kind == "color_min":
        if payload:
            count = payload["min_colors"]
            colors = payload["witness"]["colors"]
        else:
            count = int(_line(out, r"^minimum distinct colors on this diagram: (\d+)"))
            colors = dict(re.findall(r"^  (\d+): (\d+)$", out, re.M))
        colors = [int(colors[str(a)]) for a in range(1, k.n_arcs + 1)]
        return check_witness(k, p, m, count, colors)
    if kind == "color_kh":
        kh = payload["kh"] if payload else _line(out, r"^KH check \(p=\d+, m=\d+\): (\w+)$") == "true"
        want = all_distinct_exists(k, p, m)
        if want is not None and kh != want:
            return f"kh {kh}, expected {want}"
        if kh and payload:
            colors = [payload["witness"]["colors"][str(a)] for a in range(1, k.n_arcs + 1)]
            if not k.is_coloring(colors, p, m) or len(set(colors)) != k.n_arcs:
                return "kh witness is not an all-distinct coloring"
        return None
    if kind == "collapse":
        best = min_colors(k, p, m)
        if payload:
            return check_collapse(payload["collapse"], p, m, best)
        if _line(out, r"^all checks:\s+(\w+)") != "pass" or int(_line(out, r"^d \(distinct colors\): (\d+)")) != best:
            return "collapse text report does not pass with the minimum count"
        return None
    raise ValueError(kind)
