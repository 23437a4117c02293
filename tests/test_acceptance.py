"""Acceptance gate: one test per criterion, one printed pass line each.

Each test is self-contained and recomputes everything it checks, so the
suite can run in any order.  Runtime for the whole file stays well under
a minute.
"""

import random
from math import gcd

import pytest

from qfox import (
    CompositeValueError,
    LaurentPoly,
    PretzelParams,
    QuandleParams,
    TorusParams,
    alexander_matrix,
    collapse_and_check,
    exact_div,
    first_minor,
    get_diagram,
    improved_lower_bound,
    kh_witness,
    kl_lower_bound,
    lemma31_value,
    min_colors_on_diagram,
    parse_poly,
    pretzel_alexander,
    pretzel_diagram,
    pretzel_m2_coloring,
    prime_scan,
    quandle_op,
    quandle_op_inv,
    reduce_normalize,
    require_odd_prime,
    torus_diagram,
    torus_interval,
    torus_mincol_interval,
    unit_equivalent,
    verify_coloring,
)
from oracles import enumerate_colorings_brute, kernel_vectors

TABLE1 = [(2, 3), (3, 7), (4, 13), (6, 31), (7, 43), (9, 73), (13, 157), (15, 211)]
TABLE2 = [(2, 5), (4, 17), (6, 37), (10, 101), (14, 197), (16, 257), (20, 401), (24, 577)]

REGISTRY_KNOTS = [
    "3_1", "4_1", "5_1", "7_3", "10_145",
    "T_2_5", "T_2_7", "T_3_4", "P_m2_3_3", "P_m2_3_5",
]


def _reduced(d):
    return reduce_normalize(first_minor(alexander_matrix(d)), components=d.components)


def _passed(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS: {text}")


def test_criterion_01_worked_example_pipeline():
    d = get_diagram("7_3")
    minor = first_minor(alexander_matrix(d))
    target = parse_poly("-2t + 3t^2 - 3t^3 + 3t^4 - 2t^5")
    assert unit_equivalent(minor, target)
    red = reduce_normalize(minor, components=1)
    assert red == parse_poly("2 - 3t + 3t^2 - 3t^3 + 2t^4")
    assert str(red) == "2 - 3t + 3t^2 - 3t^3 + 2t^4"
    _passed(1, "7_3 minor matches up to units; reduction is exact")


def test_criterion_02_trefoil_prime_table():
    hits = prime_scan(_reduced(get_diagram("3_1")), 2, 15)
    assert hits == TABLE1
    _passed(2, "trefoil scan 2..15 reproduces all 8 table rows")


def test_criterion_03_link_prime_table():
    hits = prime_scan(_reduced(get_diagram("L4a1_1")), 2, 24)
    assert hits == TABLE2
    _passed(3, "link scan 2..24 reproduces all 8 table rows")


def test_criterion_04_trefoil_minimum_is_three():
    d = get_diagram("3_1")
    poly = _reduced(d)
    for m, p in TABLE1:
        rep = improved_lower_bound(poly, m, name="3_1")
        assert rep.p == p
        assert rep.improved == 3
        count, witness = min_colors_on_diagram(d, QuandleParams(p, m))
        assert count == 3
        assert verify_coloring(d, witness)
    _passed(4, "improved bound and diagram minimum agree at 3 for all 8 pairs")


def test_criterion_05_link_minimum_is_four():
    d = get_diagram("L4a1_1")
    count, witness = min_colors_on_diagram(d, QuandleParams(5, 2))
    assert count == 4
    assert verify_coloring(d, witness)
    assert kl_lower_bound(5, 2) == 4
    _passed(5, "L4a1{1} minimum 4 colors meets the links bound 4")


def test_criterion_06_base_m_expansion_suite():
    checked = 0
    for name in REGISTRY_KNOTS:
        poly = _reduced(get_diagram(name))
        k = poly.degree
        maxc = max(abs(c) for c in poly.coeffs)
        nz = [c for c in poly.coeffs if c != 0]
        case1 = nz[-1] == 1 and nz[-2] < 0
        for m in range(maxc + 2, maxc + 7):
            val = lemma31_value(poly, m)  # raises on any case-table mismatch
            assert 2 + val.floor_log == (k + 1 if case1 else k + 2)
            checked += 1
    assert checked == 50
    _passed(6, "50 knot/m pairs match the expansion case table, zero mismatches")


def test_criterion_07_torus_intervals_and_kh_checks():
    for b in (3, 5, 7):
        lo, hi, p = torus_mincol_interval(TorusParams(2, b), 2)
        assert (lo, hi) == (b, b)
        require_odd_prime(p)
    assert torus_interval(TorusParams(3, 4)) == (7, 8)
    # the T(3,4) polynomial value factors for every multiplier, so the
    # prime-gated interval stays formula-level there
    for m in (2, 3, 4, 5, 10):
        with pytest.raises(CompositeValueError):
            torus_mincol_interval(TorusParams(3, 4), m)
    for (a, b), (p, m) in (((2, 3), (7, 3)), ((2, 5), (11, 2))):
        d = torus_diagram(TorusParams(a, b))
        w = kh_witness(d, QuandleParams(p, m), reduced_alternating=True)
        assert w is not None
        assert verify_coloring(d, w)
        assert w.distinct == len(d.arcs)
    _passed(7, "T(2,b) intervals collapse, T(3,4) stays (7,8), KH witnesses distinct")


def test_criterion_08_pretzel_equality_at_m2():
    pp = PretzelParams(5)
    require_odd_prime(151)
    assert pretzel_alexander(pp).evaluate(2) == 151
    c = pretzel_m2_coloring(pp)
    d = pretzel_diagram(pp)
    assert verify_coloring(d, c)
    assert c.distinct == 9 == pp.a + 4
    assert improved_lower_bound(pretzel_alexander(pp), 2).improved == 9
    with pytest.raises(CompositeValueError) as exc:
        pretzel_m2_coloring(PretzelParams(3))
    assert "39" in str(exc.value)
    _passed(8, "a=5 coloring attains the bound 9; a=3 value 39 rejected")


def test_criterion_09_pretzel_closed_form_cross_validation():
    one_plus_t = parse_poly("1 + t")
    cube = one_plus_t * one_plus_t * one_plus_t
    for a in (3, 5, 7, 9):
        closed = pretzel_alexander(PretzelParams(a))
        num = LaurentPoly.from_terms(
            [(0, 1), (1, 2), (4, 1), (1 + a, 1), (3, -1), (3 + a, -1),
             (5, 1), (a + 2, 1), (a + 5, 2), (a + 6, 1)]
        )
        assert exact_div(num, cube) == closed
    for a in (3, 5):
        pp = PretzelParams(a)
        assert _reduced(pretzel_diagram(pp)) == pretzel_alexander(pp)
    _passed(9, "closed form == rational quotient (a=3,5,7,9) == diagram (a=3,5)")


def test_criterion_10_exhaustive_oracle_equivalence():
    for name, p in (("3_1", 3), ("L4a1_1", 5)):
        d = get_diagram(name)
        params = QuandleParams(p, 2)
        brute = enumerate_colorings_brute(d, params)
        assert kernel_vectors(d, params) == brute
        best = min(len(set(v)) for v in brute if len(set(v)) > 1)
        assert min_colors_on_diagram(d, params)[0] == best
    _passed(10, "kernel span equals brute enumeration; minima agree")


def test_criterion_11_collapse_suite():
    jobs = []
    trefoil = get_diagram("3_1")
    for m, p in TABLE1:
        jobs.append((trefoil, min_colors_on_diagram(trefoil, QuandleParams(p, m))[1]))
    l4a1 = get_diagram("L4a1_1")
    jobs.append((l4a1, min_colors_on_diagram(l4a1, QuandleParams(5, 2))[1]))
    for (a, b), (p, m) in (((2, 3), (7, 3)), ((2, 5), (11, 2))):
        d = torus_diagram(TorusParams(a, b))
        jobs.append((d, kh_witness(d, QuandleParams(p, m), reduced_alternating=True)))
    jobs.append((pretzel_diagram(PretzelParams(5)), pretzel_m2_coloring(PretzelParams(5))))
    for d, coloring in jobs:
        assert coloring is not None
        rep = collapse_and_check(d, coloring)  # raises unless rank is d-1
        assert rep.divisible and rep.bounded and rep.ok
    assert len(jobs) == 12
    _passed(11, "12 minimal colorings pass divisibility and size checks")


def test_criterion_12_quandle_axioms_randomized():
    rng = random.Random(20260814)
    cases = 0
    while cases < 200:
        n = rng.randrange(3, 200)
        m = rng.randrange(-n, n)
        if gcd(m, n) != 1:
            continue
        params = QuandleParams(n, m)
        x, y, z = (rng.randrange(n) for _ in range(3))
        assert quandle_op(params, x, x) == x
        assert quandle_op_inv(params, quandle_op(params, x, y), y) == x
        assert quandle_op(params, quandle_op_inv(params, x, y), y) == x
        lhs = quandle_op(params, quandle_op(params, x, y), z)
        rhs = quandle_op(params, quandle_op(params, x, z), quandle_op(params, y, z))
        assert lhs == rhs
        if m % n == n - 1:  # dihedral specialization
            assert quandle_op(params, x, y) == (2 * y - x) % n
        cases += 1
    dihedral = QuandleParams(7, -1)
    assert all(
        quandle_op(dihedral, x, y) == (2 * y - x) % 7
        for x in range(7)
        for y in range(7)
    )
    _passed(12, "200 randomized axiom cases pass; m=-1 is the dihedral quandle")
