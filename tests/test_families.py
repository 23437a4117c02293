"""Torus and pretzel generators: diagrams, closed forms, and reports."""

import os
import resource
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qfox import (
    BoundsError,
    Coloring,
    CompositeValueError,
    DiagramError,
    PretzelParams,
    QfoxError,
    QuandleParams,
    TorusParams,
    alexander_matrix,
    braid_closure,
    collapse_and_check,
    first_minor,
    kernel_basis,
    min_colors_on_diagram,
    parse_poly,
    pretzel_alexander,
    pretzel_diagram,
    pretzel_m2_coloring,
    pretzel_mincol_report,
    reduce_normalize,
    torus_alexander,
    torus_diagram,
    torus_interval,
    torus_mincol_interval,
    verify_coloring,
)
import qfox
from qfox.families import MAX_CROSSINGS, pretzel_anchors, torus_braid_word
from oracles import (
    RingPoly,
    alexander_matrix_reference,
    anchored_solution_rref,
    hironaka_quotient,
    orbit_representatives,
)


def _alternating_units(poly):
    """All non-zero coefficients are +-1 and alternate in sign."""
    nz = [v for v in poly.coeffs if v]
    return all(abs(v) == 1 for v in nz) and all(a * b < 0 for a, b in zip(nz, nz[1:]))


COPRIME_PAIRS = [
    (a, b) for a in range(2, 10) for b in range(a + 1, 11) if gcd(a, b) == 1
]


def _reduced(d):
    return reduce_normalize(first_minor(alexander_matrix(d)), components=d.components)


# -- braid closures ---------------------------------------------------------------


def test_braid_closure_trefoil():
    d = braid_closure([1, 1, 1])
    assert (d.components, len(d.crossings), len(d.arcs)) == (1, 3, 3)
    assert str(_reduced(d)) == "1 - t + t^2"


def test_braid_closure_link():
    d = braid_closure([1, 1, 1, 1])
    assert d.components == 2
    assert str(_reduced(d)) == "1 + t^2"


def _markov_invariants(d):
    """The reduced polynomial, and at each (p, m) the kernel dimension and,
    where non-trivial colorings exist, the minimum colors and the det B of
    every minimal coloring, one per affine class."""
    out = [_reduced(d)]
    for p, m in [(3, 2), (3, -1), (7, 3), (5, 2)]:
        params = QuandleParams(p, m)
        dim = len(kernel_basis(d, params))
        if dim < 2:
            out.append((dim,))
            continue
        count, _ = min_colors_on_diagram(d, params)
        dets = sorted(
            collapse_and_check(d, Coloring(p, m, dict(zip(d.arcs, v)))).det_b
            for v in orbit_representatives(d, params)
            if len(set(v)) == count
        )
        out.append((dim, count, dets))
    return out


@example([1, 1, 1])                    # 3_1: 3 colors at (3, 2), (3, -1), (7, 3)
@example([1, -2, 1, -2])               # 4_1: only constant colorings at all four
@example([1, 1, 1, 2, 2, 2])           # granny knot: kernel dimension 3
@example([1, 1, 1, -2, -2, -2])        # square knot: kernel dimension 3
@example([1, 1, 1, 1])                 # T(2,4), a link: 4 colors at (5, 2)
@example([1, 2, 1, 2, 1, 2, 1, 2])     # T(3,4): 4 colors at (7, 3)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3).flatmap(lambda g: st.sampled_from([g, -g])), min_size=1, max_size=10))
def test_markov_stabilization_keeps_the_invariants(word):
    """Appending sigma_n or its inverse on a new strand n + 1 is a Markov
    move: the closure is the same knot or link, and its diagram gains one
    kink, so the colorings and their collapses carry over.  The witness is
    the first minimal coloring in arc order, and the move renumbers the
    arcs, so the witness may move to another minimal coloring; the det B
    values of all of them are compared."""
    try:
        base = _markov_invariants(braid_closure(word))
    except QfoxError:
        assume(False)  # a strand left out, or a split closure
    n = max(abs(g) for g in word) + 1
    for sign in (1, -1):
        assert _markov_invariants(braid_closure(word + [sign * n])) == base, sign


def test_braid_closure_rejects_untouched_strand():
    with pytest.raises(DiagramError):
        braid_closure([2, 2])


def test_braid_closure_rejects_bad_letter():
    with pytest.raises(DiagramError):
        braid_closure([1, 0, 1])


# -- torus parameters ----------------------------------------------------------------


def test_torus_canonicalization():
    assert (TorusParams(4, 3).a, TorusParams(4, 3).b) == (3, 4)
    assert (TorusParams(-2, 3).a, TorusParams(-2, 3).b) == (2, 3)
    assert TorusParams(3, -5).name == "T(3,5)"


def test_torus_rejects_invalid():
    with pytest.raises(DiagramError):
        TorusParams(2, 4)
    with pytest.raises(DiagramError):
        TorusParams(1, 5)


def test_torus_crossing_number():
    assert TorusParams(2, 3).crossing_number == 3
    assert TorusParams(2, 7).crossing_number == 7
    assert TorusParams(3, 4).crossing_number == 8


def test_torus_braid_word():
    assert torus_braid_word(TorusParams(2, 3)) == [1, 1, 1]
    assert torus_braid_word(TorusParams(3, 4)) == [1, 2, 1, 2, 1, 2, 1, 2]


@pytest.mark.parametrize("a,b,crossings", [(2, 3, 3), (2, 5, 5), (3, 4, 8)])
def test_torus_diagram_size(a, b, crossings):
    d = torus_diagram(TorusParams(a, b))
    assert d.components == 1
    assert len(d.crossings) == crossings


# -- torus polynomials ------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (2, 3, "1 - t + t^2"),
        (2, 5, "1 - t + t^2 - t^3 + t^4"),
        (3, 4, "1 - t + t^3 - t^5 + t^6"),
    ],
)
def test_torus_alexander_knowns(a, b, expected):
    assert str(torus_alexander(TorusParams(a, b))) == expected


@pytest.mark.parametrize("a,b", COPRIME_PAIRS)
def test_torus_alexander_shape(a, b):
    poly = torus_alexander(TorusParams(a, b))
    assert poly.degree == (a - 1) * (b - 1)
    assert _alternating_units(poly)


@pytest.mark.parametrize("a,b", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (5, 9), (7, 8)])
def test_torus_diagram_matches_formula(a, b):
    tp = TorusParams(a, b)
    assert _reduced(torus_diagram(tp)) == torus_alexander(tp)


# -- torus intervals ----------------------------------------------------------------------


def test_torus_interval_endpoints():
    assert torus_interval(TorusParams(2, 7)) == (7, 7)
    assert torus_interval(TorusParams(3, 4)) == (7, 8)


def test_torus_mincol_interval_with_prime_value():
    assert torus_mincol_interval(TorusParams(2, 3), 2) == (3, 3, 3)
    assert torus_mincol_interval(TorusParams(2, 7), 2) == (7, 7, 43)


def test_torus_mincol_interval_withheld_on_composite():
    # the T(3,4) polynomial factors as two cyclotomics for every m > 1
    for m in (2, 3, 5, 10):
        with pytest.raises(CompositeValueError):
            torus_mincol_interval(TorusParams(3, 4), m)


def test_torus_mincol_interval_rejects_tiny_m():
    with pytest.raises(BoundsError):
        torus_mincol_interval(TorusParams(2, 3), 1)


# -- pretzel parameters ----------------------------------------------------------------------


# -- size limit ------------------------------------------------------------------------


def test_families_stop_at_the_crossing_limit():
    assert TorusParams(2, MAX_CROSSINGS - 1).crossing_number == MAX_CROSSINGS - 1
    assert TorusParams(3, MAX_CROSSINGS // 2).crossing_number == MAX_CROSSINGS
    assert PretzelParams(MAX_CROSSINGS - 5).a == MAX_CROSSINGS - 5
    with pytest.raises(DiagramError, match="size limit"):
        TorusParams(2, MAX_CROSSINGS + 1)
    with pytest.raises(DiagramError, match="size limit"):
        TorusParams(MAX_CROSSINGS + 1, 3)
    with pytest.raises(DiagramError, match="size limit"):
        PretzelParams(MAX_CROSSINGS - 3)


@pytest.mark.parametrize("argv", [
    ["families", "torus:2,99999999999", "--m", "2"],
    ["families", "pretzel:99999999999", "--m", "2"],
    ["alexander", "torus:2,99999999999"],
])
def test_huge_family_specifiers_exit_1_within_1_gb(argv):
    """The size is checked before a braid word or a dense polynomial is
    built, in well under a gigabyte of address space."""

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    env = {**os.environ, "PYTHONPATH": str(Path(qfox.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "qfox.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_address_space,
    )
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.endswith(f"has more than {MAX_CROSSINGS} crossings, the size limit of a family\n")


def test_pretzel_params():
    pp = PretzelParams(5)
    assert pp.name == "P(-2,3,5)"


def test_pretzel_rejects_even_or_tiny():
    with pytest.raises(DiagramError):
        PretzelParams(4)
    with pytest.raises(DiagramError):
        PretzelParams(1)


# -- pretzel polynomials -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,expected",
    [
        (3, "1 - t + t^3 - t^5 + t^6"),
        (5, "1 - t + t^3 - t^4 + t^5 - t^7 + t^8"),
    ],
)
def test_pretzel_alexander_knowns(a, expected):
    assert str(pretzel_alexander(PretzelParams(a))) == expected


@pytest.mark.parametrize("a", [3, 5, 7, 9])
def test_pretzel_alexander_alternating_units(a):
    poly = pretzel_alexander(PretzelParams(a))
    assert poly.degree == a + 3
    assert _alternating_units(poly)


def test_pretzel_closed_form_equals_rational_form():
    for a in range(3, 100, 2):
        assert pretzel_alexander(PretzelParams(a)) == hironaka_quotient(3, a), a


@pytest.mark.parametrize("a", [3, 5, 7, 9, 11])
def test_pretzel_telescoping_step(a):
    # adding a full twist multiplies by t^2 and leaves a fixed remainder
    step = RingPoly.of(pretzel_alexander(PretzelParams(a + 2))) - pretzel_alexander(
        PretzelParams(a)
    ).shifted(2)
    assert step == parse_poly("1 - t - t^2 + 2t^3 - t^4")


def test_pretzel_smallest_is_the_8_19_torus_knot():
    assert pretzel_alexander(PretzelParams(3)) == torus_alexander(TorusParams(3, 4))


# -- pretzel diagrams ----------------------------------------------------------------------------


@pytest.mark.parametrize("a,arcs", [(3, 8), (5, 10), (7, 12)])
def test_pretzel_diagram_shape(a, arcs):
    d = pretzel_diagram(PretzelParams(a))
    assert d.components == 1
    assert len(d.arcs) == arcs
    assert len(d.crossings) == a + 5


@pytest.mark.parametrize("a", [3, 5, 7, 21, 41])
def test_pretzel_diagram_matches_formula(a):
    pp = PretzelParams(a)
    assert _reduced(pretzel_diagram(pp)) == pretzel_alexander(pp)


def test_pretzel_anchor_arcs_come_first():
    d = pretzel_diagram(PretzelParams(5))
    assert pretzel_anchors(d) == (1, 2, 3, 4)


# -- the explicit m=2 coloring --------------------------------------------------------------------


def test_pretzel_m2_coloring_a5():
    c = pretzel_m2_coloring(PretzelParams(5))
    assert c.n == 151 and c.m == 2
    assert c.distinct == 9
    assert verify_coloring(pretzel_diagram(PretzelParams(5)), c)
    x, y, z, w = (c.colors[a] for a in (1, 2, 3, 4))
    assert (x, y) == (1, 0)
    assert z == (2 * x - y) % 151
    assert y == (2 * w - z) % 151
    assert (z, w) == (2, 1)


def test_pretzel_m2_coloring_a7():
    c = pretzel_m2_coloring(PretzelParams(7))
    assert c.n == 599
    assert c.distinct == 11
    assert verify_coloring(pretzel_diagram(PretzelParams(7)), c)


@pytest.mark.parametrize("a", [5, 7, 13, 17, 49])
def test_pretzel_m2_coloring_is_the_kernels_one_class(a):
    """At p = poly(2) the kernel has dimension 2, and its one affine class,
    rescaled, is the coloring that x = 1, y = 0 (arcs 1 and 2) pin down in
    the dense RREF of the relation rows at t = 2."""
    pp = PretzelParams(a)
    p = pretzel_alexander(pp).evaluate(2)
    d = pretzel_diagram(pp)
    assert len(kernel_basis(d, QuandleParams(p, 2))) == 2
    rows = [[e.evaluate(2) for e in row] for row in alexander_matrix_reference(d)]
    want = anchored_solution_rref(rows, {0: 1, 1: 0}, p)
    assert pretzel_m2_coloring(pp).colors == dict(zip(d.arcs, want))


def test_pretzel_m2_composite_rejected():
    with pytest.raises(CompositeValueError) as exc:
        pretzel_m2_coloring(PretzelParams(3))
    assert "39 = 3 * 13" in str(exc.value)


# -- pretzel reports ---------------------------------------------------------------------------------


def test_pretzel_report_equality_at_m2():
    rep = pretzel_mincol_report(PretzelParams(5), 2)
    assert rep.p == 151
    assert rep.improved == 9
    assert rep.upper_value == 9
    assert rep.case == 1
    assert rep.upper_witness is not None
    assert rep.to_json()["upper_bound"]["value"] == 9


def test_pretzel_report_a7():
    rep = pretzel_mincol_report(PretzelParams(7), 2)
    assert rep.improved == 11 and rep.upper_value == 11


def test_pretzel_report_lower_only_away_from_m2():
    rep = pretzel_mincol_report(PretzelParams(5), 3)
    assert rep.p == 4561
    assert rep.improved == 9
    assert rep.upper_value is None


def test_pretzel_report_composite_value_rejected():
    with pytest.raises(CompositeValueError):
        pretzel_mincol_report(PretzelParams(3), 2)


def test_pretzel_lower_bound_is_degree_plus_one():
    for a, m in ((5, 2), (5, 3), (7, 2)):
        rep = pretzel_mincol_report(PretzelParams(a), m)
        assert rep.improved == rep.poly.degree + 1 == a + 4
