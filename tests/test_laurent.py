"""Exact Laurent-polynomial arithmetic and the determinant pipeline."""

import os
import resource
import subprocess
import sys
from math import factorial, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfox import (
    DiagramError,
    InexactDivisionError,
    LaurentPoly,
    NormalizationError,
    QuandleParams,
    alexander_matrix,
    build_diagram,
    coloring_matrix,
    exact_div,
    first_minor,
    get_diagram,
    load_registry,
    parse_pd,
    parse_poly,
    reduce_normalize,
    unit_equivalent,
)
import qfox
from qfox import sparse
from qfox.laurent import AlexMatrix, normalize_unit
from qfox.families import (
    PretzelParams,
    TorusParams,
    braid_closure,
    pretzel_alexander,
    pretzel_diagram,
    torus_alexander,
    torus_diagram,
)

from oracles import (
    _newton_expand,
    alexander_matrix_reference,
    det_bareiss,
    det_cofactor,
    det_int,
    det_pencil,
    markowitz_inverse,
    RingPoly,
)

ONE = LaurentPoly((1,))


# -- representation ------------------------------------------------------


def test_canonical_form_trims_zeros():
    p = LaurentPoly((0, 0, 1, 2, 0), -1)
    assert p.coeffs == (1, 2)
    assert p.min_exp == 1


def test_zero_poly_is_canonical():
    assert LaurentPoly((0, 0), 5) == LaurentPoly()
    assert LaurentPoly().degree == -1


def test_from_terms_merges_duplicates():
    p = LaurentPoly.from_terms([(0, 1), (2, 3), (2, -3)])
    assert p == ONE


def test_str_golden():
    p = parse_poly("2 - 3t + 3t^2 - 3t^3 + 2t^4")
    assert str(p) == "2 - 3t + 3t^2 - 3t^3 + 2t^4"
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly((-1, 0, 1), -2)) == "-t^-2 + 1"


def test_parse_accepts_star_and_whitespace():
    assert parse_poly("1 - 2*t + t ^2") == parse_poly("1 - 2t + t^2")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("1 + q^2")
    with pytest.raises(ValueError):
        parse_poly("")


@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-9, 9)), min_size=0, max_size=8
    )
)
def test_parse_str_roundtrip(terms):
    p = LaurentPoly.from_terms(terms)
    if p.min_exp < 0:
        p = p.shifted(-p.min_exp)
    assert parse_poly(str(p)) == p


def test_evaluate_horner():
    p = parse_poly("1 + t - 3t^2 + t^3 + t^4")
    assert p.evaluate(2) == 15
    assert p.evaluate(4) == 277
    assert p.evaluate(-1) == -3


def test_evaluate_rejects_negative_exponents():
    with pytest.raises(ValueError):
        LaurentPoly((1,), -1).evaluate(2)


# -- ring operations ------------------------------------------------------


@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)), max_size=6),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)), max_size=6),
)
def test_mul_commutes(a_terms, b_terms):
    a = RingPoly.from_terms(a_terms)
    b = RingPoly.from_terms(b_terms)
    assert a * b == b * a


@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)), max_size=6),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)), min_size=1, max_size=6),
)
@example([(0, -1), (1, 3)], [(0, 1), (1, 2)])  # (3t - 1)(2t + 1) / (2t + 1)
def test_exact_div_roundtrip(a_terms, b_terms):
    a = RingPoly.from_terms(a_terms)
    b = RingPoly.from_terms(b_terms)
    if b.is_zero:
        return
    assert exact_div(a * b, b) == a


def test_exact_div_rejects_remainder():
    with pytest.raises(InexactDivisionError) as exc:
        exact_div(parse_poly("1 + t + t^2"), parse_poly("1 + t"))
    assert exc.value.remainder == [(0, 1)]
    # 2 does not divide the top coefficient 1: the first step is inexact
    with pytest.raises(InexactDivisionError) as exc:
        exact_div(parse_poly("1 + t"), parse_poly("1 + 2t"))
    assert exc.value.remainder == [(0, 1), (1, 1)]


def test_exact_div_laurent_units():
    # dividing by a monomial only shifts
    p = parse_poly("1 - t + t^2")
    assert exact_div(p.shifted(3), LaurentPoly((1,), 3)) == p


def test_unit_equivalent():
    p = parse_poly("1 - t + t^2")
    assert unit_equivalent(p, p.shifted(4))
    assert unit_equivalent(p, (-p).shifted(-2))
    assert not unit_equivalent(p, LaurentPoly(tuple([2 * c for c in p.coeffs]), p.min_exp))
    assert not unit_equivalent(p, parse_poly("2 - t + t^2"))


# -- determinants ----------------------------------------------------------


def _poly_matrix(seed_rows):
    return [[LaurentPoly.from_terms(cell) for cell in row] for row in seed_rows]


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(
                st.lists(
                    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=3
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=60)
def test_bareiss_matches_cofactor(seed_rows):
    rows = _poly_matrix(seed_rows)
    assert det_bareiss(rows) == det_cofactor([row[:] for row in rows])


def test_bareiss_known_2x2():
    rows = _poly_matrix(
        [
            [[(0, 1)], [(1, 1)]],
            [[(0, -1)], [(0, 2)]],
        ]
    )
    assert det_bareiss(rows) == parse_poly("2 + t")


_INT_MATRIX = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
)


@st.composite
def _pencils(draw):
    """Integer pencils A + tB up to 5x5 with entries in -2..2; sometimes
    singular, with the last rows of A and B multiples of their first rows."""
    a = draw(_INT_MATRIX)
    n = len(a)
    b = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        a[-1], b[-1] = [k * x for x in a[0]], [k * x for x in b[0]]
    return a, b


def _pencil_poly(a, b):
    return [[LaurentPoly((x, y)) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


@given(_pencils())
@example(([], []))
@example(([[0, 1], [1, 0]], [[1, 0], [0, 0]]))  # pivot t vanishes at t = 0
@example(([[1, 0], [0, 1]], [[-1, 1], [1, 0]]))  # pivot 1 - t vanishes at t = 1
@example(([[-2, 1, 0], [1, 0, 1], [0, 1, 0]], [[1, 0, 1], [0, 1, 0], [1, 0, 2]]))  # t = 2
@example(([[0, 1], [0, 2]], [[1, 0], [2, 0]]))  # singular: second row twice the first
@settings(max_examples=150, deadline=None)
def test_interpolated_det_matches_oracles(pencil):
    """det(A + tB) by the integer-interpolation oracle and as a first minor
    of a bordered matrix, against fraction-free Z[t] elimination and
    cofactors."""
    a, b = pencil
    expected = det_cofactor(_pencil_poly(a, b))
    assert det_bareiss(_pencil_poly(a, b)) == expected
    assert det_pencil(a, b) == expected
    # Border with a first row and column that first_minor drops; the
    # matrix holds the (column, a, b) triples of its entries a + bt.
    n = len(a)
    rows = [[(j, 1, -2) for j in range(n + 1)]] + [
        [(0, 2, -2)] + [(j + 1, x, y) for j, (x, y) in enumerate(zip(ra, rb)) if x or y]
        for ra, rb in zip(a, b)
    ]
    assert first_minor(AlexMatrix(rows, tuple(range(n + 1)))) == expected


def test_det_int_small_cases():
    assert det_int([]) == 1
    assert det_int([[0, 2], [3, 4]]) == -6  # zero pivot: row swap flips the sign
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4


def test_newton_expand_rejects_non_integer_polynomial():
    assert _newton_expand([1, 3, 7]) == (1, 1, 1)  # 1 + x + x^2
    with pytest.raises(InexactDivisionError):
        _newton_expand([0, 0, 1])  # x(x - 1)/2


def _pushed(a, b, side):
    """The pencil as (column, a, b) rows, bordered by one more row and
    column holding the constant 2^s: s = 0 when side is None, else the s
    that puts the one-point exponent bound width * (n + 1) + 1 just below
    or just above ONE_POINT_MAX_EXPONENT.  A zero row or column holds H at 1
    whatever the border, so such a pencil is not pushed.  Also returns the
    bordered A and B and the side reached."""
    n = len(a)
    entries = [[x or y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    if not all(map(any, entries)) or not all(map(any, zip(*entries))):
        side = None

    def bordered(s):
        return [ra + [0] for ra in a] + [[0] * n + [1 << s]], [rb + [0] for rb in b] + [[0] * (n + 1)]

    def rows(s):
        a2, b2 = bordered(s)
        return [[(j, x, y) for j, (x, y) in enumerate(zip(ra, rb)) if x or y] for ra, rb in zip(a2, b2)]

    def exponent_bound(s):
        return (sparse._coefficient_bound(rows(s)).bit_length() + 2) * (n + 2) + 1

    s = 0
    if side:
        s = next(s for s in range(sparse.ONE_POINT_MAX_EXPONENT) if exponent_bound(s) >= sparse.ONE_POINT_MAX_EXPONENT)
        s -= side == "below"
    return rows(s), *bordered(s), side


@given(_pencils(), st.sampled_from([None, "below", "above"]))
@example(([[0, 1], [1, 0]], [[0, 0], [0, 0]]), None)  # odd pivot permutation: det -1
@example(([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]), "above")  # a 3-cycle
@example(([[0, 1], [1, 0]], [[1, 0], [0, 0]]), "below")  # det -1: odd permutation
@example(([[0, 1], [0, 2]], [[1, 0], [2, 0]]), "above")  # singular
@settings(max_examples=100, deadline=None)
def test_one_point_and_n_plus_1_points_match_oracles(pencil, side):
    """Both evaluations of det(A + tB), called directly on the same pencil,
    against cofactors and fraction-free Z[t] elimination, with pencils
    bordered by a constant that puts the one-point modulus just either side
    of the cutoff; no coefficient exceeds H, taken from the smaller of the
    row and column forms of Hadamard's bound."""
    rows, a, b, side = _pushed(*pencil, side)
    expected = det_cofactor(_pencil_poly(a, b))
    assert det_bareiss(_pencil_poly(a, b)) == expected
    weights = [[(abs(x) + abs(y)) ** 2 for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    h = isqrt(min(prod(map(sum, weights)), prod(map(sum, zip(*weights))))) + 1
    assert sparse._coefficient_bound(rows) == h
    width = h.bit_length() + 2
    one_point = sparse._det_at_one_point(rows, width)
    points = sparse._det_at_points(rows, h)
    assert len(one_point) == len(points) == len(rows) + 1
    assert LaurentPoly(tuple(one_point)) == LaurentPoly(tuple(points)) == expected
    assert max(map(abs, one_point)) <= h
    below = width * (len(rows) + 1) + 1 < sparse.ONE_POINT_MAX_EXPONENT
    if side:
        assert below == (side == "below")
    assert sparse.pencil_det(rows) == (one_point if below else points)


def test_odd_pivot_permutation_starts_the_replay_at_minus_one():
    """The pivots of [[0, 1], [1, t]] take row 0 to column 1 and row 1 to
    column 0, a transposition, so the replay starts det at p - 1."""
    rows = [[(1, 1, 0)], [(0, 1, 0), (1, 0, 1)]]
    compiled = sparse._compile(rows, [(0, 1), (1, 0)])
    assert compiled[3] == -1
    assert sparse._replay(compiled, 5, (1 << 61) - 1) == (1 << 61) - 2
    assert sparse.pencil_det(rows) == [-1, 0, 0]


def test_vanishing_replayed_pivot_reruns_markowitz(monkeypatch):
    """det [[t - 2, 3, 0], [1, 2, 0], [0, 0, C]] = C(2t - 7), with C = 2^1105
    large enough to put the pencil past the one-point cutoff.  The generic
    order pivots on C (the shortest row), then on t - 2: both rows and both
    columns have two entries, neither t - 2 nor 3 is +-2^s, and ties go to
    the lowest index.  t - 2 vanishes at the first interpolation point
    t = 2, so Markowitz runs again there and only there."""
    c = 1 << 1105
    rows = [[(0, -2, 1), (1, 3, 0)], [(0, 1, 0), (1, 2, 0)], [(2, c, 0)]]
    h = sparse._coefficient_bound(rows)
    assert (h.bit_length() + 2) * 4 + 1 >= sparse.ONE_POINT_MAX_EXPONENT
    calls = []
    markowitz = sparse._markowitz
    monkeypatch.setattr(sparse, "_markowitz", lambda rows, p: calls.append((rows, p)) or markowitz(rows, p))
    assert sparse.pencil_det(rows) == [-7 * c, 2 * c, 0, 0]
    assert calls[0][1] == sparse._ORDER_P
    assert markowitz(*calls[0])[1] == [(2, 2), (0, 0), (1, 1)]
    p = sparse._mersenne_above(h)
    assert calls[1:] == [([{1: 3}, {0: 1, 1: 2}, {2: c % p}], p)]  # the matrix at t = 2


def test_one_point_is_one_markowitz_elimination(monkeypatch):
    """Below the cutoff a pencil takes one Markowitz elimination, on the
    pencil at t = 2^K mod the one-point modulus, and neither an ordering
    run nor a compile nor a replay."""
    rows = [[(0, -2, 1), (1, 1, 0)], [(0, 1, 0), (1, 2, 0)]]
    width = sparse._coefficient_bound(rows).bit_length() + 2
    p = sparse._mersenne_above(1 << width * 3)
    calls = []
    markowitz = sparse._markowitz
    monkeypatch.setattr(sparse, "_markowitz", lambda rows, p: calls.append((rows, p)) or markowitz(rows, p))
    for name in ("_compile", "_replay"):
        monkeypatch.setattr(sparse, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    assert sparse.pencil_det(rows) == [-5, 2, 0]
    assert calls == [(sparse.pencil_at(rows, 1 << width, p), p)]


def test_relation_minors_need_no_second_markowitz(monkeypatch, registry):
    """One Markowitz elimination per minor on both paths: at one point it
    gives the value at t = 2^K itself, and past the cutoff it orders the
    pivots of a replay that succeeds at every point t >= 2 of P(-2,3,55),
    where no relation entry t, 1 - t or -1 vanishes."""
    diagrams = [build_diagram(pd, name) for name, pd in registry.items()]
    diagrams += [torus_diagram(TorusParams(5, 7)), pretzel_diagram(PretzelParams(21))]
    diagrams += [pretzel_diagram(PretzelParams(55))]
    calls = []
    markowitz = sparse._markowitz
    monkeypatch.setattr(sparse, "_markowitz", lambda rows, p: calls.append(rows) or markowitz(rows, p))
    for d in diagrams:
        calls.clear()
        first_minor(alexander_matrix(d))
        assert len(calls) == 1, d.name


@pytest.mark.parametrize(
    "diagram,closed_form,points,exponent",
    [
        (torus_diagram(TorusParams(2, 31)), torus_alexander(TorusParams(2, 31)), 1, 1279),
        (pretzel_diagram(PretzelParams(33)), pretzel_alexander(PretzelParams(33)), 1, 2203),
        (torus_diagram(TorusParams(5, 13)), torus_alexander(TorusParams(5, 13)), 1, 3217),
        (torus_diagram(TorusParams(7, 10)), torus_alexander(TorusParams(7, 10)), 1, 3217),
        (pretzel_diagram(PretzelParams(55)), pretzel_alexander(PretzelParams(55)), 59 + 1, 89),
        (pretzel_diagram(PretzelParams(65)), pretzel_alexander(PretzelParams(65)), 69 + 1, 107),
        (torus_diagram(TorusParams(6, 23)), torus_alexander(TorusParams(6, 23)), 114 + 1, 107),
        (pretzel_diagram(PretzelParams(95)), pretzel_alexander(PretzelParams(95)), 99 + 1, 521),
    ],
    ids=["T(2,31)", "P(-2,3,33)", "T(5,13)", "T(7,10)", "P(-2,3,55)", "P(-2,3,65)", "T(6,23)", "P(-2,3,95)"],
)
def test_first_minor_under_each_modulus(monkeypatch, diagram, closed_form, points, exponent):
    """Each minor is evaluated at one point below the cutoff, modulo the
    Mersenne prime above its one-point bound, and past it at n + 1 points
    modulo the prime above twice its coefficient bound H; the reduced
    polynomial is the closed form.  An evaluation is a pencil read at t (one point)
    or a replay at t (n + 1 points) modulo a prime other than the ordering
    run's."""
    evaluations: dict[int, set[int]] = {}
    for name in ("pencil_at", "_replay"):
        f = getattr(sparse, name)

        def record(first, t, p, f=f):
            if p != sparse._ORDER_P:
                evaluations.setdefault(p, set()).add(t)
            return f(first, t, p)

        monkeypatch.setattr(sparse, name, record)
    minor = first_minor(alexander_matrix(diagram))
    assert [(len(ts), p) for p, ts in evaluations.items()] == [(points, (1 << exponent) - 1)]
    assert reduce_normalize(minor, components=1) == closed_form


def test_ordering_mod_2_61_minus_1_keeps_the_order(monkeypatch, registry):
    """The ordering run works mod 2^61 - 1.  On the registry's minors,
    T(2,501) and P(-2,3,95) it picks the order that the pencil's own
    n + 1-point modulus, the prime above twice its bound H, picks."""
    diagrams = [build_diagram(pd, name) for name, pd in registry.items()]
    diagrams += [torus_diagram(TorusParams(2, 501)), pretzel_diagram(PretzelParams(95))]
    minors = []
    monkeypatch.setattr(qfox.laurent, "pencil_det", lambda rows: minors.append(rows) or [1])
    for d in diagrams:
        first_minor(alexander_matrix(d))
    for d, rows in zip(diagrams, minors, strict=True):
        p = sparse._mersenne_above(sparse._coefficient_bound(rows))
        order = sparse._markowitz(sparse.pencil_at(rows, sparse._GENERIC_T, p), p)[1]
        assert sparse._markowitz(sparse.pencil_at(rows, sparse._GENERIC_T, sparse._ORDER_P), sparse._ORDER_P)[1] == order, d.name


@st.composite
def _sparse_squares(draw):
    """A sparse square matrix mod 2^61 - 1 or 2^521 - 1 as rows {column:
    value non-zero mod p}, rich in entries +-2^s: empty rows, and singular
    matrices, where one row is a multiple of another, are drawn too."""
    p = draw(st.sampled_from([(1 << 61) - 1, (1 << 521) - 1]))
    n = draw(st.integers(1, 8))
    shift = st.builds(lambda s, neg: p - (1 << s) if neg else 1 << s, st.integers(0, p.bit_length() - 1), st.booleans())
    value = st.one_of(st.integers(1, 3), st.just(p - 1), st.integers(1, p - 1), shift)
    rows = [draw(st.dictionaries(st.integers(0, n - 1), value, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        i, k, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(value)
        rows[k] = {j: v * c % p for j, v in rows[i].items()}
    return rows, p


P61, P521 = (1 << 61) - 1, (1 << 521) - 1


@given(_sparse_squares())
@example(([{0: 1, 1: 1}, {}], P61))  # an empty row
@example(([{0: 1, 1: 2}, {0: 2, 1: 4}], P521))  # singular, no empty row
@example(([{1: 1}, {0: 1}], P61))  # odd pivot permutation: det -1
# -4 in column 1 before 3 in column 0, rotated into both target rows; then
# a general pivot with one target: den = 1, det -44
@example(([{0: 3, 1: P521 - 4}, {0: 5, 1: 6, 2: 7}, {0: 9, 1: 10, 2: 11}], P521))
# a general pivot 3 with two targets, den = 3; row 1 then holds -8 in
# column 2 and -12 in column 1 (-8/3 and -4 in the oracle), so column 2; det 4
@example(([{0: 3, 1: 6, 2: 5}, {0: 7, 1: 10, 2: 9}, {0: 11, 1: 13, 2: 12}], P61))
@example(([{0: 3, 1: 5}, {0: 7, 1: 9}], P61))  # one general pivot, one target: den = 1, det -8
# 2^520 and -2^520 mod 2^521 - 1 lie above p / 2, so their balanced residues
# are -(2^520 - 1) and 2^520 - 1; each is still a shift pivot, chosen over 3
@example(([{0: 3, 1: 1 << 520}, {0: 5, 1: 6, 2: 7}, {0: 9, 1: 10, 2: 11}], P521))
@example(([{0: 3, 1: P521 - (1 << 520)}, {0: 5, 1: 6, 2: 7}, {0: 9, 1: 10, 2: 11}], P521))
# small negative entries: the pivot -1 clears by integer arithmetic; det -182
@example(([{0: P61 - 3, 1: P61 - 1, 2: 5}, {0: 2, 1: P61 - 7, 2: P61 - 1}, {0: P61 - 2, 1: 4, 2: P61 - 6}], P61))
@settings(max_examples=200, deadline=None)
def test_fraction_free_markowitz_matches_the_inverse_based_oracle(case):
    """The fraction-free elimination with folded products and rotations
    gives the determinant and the pivot order of the elimination by
    inverses under the same pivot rule, and leaves its input as it was."""
    rows, p = case
    before = [dict(r) for r in rows]
    assert sparse._markowitz(rows, p) == markowitz_inverse(rows, p)
    assert rows == before


@pytest.mark.parametrize(
    "rows,p,det,order,inverse",
    [
        ([{0: 3, 1: P521 - 4}, {0: 5, 1: 6, 2: 7}, {0: 9, 1: 10, 2: 11}], P521, -44, [(0, 1), (1, 0), (2, 2)], False),
        ([{0: 3, 1: 6, 2: 5}, {0: 7, 1: 10, 2: 9}, {0: 11, 1: 13, 2: 12}], P61, 4, [(0, 0), (1, 2), (2, 1)], True),
        ([{0: 3, 1: 5}, {0: 7, 1: 9}], P61, -8, [(0, 0), (1, 1)], False),
    ],
    ids=["shift-pivot", "two-targets", "one-target"],
)
def test_markowitz_inverts_only_what_general_pivots_leave(monkeypatch, rows, p, det, order, inverse):
    """A +-2^s pivot is preferred among the sparsest columns and costs no
    factor; a general pivot with t targets leaves pv^(t - 1), so the
    inverse runs only after a general pivot with two or more targets."""
    calls = []
    monkeypatch.setattr(sparse, "pow", lambda *args: calls.append(args) or pow(*args), raising=False)
    assert sparse._markowitz(rows, p) == (det % p, order)
    assert bool(calls) == inverse


def test_pretzel_and_two_strand_torus_minors_take_no_inverse(monkeypatch):
    """No general pivot of these P(-2,3,a) and T(2,n) first minors at t = 2^K
    has two targets, so none of them takes an inverse; T(3,4) keeps one."""
    calls = []
    monkeypatch.setattr(sparse, "pow", lambda *args: calls.append(args) or pow(*args), raising=False)
    for diagram, inverse in [
        (pretzel_diagram(PretzelParams(5)), False),
        (pretzel_diagram(PretzelParams(41)), False),
        (torus_diagram(TorusParams(2, 7)), False),
        (torus_diagram(TorusParams(2, 37)), False),
        (torus_diagram(TorusParams(3, 4)), True),
    ]:
        calls.clear()
        first_minor(alexander_matrix(diagram))
        assert bool(calls) == inverse, diagram.name


def test_two_strand_torus_minor_at_n_plus_1_points_inverts_only_n_factorial(monkeypatch):
    """T(2,59) is past the one-point cutoff, so its minor is evaluated at
    n + 1 points, mod 2^89 - 1.  Every step of its ordering run and of its replays scales
    at most one target row, so neither divides anything out, and the
    interpolation inverts n! once: one pow call in all."""
    rows = []
    monkeypatch.setattr(qfox.laurent, "pencil_det", lambda r: rows.append(r) or sparse.pencil_det(r))
    calls = []
    monkeypatch.setattr(sparse, "pow", lambda *args: calls.append(args) or pow(*args), raising=False)
    minor = first_minor(alexander_matrix(torus_diagram(TorusParams(2, 59))))
    assert reduce_normalize(minor, components=1) == torus_alexander(TorusParams(2, 59))
    (pencil,) = rows
    h = sparse._coefficient_bound(pencil)
    assert (h.bit_length() + 2) * (len(pencil) + 1) + 1 >= sparse.ONE_POINT_MAX_EXPONENT
    p = sparse._mersenne_above(h)
    assert p == (1 << 89) - 1
    assert calls == [(factorial(len(pencil)) % p, -1, p)]


def test_first_minor_past_the_modulus_table_raises():
    """2^19937 - 1 is the last modulus: a bound of 2^19935 fits under it,
    2^19937 does not."""
    top = sparse.MERSENNE_EXPONENTS[-1]
    fits = 1 << (top - 2)

    def constant(x):
        return AlexMatrix([[(0, 1, 0), (1, 1, 0)], [(0, 1, 0), (1, x, 0)]], (1, 2))

    assert first_minor(constant(fits)) == LaurentPoly((fits,))
    huge = 1 << top
    with pytest.raises(DiagramError, match="past the largest tabulated modulus"):
        first_minor(constant(huge))


def test_alexander_past_the_modulus_table_exits_1_within_1_gb():
    """T(2,16001) needs a bound H of about 2^20680.  The CLI names the
    modulus table, in well under a gigabyte of address space."""

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    env = {**os.environ, "PYTHONPATH": str(Path(qfox.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "qfox.cli", "alexander", "torus:2,16001"],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_address_space,
    )
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.startswith("error: determinant bound of "), proc.stderr
    assert proc.stderr.endswith(" bits is past the largest tabulated modulus 2^19937 - 1\n")


# -- the diagram pipeline ---------------------------------------------------


def test_alexander_matrix_row_sums_vanish_at_t1(trefoil):
    for row in alexander_matrix(trefoil).rows:
        assert sum(a + b for _, a, b in row) == 0


def _relation_matrix_cases():
    registry = load_registry()
    cases = [get_diagram(name, registry) for name in sorted(registry)]
    cases += [torus_diagram(TorusParams(a, b)) for a, b in [(2, 3), (2, 13), (3, 4), (5, 9)]]
    cases += [pretzel_diagram(PretzelParams(a)) for a in (3, 7, 21)]
    # connected sums as braid closures: granny, square knot, 3_1 # T(2,5), 3_1 # 3_1 # 3_1
    for word in ([1, 1, 1, 2, 2, 2], [1, 1, 1, -2, -2, -2], [1, 1, 1, 2, 2, 2, 2, 2],
                 [1, 1, 1, 2, 2, 2, 3, 3, 3]):
        cases.append(braid_closure(word, name=str(word)))
    # Kinks.  [1]: all three arcs equal.  The trefoil stabilized by sigma_2
    # (over = outgoing under-arc) and by its inverse (over = incoming
    # under-arc): at the negative crossing the relation swaps the under-arc
    # roles, so both sum the over-arc with the arc read at -1.  [1, 2, 2, 2]
    # sums it with the arc read at t instead, and the Hopf link [1, 1] sums
    # the two under-arcs.
    for word in ([1], [1, 1, 1, 2], [1, 1, 1, -2], [1, 2, 2, 2], [1, 1]):
        cases.append(braid_closure(word, name=str(word)))
    return cases


def test_alexander_matrix_equals_laurent_reference():
    """One triple per non-zero entry of the reference, at most three per
    row, in distinct columns; the cases meet every way the arcs of a
    relation can coincide: (arc read at t == over-arc, over-arc == arc read
    at -1, arc read at -1 == arc read at t)."""
    kinks = set()
    for d in _relation_matrix_cases():
        mat = alexander_matrix(d)
        ref = alexander_matrix_reference(d)
        assert (mat.n_rows, mat.n_cols) == (len(d.crossings), len(d.arcs)), d.name
        for row, ref_row in zip(mat.rows, ref, strict=True):
            assert len(row) <= 3 and len({j for j, _, _ in row}) == len(row), d.name
            assert all(a or b for _, a, b in row), d.name
            dense = [LaurentPoly()] * mat.n_cols
            for j, a, b in row:
                dense[j] = LaurentPoly((a, b))
            assert tuple(dense) == ref_row, d.name
        for c in d.crossings:
            x_in, x_out = (c.under_in, c.under_out) if c.sign > 0 else (c.under_out, c.under_in)
            kinks.add((x_in == c.over, c.over == x_out, x_out == x_in))
    assert kinks >= {(True, True, True), (True, False, False), (False, True, False), (False, False, True)}


def test_relation_rows_are_the_reference_evaluated():
    """The pencil at an integer t mod p, as sparse.pencil_at and
    coloring_matrix read it, is the reference evaluated there."""
    for d in _relation_matrix_cases():
        rows = alexander_matrix(d).rows
        ref = alexander_matrix_reference(d)
        for t in (-3, -1, 0, 2, 5):
            for p in (3, 7, (1 << 61) - 1):
                expected = [{j: v for j, e in enumerate(row) if (v := e.evaluate(t) % p)} for row in ref]
                assert sparse.pencil_at(rows, t, p) == expected, (d.name, t, p)
                if t % p:
                    assert coloring_matrix(d, QuandleParams(p, t)) == expected, (d.name, t, p)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("3_1", "1 - t + t^2"),
        ("4_1", "1 - 3t + t^2"),
        ("5_1", "1 - t + t^2 - t^3 + t^4"),
        ("7_3", "2 - 3t + 3t^2 - 3t^3 + 2t^4"),
        ("10_145", "1 + t - 3t^2 + t^3 + t^4"),
        ("T_2_5", "1 - t + t^2 - t^3 + t^4"),
        ("T_2_7", "1 - t + t^2 - t^3 + t^4 - t^5 + t^6"),
        ("T_3_4", "1 - t + t^3 - t^5 + t^6"),
        ("P_m2_3_3", "1 - t + t^3 - t^5 + t^6"),
        ("P_m2_3_5", "1 - t + t^3 - t^4 + t^5 - t^7 + t^8"),
    ],
)
def test_reduced_polynomials_frozen(name, expected):
    d = get_diagram(name)
    red = reduce_normalize(first_minor(alexander_matrix(d)), components=d.components)
    assert str(red) == expected


def test_link_reduction_divides_out_one_minus_t(l4a1):
    minor = first_minor(alexander_matrix(l4a1))
    red = reduce_normalize(minor, components=2)
    assert str(red) == "1 + t^2"
    # the undivided minor is (1 - t) times the reduced value, up to a unit
    assert unit_equivalent(minor, RingPoly.of(parse_poly("1 - t")) * red)


def _first_row_and_column(mat, r, c):
    """mat with row r and column c moved first and the others kept in
    order, so that its first minor deletes row r and column c of mat."""
    rows = [mat.rows[r]] + mat.rows[:r] + mat.rows[r + 1:]
    moved = [[(0 if j == c else j + (j < c), a, b) for j, a, b in row] for row in rows]
    return AlexMatrix(moved, mat.arc_labels)


def test_minor_choice_is_unit_irrelevant():
    for name in ("3_1", "4_1", "5_1", "7_3", "L4a1_1", "T_3_4", "P_m2_3_3"):
        d = get_diagram(name)
        mat = alexander_matrix(d)
        base = first_minor(mat)
        n = mat.n_rows
        for r in range(n):
            for c in range(n):
                assert unit_equivalent(base, first_minor(_first_row_and_column(mat, r, c))), (name, r, c)


@pytest.mark.parametrize("name", ["3_1", "4_1", "7_3", "L4a1_1", "T_3_4"])
def test_first_minor_equals_polynomial_bareiss(name):
    """Exactly the Z[t] Bareiss polynomial, min_exp included, for every
    choice of deleted row and column."""
    d = get_diagram(name)
    mat = alexander_matrix(d)
    ref = alexander_matrix_reference(d)
    for r in range(mat.n_rows):
        for c in range(mat.n_cols):
            rows = [
                [e for j, e in enumerate(row) if j != c]
                for i, row in enumerate(ref)
                if i != r
            ]
            assert first_minor(_first_row_and_column(mat, r, c)) == det_bareiss(rows), (r, c)


def test_first_minor_rejects_empty_and_non_square(trefoil):
    with pytest.raises(DiagramError):
        first_minor(alexander_matrix(build_diagram(parse_pd("PD[]"))))
    mat = alexander_matrix(trefoil)
    with pytest.raises(ValueError, match="non-square"):
        first_minor(AlexMatrix(mat.rows[1:], mat.arc_labels))


def test_full_determinant_vanishes(trefoil, l4a1):
    assert det_cofactor(list(alexander_matrix_reference(trefoil))).is_zero
    assert det_cofactor(list(alexander_matrix_reference(l4a1))).is_zero


def test_normalize_unit_pins_constant_sign():
    p = parse_poly("1 - t + t^2")
    assert normalize_unit((-p).shifted(7)) == p


def test_reduce_normalize_rejects_wrong_shape():
    with pytest.raises(NormalizationError):
        reduce_normalize(parse_poly("1 + t"), components=1)  # not palindromic-even
    with pytest.raises(NormalizationError):
        reduce_normalize(parse_poly("1 + t^2"), components=2)  # 1 - t does not divide
