"""Exact Laurent-polynomial arithmetic and the determinant pipeline."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfox import (
    DiagramError,
    InexactDivisionError,
    LaurentPoly,
    NormalizationError,
    alexander_matrix,
    build_diagram,
    exact_div,
    first_minor,
    get_diagram,
    load_registry,
    parse_pd,
    parse_poly,
    reduce_normalize,
    unit_equivalent,
)
from qfox.laurent import (
    AlexMatrix,
    _newton_expand,
    det_int,
    det_pencil,
    normalize_unit,
    relation_rows,
)
from qfox.families import PretzelParams, TorusParams, braid_closure, pretzel_diagram, torus_diagram

from oracles import alexander_matrix_reference, det_bareiss, det_cofactor

ONE = LaurentPoly.one()


# -- representation ------------------------------------------------------


def test_canonical_form_trims_zeros():
    p = LaurentPoly((0, 0, 1, 2, 0), -1)
    assert p.coeffs == (1, 2)
    assert p.min_exp == 1


def test_zero_poly_is_canonical():
    assert LaurentPoly((0, 0), 5) == LaurentPoly.zero()
    assert LaurentPoly.zero().degree == -1


def test_from_terms_merges_duplicates():
    p = LaurentPoly.from_terms([(0, 1), (2, 3), (2, -3)])
    assert p == ONE


def test_str_golden():
    p = parse_poly("2 - 3t + 3t^2 - 3t^3 + 2t^4")
    assert str(p) == "2 - 3t + 3t^2 - 3t^3 + 2t^4"
    assert str(LaurentPoly.zero()) == "0"
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
    a = LaurentPoly.from_terms(a_terms)
    b = LaurentPoly.from_terms(b_terms)
    assert a * b == b * a


@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)), max_size=6),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)), min_size=1, max_size=6),
)
@example([(0, -1), (1, 3)], [(0, 1), (1, 2)])  # (3t - 1)(2t + 1) / (2t + 1)
def test_exact_div_roundtrip(a_terms, b_terms):
    a = LaurentPoly.from_terms(a_terms)
    b = LaurentPoly.from_terms(b_terms)
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
    assert not unit_equivalent(p, p * LaurentPoly((2,)))
    assert not unit_equivalent(p, p + ONE)


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
    """det(A + tB) by interpolation, directly and as a first minor of a
    bordered matrix, against fraction-free Z[t] elimination and cofactors."""
    a, b = pencil
    expected = det_cofactor(_pencil_poly(a, b))
    assert det_bareiss(_pencil_poly(a, b)) == expected
    assert det_pencil(a, b) == expected
    # Border with a first row and column that first_minor drops; the
    # matrix holds its values at t = 0 and t = 1.
    n = len(a)
    at_0 = [[1] * (n + 1)] + [[2] + r for r in a]
    at_1 = [[-1] * (n + 1)] + [[0] + [x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert first_minor(AlexMatrix(at_0, at_1, tuple(range(n + 1)))) == expected


def test_det_int_small_cases():
    assert det_int([]) == 1
    assert det_int([[0, 2], [3, 4]]) == -6  # zero pivot: row swap flips the sign
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4


def test_newton_expand_rejects_non_integer_polynomial():
    assert _newton_expand([1, 3, 7]) == (1, 1, 1)  # 1 + x + x^2
    with pytest.raises(InexactDivisionError):
        _newton_expand([0, 0, 1])  # x(x - 1)/2


# -- the diagram pipeline ---------------------------------------------------


def test_alexander_matrix_row_sums_vanish_at_t1(trefoil):
    for row in alexander_matrix(trefoil).at_1:
        assert sum(row) == 0


def _relation_matrix_cases():
    registry = load_registry()
    cases = [get_diagram(name, registry) for name in sorted(registry)]
    cases += [torus_diagram(TorusParams(a, b)) for a, b in [(2, 3), (2, 13), (3, 4), (5, 9)]]
    cases += [pretzel_diagram(PretzelParams(a)) for a in (3, 7, 21)]
    # connected sums as braid closures: granny, square knot, 3_1 # T(2,5), 3_1 # 3_1 # 3_1
    for word in ([1, 1, 1, 2, 2, 2], [1, 1, 1, -2, -2, -2], [1, 1, 1, 2, 2, 2, 2, 2],
                 [1, 1, 1, 2, 2, 2, 3, 3, 3]):
        cases.append(braid_closure(word, name=str(word)))
    return cases


def test_alexander_matrix_equals_laurent_reference():
    for d in _relation_matrix_cases():
        mat = alexander_matrix(d)
        ref = alexander_matrix_reference(d)
        assert mat.at_0 == [[e.evaluate(0) for e in row] for row in ref], d.name
        assert mat.at_1 == [[e.evaluate(1) for e in row] for row in ref], d.name
        assert (mat.n_rows, mat.n_cols) == (len(d.crossings), len(d.arcs)), d.name


def test_relation_rows_are_the_reference_evaluated():
    for d in _relation_matrix_cases():
        ref = alexander_matrix_reference(d)
        for t in (-3, -1, 0, 2, 5):
            expected = [[e.evaluate(t) for e in row] for row in ref]
            assert relation_rows(d, t) == expected, (d.name, t)


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
    assert unit_equivalent(minor, parse_poly("1 - t") * red)


def test_minor_choice_is_unit_irrelevant():
    for name in ("3_1", "4_1", "5_1", "7_3", "L4a1_1", "T_3_4", "P_m2_3_3"):
        d = get_diagram(name)
        mat = alexander_matrix(d)
        base = first_minor(mat)
        n = mat.n_rows
        for r in range(n):
            for c in range(n):
                assert unit_equivalent(base, first_minor(mat, r, c)), (name, r, c)


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
            assert first_minor(mat, r, c) == det_bareiss(rows), (r, c)


def test_first_minor_rejects_empty_and_out_of_range(trefoil):
    with pytest.raises(DiagramError):
        first_minor(alexander_matrix(build_diagram(parse_pd("PD[]"))))
    with pytest.raises(IndexError):
        first_minor(alexander_matrix(trefoil), drop_row=len(trefoil.crossings))


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
