"""Colorings: quandle algebra, kernels, minima, and the collapse checks."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfox import (
    Coloring,
    ColoringError,
    QuandleParams,
    alexander_matrix,
    build_diagram,
    collapse_and_check,
    coloring_from_anchors,
    coloring_matrix,
    first_minor,
    get_diagram,
    is_nontrivially_colorable,
    kernel_basis,
    kh_witness,
    kl_lower_bound,
    load_registry,
    min_colors_on_diagram,
    parse_pd,
    quandle_op,
    quandle_op_inv,
    reduce_normalize,
    smallest_prime_factor,
    verify_coloring,
)
from qfox import coloring
from qfox.coloring import _affine_canonical, _orbit_representatives
from qfox.laurent import bareiss
from oracles import enumerate_colorings_brute, kernel_vectors, pivot_rows_fraction, rank
from qfox.families import braid_closure, pretzel_diagram, PretzelParams, torus_diagram, TorusParams


def valid_params():
    return (
        st.integers(3, 30)
        .flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(-n, n).filter(lambda m: math.gcd(m, n) == 1),
            )
        )
        .map(lambda nm: QuandleParams(*nm))
    )


# -- quandle algebra -----------------------------------------------------------


@given(valid_params(), st.integers(0, 29))
def test_idempotence(params, x):
    assert quandle_op(params, x % params.n, x % params.n) == x % params.n


@given(valid_params(), st.integers(0, 29), st.integers(0, 29))
def test_right_translation_invertible(params, x, y):
    x, y = x % params.n, y % params.n
    assert quandle_op_inv(params, quandle_op(params, x, y), y) == x
    assert quandle_op(params, quandle_op_inv(params, x, y), y) == x


@given(valid_params(), st.integers(0, 29), st.integers(0, 29), st.integers(0, 29))
def test_right_self_distributivity(params, x, y, z):
    x, y, z = x % params.n, y % params.n, z % params.n
    lhs = quandle_op(params, quandle_op(params, x, y), z)
    rhs = quandle_op(
        params, quandle_op(params, x, z), quandle_op(params, y, z)
    )
    assert lhs == rhs


@given(st.integers(3, 30), st.integers(0, 29), st.integers(0, 29))
def test_dihedral_special_case(n, x, y):
    params = QuandleParams(n, -1)
    assert quandle_op(params, x % n, y % n) == (2 * y - x) % n


def test_op_small_case():
    assert quandle_op(QuandleParams(5, 2), 1, 0) == 2


def test_params_validation():
    with pytest.raises(ColoringError):
        QuandleParams(2, 1)
    with pytest.raises(ColoringError):
        QuandleParams(9, 3)


# -- matrices and kernels --------------------------------------------------------


def test_trefoil_matrix_rank(trefoil):
    mat = coloring_matrix(trefoil, QuandleParams(3, 2))
    assert len(mat.rows) == 3 and len(mat.rows[0]) == 3
    assert rank(mat) == 1
    assert len(kernel_basis(mat)) == 2


def test_trefoil_kernel_trivial_when_prime_misses(trefoil):
    mat = coloring_matrix(trefoil, QuandleParams(5, 2))
    assert len(kernel_basis(mat)) == 1


def test_kernel_requires_prime_modulus(trefoil):
    with pytest.raises(ColoringError):
        kernel_basis(coloring_matrix(trefoil, QuandleParams(9, 2)))


def test_all_ones_always_in_kernel(trefoil, l4a1):
    for d, params in [
        (trefoil, QuandleParams(3, 2)),
        (l4a1, QuandleParams(5, 2)),
    ]:
        vecs = kernel_vectors(d, params)
        assert tuple([1] * len(d.arcs)) in vecs


@pytest.mark.parametrize(
    "name,p,m,expected",
    [
        ("3_1", 3, 2, True),
        ("3_1", 5, 2, False),
        ("L4a1_1", 5, 2, True),
        ("7_3", 101, 3, True),   # value at 3 is 101
        ("7_3", 5, 3, False),
    ],
)
def test_is_nontrivially_colorable(name, p, m, expected):
    assert is_nontrivially_colorable(get_diagram(name), QuandleParams(p, m)) is expected


# -- minima -----------------------------------------------------------------------


def test_min_colors_trefoil(trefoil):
    count, witness = min_colors_on_diagram(trefoil, QuandleParams(3, 2))
    assert count == 3
    assert verify_coloring(trefoil, witness)
    assert witness.distinct == 3


def test_min_colors_link(l4a1):
    count, witness = min_colors_on_diagram(l4a1, QuandleParams(5, 2))
    assert count == 4
    assert verify_coloring(l4a1, witness)


def test_min_colors_torus_2_5():
    d = torus_diagram(TorusParams(2, 5))
    count, witness = min_colors_on_diagram(d, QuandleParams(11, 2))
    assert count == 5
    assert verify_coloring(d, witness)


def test_min_colors_raises_when_uncolorable(trefoil):
    with pytest.raises(ColoringError):
        min_colors_on_diagram(trefoil, QuandleParams(5, 2))


# -- verification ------------------------------------------------------------------


def test_constant_coloring_always_valid(trefoil):
    c = Coloring(7, 3, {a: 4 for a in trefoil.arcs})
    assert verify_coloring(trefoil, c)


def test_explicit_trefoil_coloring(trefoil):
    good = Coloring(3, 2, {1: 1, 2: 0, 3: 2})
    assert verify_coloring(trefoil, good)
    bad = Coloring(3, 2, {1: 1, 2: 0, 3: 1})
    assert not verify_coloring(trefoil, bad)


def test_verify_needs_every_arc(trefoil):
    assert not verify_coloring(trefoil, Coloring(3, 2, {1: 0, 2: 0}))


def test_verify_composite_modulus(trefoil):
    # mod-9 dihedral coloring: a valid non-trivial assignment exists
    c = Coloring(9, -1, {1: 0, 2: 6, 3: 3})
    assert verify_coloring(trefoil, c)
    assert not verify_coloring(trefoil, Coloring(9, -1, {1: 0, 2: 6, 3: 4}))


@pytest.mark.parametrize("a,b", [(1, 0), (2, 3), (4, 4), (3, 1)])
def test_affine_maps_preserve_colorings(l4a1, a, b):
    _, witness = min_colors_on_diagram(l4a1, QuandleParams(5, 2))
    moved = Coloring(5, 2, {k: (a * v + b) % 5 for k, v in witness.colors.items()})
    assert verify_coloring(l4a1, moved)
    assert moved.distinct == witness.distinct


def test_coloring_json_roundtrip():
    c = Coloring(5, 2, {1: 0, 2: 1, 3: 3, 4: 2})
    assert Coloring.from_json(c.to_json()) == c
    assert c.to_json()["p"] == 5


# -- anchored solving -----------------------------------------------------------------


def test_anchors_pin_unique_coloring(trefoil):
    c = coloring_from_anchors(trefoil, QuandleParams(3, 2), {1: 1, 2: 0})
    assert c.colors == {1: 1, 2: 0, 3: 2}


def test_anchors_inconsistent(trefoil):
    with pytest.raises(ColoringError):
        coloring_from_anchors(trefoil, QuandleParams(3, 2), {1: 0, 2: 0, 3: 1})


def test_anchors_underdetermined(trefoil):
    with pytest.raises(ColoringError):
        coloring_from_anchors(trefoil, QuandleParams(3, 2), {1: 1})


@pytest.mark.parametrize(
    "word,p,m",
    [([1, 1, 1], 3, 2), ([1, -2, 1, -2], 5, 4), ([1, 1, 1, 1], 5, 2), ([1, 1, 1, 2, 2, 2], 3, 2)],
)
def test_anchors_match_kernel_enumeration(word, p, m):
    """Random anchor sets on 3_1, 4_1, L4a1 and the granny knot (kernel
    dimension 3 at p = 3): the one kernel vector taking the anchored
    values, or the named error when none or p^k of them do."""
    d = braid_closure(word)
    params = QuandleParams(p, m)
    vectors = kernel_vectors(d, params)
    rng = random.Random(len(word) * p)
    for _ in range(60):
        arcs = rng.sample(d.arcs, rng.randint(1, min(4, len(d.arcs))))
        anchors = {a: rng.randrange(p) for a in arcs}
        hits = [v for v in vectors if all(v[d.arcs.index(a)] == c for a, c in anchors.items())]
        if len(hits) == 1:
            assert coloring_from_anchors(d, params, anchors).colors == dict(zip(d.arcs, hits[0]))
            continue
        if hits:
            k = round(math.log(len(hits), p))
            assert p**k == len(hits)
            match = f"anchors leave {k} kernel degrees of freedom"
        else:
            match = "anchor constraints are inconsistent"
        with pytest.raises(ColoringError, match=match):
            coloring_from_anchors(d, params, anchors)


def test_anchors_reject_unknown_arc_empty_diagram_and_composite_modulus(trefoil):
    with pytest.raises(ColoringError, match="anchor arc 9 is not an arc"):
        coloring_from_anchors(trefoil, QuandleParams(3, 2), {1: 0, 9: 1})
    with pytest.raises(ColoringError, match="kernel is trivial"):
        coloring_from_anchors(build_diagram(parse_pd("PD[]")), QuandleParams(3, 2), {})
    with pytest.raises(ColoringError, match="prime modulus"):
        coloring_from_anchors(trefoil, QuandleParams(9, 2), {1: 0, 2: 1})


# -- exhaustive oracle ------------------------------------------------------------------


@pytest.mark.parametrize("name,p,m", [("3_1", 3, 2), ("L4a1_1", 5, 2)])
def test_kernel_matches_brute_force(name, p, m):
    d = get_diagram(name)
    params = QuandleParams(p, m)
    assert kernel_vectors(d, params) == enumerate_colorings_brute(d, params)


def test_min_matches_brute_force(l4a1):
    params = QuandleParams(5, 2)
    brute = enumerate_colorings_brute(l4a1, params)
    best = min(len(set(v)) for v in brute if len(set(v)) > 1)
    assert min_colors_on_diagram(l4a1, params)[0] == best


# -- KH behavior ---------------------------------------------------------------------------


def test_kh_torus_2_3():
    d = torus_diagram(TorusParams(2, 3))
    assert kh_witness(d, QuandleParams(7, 3), reduced_alternating=True) is not None


def test_kh_torus_2_5():
    d = torus_diagram(TorusParams(2, 5))
    w = kh_witness(d, QuandleParams(11, 2), reduced_alternating=True)
    assert w is not None
    assert w.distinct == len(d.arcs)
    assert verify_coloring(d, w)


def test_kh_figure_eight():
    d = get_diagram("4_1")
    assert kh_witness(d, QuandleParams(5, 4), reduced_alternating=True) is not None


def test_kh_false_when_minimum_stays_low():
    d = pretzel_diagram(PretzelParams(5))   # 10 arcs, minimum is 9
    assert kh_witness(d, QuandleParams(151, 2), reduced_alternating=True) is None


def test_kh_preconditions(trefoil):
    with pytest.raises(ColoringError):
        kh_witness(trefoil, QuandleParams(7, 3), reduced_alternating=False)
    with pytest.raises(ColoringError):
        kh_witness(trefoil, QuandleParams(9, 2), reduced_alternating=True)
    with pytest.raises(ColoringError):
        kh_witness(trefoil, QuandleParams(7, 9), reduced_alternating=True)
    with pytest.raises(ColoringError):
        # value at m is 3, not 5
        kh_witness(trefoil, QuandleParams(5, 2), reduced_alternating=True)


# -- collapse ---------------------------------------------------------------------------------


def test_collapse_trefoil(trefoil):
    _, witness = min_colors_on_diagram(trefoil, QuandleParams(3, 2))
    rep = collapse_and_check(trefoil, witness)
    assert rep.distinct == 3
    assert abs(rep.det_b) == 3
    assert rep.bound == 4
    assert rep.divisible and rep.bounded and rep.ok


def test_collapse_link(l4a1):
    _, witness = min_colors_on_diagram(l4a1, QuandleParams(5, 2))
    rep = collapse_and_check(l4a1, witness)
    assert rep.distinct == 4
    assert abs(rep.det_b) == 5   # 5 | det B and |det B| <= 8 force this
    assert rep.bound == 8
    assert rep.ok


def test_collapse_all_distinct_keeps_every_column(trefoil):
    _, witness = min_colors_on_diagram(trefoil, QuandleParams(7, 3))
    assert witness.distinct == len(trefoil.arcs)
    rep = collapse_and_check(trefoil, witness)
    assert rep.distinct == 3
    assert rep.ok


def test_collapse_rejects_trivial(trefoil):
    with pytest.raises(ColoringError, match="non-trivial coloring required"):
        collapse_and_check(trefoil, Coloring(3, 2, {1: 1, 2: 1, 3: 1}))


def test_collapse_rejects_composite_modulus(trefoil):
    with pytest.raises(ColoringError):
        collapse_and_check(trefoil, Coloring(9, -1, {1: 0, 2: 6, 3: 3}))


def test_collapse_rejects_invalid_coloring(trefoil):
    with pytest.raises(ColoringError):
        collapse_and_check(trefoil, Coloring(3, 2, {1: 1, 2: 0, 3: 1}))


def test_collapse_report_json(l4a1):
    _, witness = min_colors_on_diagram(l4a1, QuandleParams(5, 2))
    data = collapse_and_check(l4a1, witness).to_json()
    assert data["p"] == 5 and data["distinct"] == 4 and data["ok"] is True


# -- empirical lower-bound consistency ----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("3_1", 3, 2), ("3_1", 7, 3), ("4_1", 5, 4), ("L4a1_1", 5, 2),
                        ("L4a1_1", 17, 4), ("5_1", 11, 2)]))
def test_every_minimum_respects_log_bound(case):
    name, p, m = case
    d = get_diagram(name)
    count, _ = min_colors_on_diagram(d, QuandleParams(p, m))
    big_m = max(abs(m), abs(m - 1))
    fl = 0
    v = big_m
    while v <= p:
        v *= big_m
        fl += 1
    assert count >= 2 + fl


# -- kernel dimension >= 3: connected sums ----------------------------------------------------


def _sum(*ns):
    """T(2, n_1) # ... # T(2, n_k) as the closure of s_1^n_1 s_2^n_2 ..."""
    return braid_closure([i + 1 for i, n in enumerate(ns) for _ in range(n)])


# (summands, p, m, kernel dimension): p divides the value of T(2, n) at m
SUMS = [
    ((3, 3), 3, 2, 3),
    ((3, 3), 7, 3, 3),
    ((5, 5), 11, 2, 3),
    ((3, 3, 3), 3, 2, 4),
]


def _nonconstant(vectors):
    return [v for v in vectors if len(set(v)) > 1]


@pytest.mark.parametrize("ns,p,m,dim", SUMS)
def test_min_colors_of_sums_match_kernel_oracle(ns, p, m, dim):
    d = _sum(*ns)
    params = QuandleParams(p, m)
    vectors = kernel_vectors(d, params)
    assert len(vectors) == p**dim
    count, witness = min_colors_on_diagram(d, params)
    assert count == min(len(set(v)) for v in _nonconstant(vectors))
    assert witness.distinct == count
    assert verify_coloring(d, witness)
    assert collapse_and_check(d, witness).ok


@pytest.mark.parametrize("ns,p,m,dim", SUMS)
def test_orbit_representatives_are_one_per_affine_class(ns, p, m, dim):
    d = _sum(*ns)
    params = QuandleParams(p, m)
    reps = [tuple(v) for v in _orbit_representatives(d, params)]
    assert len(reps) == (p ** (dim - 1) - 1) // (p - 1)
    canon = {_affine_canonical(v, p) for v in reps}
    assert len(canon) == len(reps)      # pairwise affine-inequivalent
    every = {_affine_canonical(v, p) for v in _nonconstant(kernel_vectors(d, params))}
    assert canon == every


def test_affine_canonical_rejects_constant_vector():
    with pytest.raises(ColoringError, match="constant vector"):
        _affine_canonical((4, 4, 4), 7)
    assert _affine_canonical((3, 5, 3), 7) == (0, 1, 0)


# -- the Kauffman-Lopes bound as an invariant of the search ------------------------------------


def _registry_knot_cases():
    for name in sorted(load_registry()):
        d = get_diagram(name)
        if d.components != 1:
            continue
        red = reduce_normalize(first_minor(alexander_matrix(d)), components=1)
        for m in (-1, 2, 3, 4, 5):
            value = abs(red.evaluate(m))
            while value > 1:
                p = smallest_prime_factor(value)
                while value % p == 0:
                    value //= p
                if p > 2 and m % p not in (0, 1):
                    yield d, p, m


def test_minimum_never_below_kl_on_registry_knots_and_workload_sums():
    cases = list(_registry_knot_cases())
    # every T(2, n) sum of the orbit_search benchmark workload, at m = 2
    t2_prime = {3: 3, 5: 11, 7: 43, 11: 683, 13: 2731}
    for n, copies in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2),
                      (7, 3), (5, 4), (13, 2), (11, 2), (7, 4), (5, 5)]:
        cases.append((_sum(*[n] * copies), t2_prime[n], 2))
    assert len(cases) > 40
    for d, p, m in cases:
        count, _ = min_colors_on_diagram(d, QuandleParams(p, m))
        assert count >= kl_lower_bound(p, m)


def test_minimum_below_kl_raises_for_knots_only(trefoil, l4a1, monkeypatch):
    monkeypatch.setattr(coloring, "kl_lower_bound", lambda p, m: 99)
    with pytest.raises(ColoringError, match="internal inconsistency"):
        min_colors_on_diagram(trefoil, QuandleParams(3, 2))
    with pytest.raises(ColoringError, match="internal inconsistency"):
        min_colors_on_diagram(_sum(3, 3), QuandleParams(7, 3))
    # links are exempt: a split link has 2-color colorings
    assert min_colors_on_diagram(l4a1, QuandleParams(5, 2))[0] == 4


def test_orbit_search_checks_constants_are_in_the_kernel(trefoil, monkeypatch):
    real = coloring.kernel_basis

    def first_vector_doubled(mat):
        basis = real(mat)
        return [tuple(2 * x for x in basis[0])] + basis[1:]

    monkeypatch.setattr(coloring, "kernel_basis", first_vector_doubled)
    with pytest.raises(ColoringError, match="constant vectors not in kernel"):
        min_colors_on_diagram(trefoil, QuandleParams(3, 2))


# -- integer pivots against the Fraction oracle -------------------------------------------------


@st.composite
def pivot_matrices(draw):
    """Integer matrices up to 8x6, often with zero rows, zero columns,
    duplicated rows or rows that combine others."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if not rows:
        return rows
    index = st.integers(0, nrows - 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero_row", "zero_col", "dup", "combine"]))
        i, j, k = draw(index), draw(index), draw(index)
        if kind == "zero_row":
            rows[i] = [0] * ncols
        elif kind == "zero_col":
            c = draw(st.integers(0, ncols - 1))
            for row in rows:
                row[c] = 0
        elif kind == "dup":
            rows[i] = list(rows[j])
        else:
            a, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=300, deadline=None)
@given(pivot_matrices())
@example([])
@example([[0, 0], [0, 0]])
@example([[1, 2], [2, 4], [3, 6]])
@example([[0, 1, 2], [0, 2, 4], [0, 0, 0], [0, 3, 7]])
@example([[2, 4, 6], [1, 2, 3], [1, 3, 5], [0, 1, 2]])
@example([[6, 10, 15], [3, 5, 7], [9, 15, 22], [12, 20, 30]])
def test_integer_pivots_match_fraction_oracle(rows):
    pivots, last, _ = bareiss(rows)
    assert (pivots, last) == pivot_rows_fraction(rows)
