"""Colorings: quandle algebra, kernels, minima, and the collapse checks."""

import math
import random
import time
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qfox import (
    Coloring,
    ColoringError,
    QfoxError,
    QuandleParams,
    alexander_matrix,
    collapse_and_check,
    coloring_matrix,
    first_minor,
    get_diagram,
    is_odd_prime,
    kernel_basis,
    kh_witness,
    kl_lower_bound,
    load_registry,
    min_colors_on_diagram,
    quandle_op,
    quandle_op_inv,
    reduce_normalize,
    smallest_prime_factor,
    verify_coloring,
)
from qfox import coloring
from qfox.coloring import (
    ModMatrix,
    _affine_canonical,
    _bitmask_lines,
    _group_runs,
    _meeting_lines,
    _mod_adder,
    _orbit_walk,
    _pack,
)
from qfox.sparse import pivot_minor
from oracles import (
    alexander_matrix_reference,
    enumerate_colorings_brute,
    first_all_distinct,
    first_minimum,
    kernel_basis_rref,
    kernel_vectors,
    orbit_representatives,
    pivot_rows_fraction,
    rank,
)
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
    """Some coloring uses more than one color: kernel dimension >= 2."""
    basis = kernel_basis(coloring_matrix(get_diagram(name), QuandleParams(p, m)))
    assert (len(basis) >= 2) is expected


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
    # m = 4 is 1 mod 3: every crossing reads x_in = x_out, so only constants.
    with pytest.raises(ColoringError, match="no non-trivial coloring"):
        min_colors_on_diagram(trefoil, QuandleParams(3, 4))


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
    reps = [tuple(v) for v in orbit_representatives(d, params)]
    assert len(reps) == (p ** (dim - 1) - 1) // (p - 1)
    canon = {_affine_canonical(v, p) for v in reps}
    assert len(canon) == len(reps)      # pairwise affine-inequivalent
    every = {_affine_canonical(v, p) for v in _nonconstant(kernel_vectors(d, params))}
    assert canon == every


def test_affine_canonical_rejects_constant_vector():
    with pytest.raises(ColoringError, match="constant vector"):
        _affine_canonical((4, 4, 4), 7)
    assert _affine_canonical((3, 5, 3), 7) == (0, 1, 0)


# -- the packed walk by lines against the list walk of the oracle -----------------------------


def _assert_walk_matches_oracle(d, params):
    """The count and canonical witness of min_colors_on_diagram are the
    oracle's first minimum."""
    want = first_minimum(d, params)
    if want is None:
        with pytest.raises(ColoringError, match="no non-trivial coloring"):
            min_colors_on_diagram(d, params)
    else:
        count, witness = min_colors_on_diagram(d, params)
        assert (count, tuple(witness.colors[a] for a in d.arcs)) == want


def _odd_prime_factors(value, limit):
    """The odd primes up to limit that divide a non-zero value."""
    if not value:
        return []
    return [q for q in range(3, limit + 1, 2) if value % q == 0 and smallest_prime_factor(q) == q]


# Bitmask line counts up to p = 127, meeting counts on color lists from 131 to 2731.
WALK_PRIMES = [3, 5, 7, 11, 13, 43, 127, 131, 683, 2731]


@st.composite
def walk_cases(draw):
    """A sum of T(2, n) and their mirrors (links where n is even), or the closure
    of a braid word on up to four strands, at some m and a prime p at most
    2731, preferring the primes that divide the reduced value at m; at most
    3000 affine classes."""
    if draw(st.booleans()):
        # Repeated summands give kernel dimension 3 and more.
        base, copies = draw(st.integers(2, 13)), draw(st.integers(1, 4))
        ns = draw(st.permutations([base] * copies + draw(st.lists(st.integers(2, 13), max_size=2))))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(ns), max_size=len(ns)))
        word = [s * (i + 1) for i, (n, s) in enumerate(zip(ns, signs)) for _ in range(n)]
    else:
        letter = st.integers(1, 3).flatmap(lambda g: st.sampled_from([g, -g]))
        word = draw(st.lists(letter, min_size=1, max_size=10))
    try:
        d = braid_closure(word, name=str(word))
    except QfoxError:
        assume(False)  # a strand left out, or a component that never passes under
    m = draw(st.sampled_from([-1, 2, 3, 4]))
    value = first_minor(alexander_matrix(d)).evaluate(m)
    # A split closure has value 0 and colorings at every p.
    candidates = [q for q in _odd_prime_factors(abs(value), 2731) if m % q not in (0, 1)]
    p = draw(st.sampled_from(candidates or [q for q in WALK_PRIMES if m % q not in (0, 1)]))
    params = QuandleParams(p, m)
    k = len(kernel_basis(coloring_matrix(d, params)))
    assume(k < 2 or (p ** (k - 1) - 1) // (p - 1) <= 3000)
    return d, params


@example((braid_closure([1] * 7 + [2] * 7), QuandleParams(127, -2)))      # the largest bitmask p
@example((braid_closure([1] * 5 + [2] * 5), QuandleParams(131, 42)))       # the smallest color-list p
@example((braid_closure([1] * 11 + [2] * 11), QuandleParams(683, 2)))      # color lists
@example((braid_closure([1] * 7 + [-2] * 7), QuandleParams(547, 3)))
@example((braid_closure([1] * 4 + [2] * 4 + [3] * 3), QuandleParams(5, 2)))  # a link
@settings(max_examples=80, deadline=None)
@given(walk_cases())
def test_packed_walk_matches_the_list_walk(case):
    _assert_walk_matches_oracle(*case)


def _expand(offsets, counts, classes):
    """The count of each of the first `classes` classes of a run: a class
    missing from offsets has max(counts) colors, and comes after a listed
    class with that many."""
    top = max(counts)
    listed = dict(zip(offsets, counts))
    assert len(listed) == len(offsets) and list(offsets) == sorted(offsets)
    assert all(c < classes for c in offsets)
    first_top = min(c for c in offsets if listed[c] == top)
    assert all(c in listed for c in range(first_top))
    return [listed.get(c, top) for c in range(classes)]


@pytest.mark.parametrize("ns,p,m", [((3, 3), 7, 3), ((3, 3, 3, 3), 3, 2), ((5, 5, 5), 11, 2),
                                    ((3, 3, 3, 3, 3), 3, 2), ((4, 4), 5, 2), ((6, 6), 3, -1),
                                    ((11, 11), 683, 2), ((3, 3, 3), 157, 13)])
def test_walk_visits_the_oracle_classes_in_order(ns, p, m):
    """With no line skipped, the packed walk visits the classes of the list
    walk, in the same order, with the same color counts: each run of
    (offsets, counts, colors, step) stands for the classes colors + c *
    step, every c = 0..p-1 of a line for each run but the last, which is
    one class.  A line's colors are bytes below p = 128 and a list above,
    and its step is the last basis vector."""
    d = _sum(*ns)
    params = QuandleParams(p, m)
    last = kernel_basis(coloring_matrix(d, params))[-1]
    runs = list(_orbit_walk(d, params, lambda lower: True))
    walked = []
    for i, (offsets, counts, colors, step) in enumerate(runs):
        classes = p if i < len(runs) - 1 else 1
        assert step == last and type(colors) is (tuple if classes == 1 else bytes if p < 128 else list)
        for c, count in enumerate(_expand(offsets, counts, classes)):
            v = [(a + c * s) % p for a, s in zip(colors, step)]
            walked.append((count, _affine_canonical(v, p)))
    want = [(len(set(v)), _affine_canonical(v, p)) for v in orbit_representatives(d, params)]
    assert len(want) > p and walked == want


# Every prime below 128, the range where lines are counted by bitmasks.
BITMASK_PRIMES = [q for q in range(3, 128) if smallest_prime_factor(q) == q]


@st.composite
def random_lines(draw):
    """A prime p < 128 and the step and base colors of up to 40 arcs."""
    p = draw(st.sampled_from(BITMASK_PRIMES))
    q = draw(st.integers(1, 40))
    colors = st.lists(st.integers(0, p - 1), min_size=q, max_size=q)
    return p, draw(colors), draw(colors)


@example((3, [1, 2, 0], [0, 0, 2]))
@example((127, [0, 1, 126, 63], [0, 126, 0, 64]))
@example((5, [0, 1, 4], [0, 4, 1]))         # one color at c = 1, three at c = 0
@settings(max_examples=200, deadline=None)
@given(random_lines())
def test_line_counts_match_the_unpacked_classes(line):
    """The bitmask counts of a line are len(set(...)) of each class
    x + c * step."""
    p, steps, base = line
    offsets, counts = _bitmask_lines(steps, p)(base, lambda lower: True)
    want = [len({(a + c * s) % p for a, s in zip(base, steps)}) for c in range(p)]
    assert list(offsets) == list(range(p)) and counts == want


@example((3, [1, 2, 0], [0, 0, 2], 1))
@example((5, [1, 1, 1, 1, 1], [0, 1, 2, 3, 4], 3))   # every partial row has cut colors
@settings(max_examples=200, deadline=None)
@given(random_lines().flatmap(lambda line: st.tuples(*map(st.just, line), st.integers(0, line[0]))))
def test_half_line_bounds_hold_on_every_class(case):
    """_bitmask_lines first asks walk_line whether the most a partial mask
    of cut arcs could show, cut colors, would turn the line down.  Only
    then does it count the partial mask, and that bound holds on every
    class of the line and is no more than cut.  A line turned down gives no
    run."""
    p, steps, base, floor = case
    seen = []

    def walk_line(lower):
        seen.append(lower)
        return lower < floor

    run = _bitmask_lines(steps, p)(base, walk_line)
    want = [len({(a + c * s) % p for a, s in zip(base, steps)}) for c in range(p)]
    probe, *checks = seen
    assert probe == max(1, int(len(steps) * coloring._PARTIAL))
    assert len(checks) == (0 if walk_line(probe) else 1)
    for lower in checks:
        assert lower <= min(want) and lower <= probe
    if all(map(walk_line, checks)):
        assert run[1] == want
    else:
        assert run is None


# Meeting counts at primes past 128 and at small ones, where the offsets of a
# line with meetings cover it.
MEETING_PRIMES = [3, 5, 7, 11, 43, 131, 257, 683, 2731]


@st.composite
def meeting_lines(draw):
    """A prime p and the step and base colors of up to 40 arcs, the steps
    from a few values so that groups and meetings of three or more arcs
    are common."""
    p = draw(st.sampled_from(MEETING_PRIMES))
    q = draw(st.integers(1, 40))
    values = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
    steps = draw(st.lists(st.sampled_from(values), min_size=q, max_size=q))
    colors = st.integers(0, p - 1) if draw(st.booleans()) else st.integers(0, min(3, p - 1))
    return p, steps, draw(st.lists(colors, min_size=q, max_size=q))


@example((131, [0, 1, 2], [0, 130, 129]))            # three arcs meet at one color at c = 1
@example((683, [0, 1, 2, 3, 1], [0, 682, 681, 680, 682]))  # four at c = 1, with a repeat
@example((2731, [5, 5, 7], [1, 2, 3]))               # equal steps never meet
@example((257, [0, 1, 2, 0, 1, 2], [0, 256, 255, 1, 0, 256]))  # two triples at c = 1
@example((3, [0, 0, 0, 1], [0, 1, 2, 0]))            # every offset has a meeting
@settings(max_examples=200, deadline=None)
@given(meeting_lines())
def test_meeting_counts_match_the_unpacked_classes(line):
    """The meeting counts of a line, expanded to every c, are len(set(...))
    of each class x + c * step."""
    p, steps, base = line
    offsets, counts = _meeting_lines(steps, p)(base, lambda lower: True)
    want = [len({(a + c * s) % p for a, s in zip(base, steps)}) for c in range(p)]
    assert _expand(offsets, counts, p) == want


@pytest.mark.parametrize("word,p,m", [
    ([1, 1, -1, -1], 3, 2),                   # split closure: 3 colors, a 2-color class
    ([1, 1, -1, -1], 5, 2),
    ([1, 1, -1, -1], 7, 3),
    ([1] * 13 + [2] * 13, 2731, 2),           # 2 x T(2,13): color lists
    ([1] * 17 + [2] * 17, 43691, 2),          # 2 x T(2,17)
    ([1] * 5 + [2] * 5 + [3] * 5 + [4] * 5, 11, 2),
    ([1, 1, 1, -2, -2, -2, 3, 3, 3, -4, -4, -4, 5, 5, 5], 3, 2),
])
def test_packed_walk_matches_the_list_walk_on_fixed_cases(word, p, m):
    _assert_walk_matches_oracle(braid_closure(word), QuandleParams(p, m))


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, -1), (17, 4)])
def test_packed_walk_matches_the_list_walk_on_l4a1(l4a1, p, m):
    _assert_walk_matches_oracle(l4a1, QuandleParams(p, m))


@pytest.mark.parametrize("word,p,m", [
    ([1] * 7 + [2] * 7 + [3] * 7, 43, 2),                 # 3 x T(2,7)
    ([1] * 7 + [2] * 7 + [3] * 7 + [4] * 7, 43, 2),       # 4 x T(2,7): 81,400 classes
    ([1] * 5 + [-2] * 5 + [3] * 5, 11, 2),                # T(2,5) # T(2,-5) # T(2,5)
])
def test_half_line_skip_keeps_the_first_minimum(monkeypatch, word, p, m):
    """Searches where _bitmask_lines turns lines down half-way through
    their masks still find the oracle's first minimum."""
    turned_down = 0
    real = coloring._bitmask_lines

    def counting(steps, p):
        count = real(steps, p)

        def count_and_note(fields, walk_line):
            nonlocal turned_down
            run = count(fields, walk_line)
            turned_down += run is None
            return run

        return count_and_note

    monkeypatch.setattr(coloring, "_bitmask_lines", counting)
    d, params = braid_closure(word), QuandleParams(p, m)
    count, witness = min_colors_on_diagram(d, params)
    assert turned_down > 0
    assert (count, tuple(witness.colors[a] for a in d.arcs)) == first_minimum(d, params)


@st.composite
def group_runs_cases(draw):
    """Bitmask or meeting counts, a prime p, up to 40 arcs split into
    groups by label, and their inner and base colors, the inner ones often
    from a few values."""
    bitmask = draw(st.booleans())
    p = draw(st.sampled_from(BITMASK_PRIMES if bitmask else MEETING_PRIMES))
    q = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, 4), min_size=q, max_size=q))
    groups = [[i for i in range(q) if labels[i] == g] for g in sorted(set(labels))]
    values = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
    inner = draw(st.lists(st.sampled_from(values) if draw(st.booleans()) else st.integers(0, p - 1),
                          min_size=q, max_size=q))
    base = draw(st.lists(st.integers(0, p - 1), min_size=q, max_size=q))
    return bitmask, p, groups, inner, base


@example((True, 3, [[0, 1, 2]], [0, 1, 2], [0, 0, 0]))          # 1, 3, 3 colors
@example((True, 127, [[0, 2], [1, 3]], [0, 126, 1, 1], [5, 5, 126, 0]))
@example((False, 131, [[0, 1, 2]], [0, 1, 2], [0, 130, 129]))   # three meet at c = 1
@example((False, 3, [[0, 1], [2, 3, 4]], [0, 0, 1, 2, 0], [1, 2, 0, 0, 0]))
@settings(max_examples=200, deadline=None)
@given(group_runs_cases())
def test_group_run_counts_match_the_unpacked_prefixes(case):
    """Each group's run counts are len(set(...)) of the group's colors at
    every prefix x + c * inner, c = 0..p-1, with one shared mask of row
    patterns on bytes, or meeting counts on a color list."""
    bitmask, p, groups, inner, base = case
    colors = bytes(base) if bitmask else base
    runs = _group_runs(groups, inner, p, bitmask)(colors)
    assert len(runs) == len(groups)
    for group, counts in zip(groups, runs):
        want = [len({(base[i] + c * inner[i]) % p for i in group}) for c in range(p)]
        assert list(counts) == want


def _prefix_walk(rest, p, walk_line):
    """The lines of _walk_lines from a plain walk over the prefixes, in
    order, each bounded by one set per step group and then counted by the
    same line counter: what the walk yields with no run bounds."""
    groups = {}
    for i, s in enumerate(rest[-1]):
        groups.setdefault(s, []).append(i)
    shared = [g for g in groups.values() if len(g) > 1]
    count_line = (_bitmask_lines if p < 128 else _meeting_lines)(rest[-1], p)
    for j in range(len(rest) - 1):
        middle = rest[j + 1:-1]
        for coefficients in product(range(p), repeat=len(middle)):
            x = list(rest[j])
            for c, v in zip(coefficients, middle):
                x = [(a + c * s) % p for a, s in zip(x, v)]
            if walk_line(max([len({x[i] for i in g}) for g in shared], default=1)):
                colors = bytes(x) if p < 128 else x
                run = count_line(colors, walk_line)
                if run is not None:
                    yield *run, colors, rest[-1]


# Kernel dimension 5 and 6, where runs are bounded at once after the first p
# prefixes that need bounds.
RUN_CASES = [((3, 3, 3, 3), 3, 2), ((3, 3, 3, 3, 3), 3, 2), ((5, 5, 5, 5), 11, 2), ((3, 3, 3, 3), 13, 4)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RUN_CASES), st.integers(1, 16))
def test_run_bounds_yield_what_prefix_bounds_yield(case, floor):
    """With walk_line(lower) = lower < floor, the walk yields exactly the
    lines of a walk that bounds each prefix on its own: the run bounds, the
    probe and the skipped runs change which prefixes are looked at, never
    which lines are counted."""
    ns, p, m = case
    rest = kernel_basis(coloring_matrix(_sum(*ns), QuandleParams(p, m)))[1:]

    def walk_line(lower):
        return lower < floor

    assert list(coloring._walk_lines(rest, p, walk_line)) == list(_prefix_walk(rest, p, walk_line))


@pytest.mark.parametrize("floor", [2, 3, 4])
def test_wide_field_run_bounds_yield_what_prefix_bounds_yield(floor):
    """The same on color lists, on 4 x T(2,3) at (157, 13): 24,807 lines,
    whose runs are bounded from their groups' meetings."""
    rest = kernel_basis(coloring_matrix(_sum(3, 3, 3, 3), QuandleParams(157, 13)))[1:]

    def walk_line(lower):
        return lower < floor

    assert list(coloring._walk_lines(rest, 157, walk_line)) == list(_prefix_walk(rest, 157, walk_line))


def _count_runs_and_lines(monkeypatch):
    """Monkeypatch the run counter and both line counters to count their
    calls into the returned dict."""
    calls = {"runs": 0, "lines": 0}

    def counting(name, real):
        def make(*args):
            count = real(*args)

            def count_and_note(*call):
                calls[name] += 1
                return count(*call)

            return count_and_note

        return make

    monkeypatch.setattr(coloring, "_group_runs", counting("runs", coloring._group_runs))
    monkeypatch.setattr(coloring, "_bitmask_lines", counting("lines", coloring._bitmask_lines))
    monkeypatch.setattr(coloring, "_meeting_lines", counting("lines", coloring._meeting_lines))
    return calls


@pytest.mark.parametrize("word,p,m,by_runs", [
    ([1] * 5 + [2] * 5 + [3] * 5 + [4] * 5 + [5] * 5, 11, 2, True),  # 5 x T(2,5): 1,464 lines
    ([1] * 5 + [2] * 5 + [3] * 5 + [4] * 5, 11, 2, True),            # 4 x T(2,5): 133 lines
    # Kernel dimension 4: one run, bounded a prefix at a time.
    ([1] * 5 + [-2] * 5 + [3] * 5, 11, 2, False),                    # T(2,5) # T(2,-5) # T(2,5)
    ([1] * 11 + [2] * 11 + [3] * 11, 683, 2, False),                 # 3 x T(2,11): color lists
])
def test_run_bounds_keep_the_first_minimum(monkeypatch, word, p, m, by_runs):
    """Searches where whole runs of p prefixes are bounded at once still
    find the oracle's first minimum.  A counted run whose p prefixes were
    not all counted as lines had some dropped by its bounds, so fewer lines
    than p per counted run means that some were."""
    calls = _count_runs_and_lines(monkeypatch)
    d, params = braid_closure(word), QuandleParams(p, m)
    count, witness = min_colors_on_diagram(d, params)
    assert (count, tuple(witness.colors[a] for a in d.arcs)) == first_minimum(d, params)
    if by_runs:
        assert 0 < calls["lines"] < p * calls["runs"]


def test_a_wide_field_line_is_counted_from_its_meetings():
    """2 x T(2,7) at m = 10 has kernel dimension 3 at p = 909,091: one line
    of p classes, counted from where arc colors meet, not class by class."""
    d, params = _sum(7, 7), QuandleParams(909091, 10)
    assert len(kernel_basis(coloring_matrix(d, params))) == 3
    start = time.process_time()
    count, witness = min_colors_on_diagram(d, params)
    assert time.process_time() - start < 0.5
    assert count == 7 == witness.distinct
    assert verify_coloring(d, witness) and collapse_and_check(d, witness).ok


def test_the_minimum_is_read_at_its_offset(monkeypatch):
    """min_colors_on_diagram takes the class at the offset of a run's first
    minimal count, not at its index among the counts.  The one line of
    2 x T(2,11) at p = 683, started two classes later, has its first
    minimum at c = 272, the 40th offset with a meeting."""
    d, params = _sum(11, 11), QuandleParams(683, 2)
    p = 683
    rest = kernel_basis(coloring_matrix(d, params))[1:]
    steps = rest[-1]
    base = [(a + 2 * s) % p for a, s in zip(rest[0], steps)]
    offsets, counts = _meeting_lines(steps, p)(base, lambda lower: True)
    every = _expand(offsets, counts, p)
    c = every.index(min(every))
    assert (c, offsets.index(c)) == (272, 39)
    run = (offsets, counts, base, steps)
    monkeypatch.setattr(coloring, "_orbit_walk", lambda d, params, walk_line: iter([run]))
    count, witness = min_colors_on_diagram(d, params)
    v = [(a + c * s) % p for a, s in zip(base, steps)]
    assert count == min(every) and tuple(witness.colors[a] for a in d.arcs) == _affine_canonical(v, p)


def test_kh_witness_is_the_first_all_distinct_class():
    cases = [(torus_diagram(TorusParams(2, 5)), 11, 2), (torus_diagram(TorusParams(2, 7)), 43, 2),
             (get_diagram("4_1"), 5, 4), (pretzel_diagram(PretzelParams(5)), 151, 2)]
    for d, p, m in cases:
        found = kh_witness(d, QuandleParams(p, m), reduced_alternating=True)
        got = None if found is None else tuple(found.colors[a] for a in d.arcs)
        assert got == first_all_distinct(d, QuandleParams(p, m))


@st.composite
def prime_value_cases(draw):
    """The closure of a braid word on 2 to 5 strands, a knot or a link, at
    an m in 2..7 where the reduced value is an odd prime p > m: about one
    word in five has one."""
    strands = draw(st.integers(2, 5))
    codes = draw(st.lists(st.integers(0, 2 * strands - 3), min_size=strands - 1, max_size=12))
    word = [(k // 2 + 1) * (-1) ** k for k in codes]
    try:
        d = braid_closure(word, name=str(word))
        red = reduce_normalize(first_minor(alexander_matrix(d)), d.components)
    except QfoxError:
        assume(False)  # a strand left out, or a split closure
    ms = [m for m in range(2, 8) if m < red.evaluate(m) and is_odd_prime(red.evaluate(m))]
    assume(ms)
    m = draw(st.sampled_from(ms))
    return d, QuandleParams(red.evaluate(m), m)


@example((braid_closure([1, 1, 1]), QuandleParams(3, 2)))
@example((braid_closure([1, -2, 1, -2]), QuandleParams(5, 4)))
@example((braid_closure([1, 1, 1, 1]), QuandleParams(5, 2)))     # L4a1
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(prime_value_cases())
def test_a_prime_value_leaves_one_class(case):
    """At p = value(m), the kernel has dimension 2, the constants and one
    affine class, and kh_witness reads the oracle's first all-distinct
    class off that class."""
    d, params = case
    assert len(kernel_basis(coloring_matrix(d, params))) == 2
    found = kh_witness(d, params, reduced_alternating=True)
    got = None if found is None else tuple(found.colors[a] for a in d.arcs)
    assert got == first_all_distinct(d, params)


def test_kh_witness_checks_the_kernel(monkeypatch):
    d, params = torus_diagram(TorusParams(2, 5)), QuandleParams(11, 2)
    real = coloring.kernel_basis

    def third_vector(mat):
        basis = real(mat)
        return basis + [basis[-1]]

    monkeypatch.setattr(coloring, "kernel_basis", third_vector)
    with pytest.raises(ColoringError, match="internal inconsistency: kernel dimension 3"):
        kh_witness(d, params, reduced_alternating=True)

    monkeypatch.setattr(coloring, "kernel_basis", lambda mat: real(mat)[:1])
    with pytest.raises(ColoringError, match="internal inconsistency: kernel dimension 1"):
        kh_witness(d, params, reduced_alternating=True)

    def first_vector_doubled(mat):
        basis = real(mat)
        return [tuple(2 * x for x in basis[0])] + basis[1:]

    monkeypatch.setattr(coloring, "kernel_basis", first_vector_doubled)
    with pytest.raises(ColoringError, match="constant vectors not in kernel"):
        kh_witness(d, params, reduced_alternating=True)


@pytest.mark.parametrize("p", BITMASK_PRIMES)
def test_packed_addition_at_field_boundaries(p):
    """Byte-by-byte addition mod p of packed vectors, with colors at both
    ends of 0..p-1, at every prime below 128."""
    rng = random.Random(p)
    q = 9
    add = _mod_adder(p, q)
    edges = [0, 1, p - 2, p - 1]
    vectors = [[p - 1] * q, [0] * q, [1] * q, edges * 2 + [p // 2]]
    vectors += [[rng.randrange(p) for _ in range(q)] for _ in range(20)]
    for x in vectors:
        assert list(_pack(x).to_bytes(q, "little")) == x
        for y in vectors:
            assert list(add(_pack(x), _pack(y)).to_bytes(q, "little")) == [(a + b) % p for a, b in zip(x, y)]


def test_orbit_search_past_64_bit_fields_raises():
    """T(2,3) # T(2,3) at m = 2^32 has kernel dimension 3 at the prime
    p = 2^64 - 2^32 + 1 = m^2 - m + 1, so p + 1 classes: more than 2^63,
    and far past any search that ends."""
    d = braid_closure([1, 1, 1, 2, 2, 2])
    params = QuandleParams(2**64 - 2**32 + 1, 2**32)
    assert smallest_prime_factor(params.n) == params.n
    assert len(kernel_basis(coloring_matrix(d, params))) == 3
    with pytest.raises(ColoringError, match="2\\^63"):
        min_colors_on_diagram(d, params)
    # One class is no line: the trefoil alone is fine at this p.
    count, witness = min_colors_on_diagram(braid_closure([1, 1, 1]), params)
    assert count == 3 and verify_coloring(braid_closure([1, 1, 1]), witness)


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
@example([[0, 1, 0], [0, 1, 1], [0, 0, 1], [1, 0, 0]])
@example([[10**6, 10**6, 10**6], [10**6, -10**6, 10**6], [10**6, 10**6, -999_999]])
def test_integer_pivots_match_fraction_oracle(rows):
    """The second to last example swaps row 3 into place 0, so row 1, not
    row 0, is the next pivot.  The last example's determinant, near
    4 * 10^18, is past half of 2^61 - 1, and so is its Hadamard bound
    without any one row."""
    assert pivot_minor(_sparse(rows)) == pivot_rows_fraction(rows)


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


# -- the sparse kernel against the dense RREF oracle ----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(pivot_matrices(), st.integers(0, 2), st.sampled_from([2, 3, 5, 7, 43]))
@example([], 2, 3)
@example([[1, 2, 3], [2, 4, 6]], 0, 2)
@example([[0, 0, 5], [0, 3, 1], [0, 0, 0]], 1, 5)
@example([[7, 14], [0, 43]], 0, 7)
@example([[7, 14], [0, 43]], 1, 43)
def test_kernel_basis_matches_rref_oracle(rows, extra, p):
    """Random matrices mod p, some zero mod p, with `extra` zero columns
    appended: the sparse kernel basis is the one read off the RREF."""
    ncols = (len(rows[0]) if rows else 0) + extra
    mat = ModMatrix(_sparse([[x % p for x in row] for row in rows]), p, tuple(range(ncols)))
    dense = [row + [0] * extra for row in rows]
    assert kernel_basis(mat) == kernel_basis_rref(dense, ncols, p)


def _registry_cases():
    """Every registry diagram at fixed (p, m), and each registry knot at the
    (p, m) where p divides its reduced value, so the kernel is non-trivial."""
    for name in sorted(load_registry()):
        for p, m in [(3, 2), (5, 2), (5, -1), (7, 3), (43, 2), (43, 5)]:
            yield get_diagram(name), p, m
    yield from _registry_knot_cases()


def test_registry_kernels_match_rref_oracle():
    for d, p, m in _registry_cases():
        rows = [[e.evaluate(m) for e in row] for row in alexander_matrix_reference(d)]
        assert kernel_basis(coloring_matrix(d, QuandleParams(p, m))) == kernel_basis_rref(rows, len(d.arcs), p)
