"""Primality, digit counting, and the two lower bounds."""

import os
import random
import subprocess
import sys
import tracemalloc
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfox
from qfox import (
    BoundsError,
    CompositeValueError,
    improved_lower_bound,
    is_odd_prime,
    kl_lower_bound,
    lemma31_value,
    parse_poly,
    prime_scan,
    require_odd_prime,
)
from qfox import bounds
from qfox.bounds import (
    _SIEVE_PRIMES,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    floor_log,
    probable_only,
    profile,
)
from qfox.laurent import LaurentPoly, alexander_matrix, first_minor, reduce_normalize
from oracles import base_m_digits, prime_scan_reference, smallest_prime_factor, strong_lucas_uv

TREFOIL_POLY = parse_poly("1 - t + t^2")
P73 = parse_poly("2 - 3t + 3t^2 - 3t^3 + 2t^4")
P10_145 = parse_poly("1 + t - 3t^2 + t^3 + t^4")


# -- primality ----------------------------------------------------------------


# Base-2 strong pseudoprimes below 10^5 (OEIS A001262).
SPSP2 = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
         65281, 74665, 80581, 85489, 88357, 90751)
# Strong Lucas pseudoprimes below 10^5, Selfridge's parameters (OEIS A217255).
SLPSP = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
         75077, 97439)
# psi_k: the least odd composite passing strong tests to the first k prime
# bases (OEIS A014233); psi_7 = psi_8 and psi_9 = psi_10 = psi_11.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981)
PSI_12_FACTOR = 399165290221


def test_small_primes_and_composites():
    primes = {3, 5, 7, 11, 13, 41, 43, 151, 211, 577, 937}
    for n in primes:
        assert is_odd_prime(n)
    # Carmichael numbers included
    for n in (1, 2, 4, 9, 15, 39, 91, 561, 41041, 825265, 321197185, *SPSP2, *SLPSP):
        assert not is_odd_prime(n)
    for n in SLPSP:
        assert _strong_lucas_probable_prime(n)


@example(2**61 - 1)
@example(2**89 - 1)                     # prime, 89 bits
@example(2**107 - 1)                    # prime, 107 bits
@example(PSI[12])
@example(PSI[11])
@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(3, 2**64), st.integers(2**94, 2**95)).map(lambda n: n | 1))
def test_v_only_lucas_ladder_matches_the_u_v_chain(n):
    """The V-only strong Lucas test decides what the chain of U and V
    decides, on odd n below 2^64 and of 95 bits."""
    assert _strong_lucas_probable_prime(n) == strong_lucas_uv(n)


def test_v_only_lucas_ladder_passes_the_strong_lucas_pseudoprimes():
    rng = random.Random(7)
    primes = [n for n in (rng.randrange(2**94, 2**95) | 1 for _ in range(400)) if is_odd_prime(n)]
    assert len(primes) > 3
    for n in (*SLPSP, *primes, 2**89 - 1, 2**127 - 1):
        assert _strong_lucas_probable_prime(n) and strong_lucas_uv(n)
    for n in (*SPSP2, *PSI[:12], 2**67 - 1):
        assert _strong_lucas_probable_prime(n) == strong_lucas_uv(n)


def test_large_prime_deterministic_range():
    assert is_odd_prime((1 << 61) - 1)
    assert not is_odd_prime((1 << 67) - 1)   # 193707721 * 761838257287
    assert not probable_only((1 << 61) - 1)
    assert not probable_only(PSI[12] - 1)
    for n in PSI[:12]:
        assert not is_odd_prime(n)


def test_psi12_is_composite():
    # passes the strong tests to the twelve prime bases up to 37
    n = PSI[11]
    assert not is_odd_prime(n)
    assert not probable_only(n)
    assert smallest_prime_factor(n) == PSI_12_FACTOR
    with pytest.raises(CompositeValueError) as exc:
        require_odd_prime(n)
    assert exc.value.factor == PSI_12_FACTOR


def test_probable_only_flag_past_threshold():
    # primality of huge values is still decided, but flagged as probable only
    for e in (89, 107, 127):   # Mersenne primes
        n = (1 << e) - 1
        assert is_odd_prime(n)
        assert probable_only(n)
    assert not is_odd_prime(PSI[12])


# sympy is a test oracle only; qfox itself never imports it.


def test_is_odd_prime_matches_sympy_below_2e5():
    sympy = pytest.importorskip("sympy")
    for n in range(200_000):
        assert is_odd_prime(n) == (n != 2 and sympy.isprime(n)), n


@pytest.mark.parametrize(
    "lo,hi",
    [(3, 1 << 64), (1 << 64, PSI[12]), (PSI[12], 1 << 256)],
    ids=["below-2^64", "2^64-to-psi13", "psi13-to-2^256"],
)
def test_is_odd_prime_matches_sympy_per_regime(lo, hi):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(lo)
    values = [rng.randrange(lo, hi) | 1 for _ in range(2000)]
    # random odd values are mostly composite; the primes that follow them
    # take the full pipeline
    values += [sympy.nextprime(v) for v in values[:100]]
    for n in values:
        assert is_odd_prime(n) == sympy.isprime(n), n


# The least composite passing strong tests to bases 2, 7 and 61 (Jaeschke).
JAESCHKE = 4_759_123_141


def test_jaeschke_bound_is_a_strong_pseudoprime_to_2_7_61():
    assert JAESCHKE == 48781 * 97561
    r = ((JAESCHKE - 1) & -(JAESCHKE - 1)).bit_length() - 1
    d = (JAESCHKE - 1) >> r
    assert all(_strong_probable_prime(JAESCHKE, a, d, r) for a in (2, 7, 61))
    assert not is_odd_prime(JAESCHKE)


@pytest.mark.parametrize(
    "lo,hi", [(JAESCHKE - 10**7, JAESCHKE), (JAESCHKE, JAESCHKE + 10**7)], ids=["below", "above"]
)
def test_is_odd_prime_matches_sympy_across_the_jaeschke_bound(lo, hi):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(lo)
    values = [rng.randrange(lo, hi) | 1 for _ in range(2000)]
    values += [sympy.nextprime(v) for v in values[:100]]
    for n in values:
        assert is_odd_prime(n) == sympy.isprime(n), n


def test_no_lucas_test_below_the_jaeschke_bound(monkeypatch):
    """Below the bound three strong bases settle every value: primes, the
    base-2 strong pseudoprimes, and psi_4, which also passes bases 3 and 5."""
    def lucas(n):
        raise AssertionError(f"Lucas test on {n}")

    monkeypatch.setattr(bounds, "_strong_lucas_probable_prime", lucas)
    for n in (43, 61, 65537, (1 << 31) - 1, 4_759_123_129):   # primes
        assert is_odd_prime(n)
    for n in (*SPSP2, PSI[3], 3_215_031_751, JAESCHKE - 2):
        assert not is_odd_prime(n)
    with pytest.raises(AssertionError, match="Lucas test"):
        is_odd_prime(4_759_123_153)   # the next prime takes the Lucas test


@pytest.mark.parametrize("bound", [1 << 64, PSI[12]], ids=["2^64", "psi13"])
def test_semiprimes_straddling_thresholds_rejected(bound):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(bound)
    root = isqrt(bound)
    straddle = set()
    for _ in range(100):
        p = sympy.nextprime(rng.randrange(root // 2, 2 * root))
        q = sympy.nextprime(rng.randrange(root // 2, 2 * root))
        assert is_odd_prime(p) and is_odd_prime(q)
        assert not is_odd_prime(p * q), (p, q)
        straddle.add(p * q < bound)
    assert straddle == {True, False}


def test_smallest_prime_factor():
    assert smallest_prime_factor(39) == 3
    assert smallest_prime_factor(91) == 7
    assert smallest_prime_factor(2 * 3 * 5 * 7) == 2
    assert smallest_prime_factor((1 << 67) - 1) == 193707721


# (2^89 - 1)(2^107 - 1): no factor below 10^6, and Pollard rho needs far
# more steps than its budget to split it.
TWO_LARGE_FACTORS = ((1 << 89) - 1) * ((1 << 107) - 1)


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """Run python on qfox from this tree in a child process; a search that
    never returns fails the test after 30 s instead of hanging the suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(qfox.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=30, env=env
    )


def test_smallest_prime_factor_gives_up_past_its_budget():
    proc = _run_python(
        "-c",
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        "from oracles import smallest_prime_factor; "
        f"print(smallest_prime_factor({TWO_LARGE_FACTORS}))",
    )
    assert (proc.returncode, proc.stdout) == (0, "None\n"), proc.stderr


@pytest.mark.parametrize("subcommand", ["color", "bounds"])
def test_composite_p_with_two_large_factors_exits_1(subcommand):
    proc = _run_python(
        "-m", "qfox.cli", subcommand, "3_1", "--m", "2", "--p", str(TWO_LARGE_FACTORS)
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: {TWO_LARGE_FACTORS} is not an odd prime (no factor found within the rho budget)\n"
    )


@pytest.mark.parametrize(
    "n,budget",
    [
        (PSI[11], 1 << 18),
        (((1 << 61) - 1) * ((1 << 67) - 1), 1 << 18),      # 128 bits
        (TWO_LARGE_FACTORS, (1 << 18) * 128**2 // 196**2),
        (((1 << 521) - 1) * ((1 << 607) - 1), (1 << 18) * 128**2 // 1128**2),
    ],
    ids=["psi12", "128-bit", "196-bit", "1128-bit"],
)
def test_rho_budget_is_weighted_by_the_size_of_n(monkeypatch, n, budget):
    """A rho step squares and reduces a number of n's size, so the budget
    keeps 2^18 steps up to 128 bits and shrinks with the square of the bit
    length above."""
    given, taken = [], []
    brent = bounds._brent

    def recording(n, c, y, left):
        d, steps = brent(n, c, y, left)
        given.append(left)
        taken.append(steps)
        return d, steps

    monkeypatch.setattr(bounds, "_brent", recording)
    factor = smallest_prime_factor(n)
    assert given[0] == budget
    assert sum(taken) <= budget
    if n.bit_length() > 128:
        assert factor is None


def test_require_odd_prime_passes_silently():
    require_odd_prime(151)


def test_composite_past_the_digit_limit_is_named_by_its_digit_count():
    # 4300 digits still print in full; 4301 and more are counted.
    value = 3 * 10**4299
    assert str(CompositeValueError(value, 3)) == f"{value} is not an odd prime ({value} = 3 * {10**4299})"
    value = 3 * (10**5000 + 1)
    assert str(CompositeValueError(value, 3)) == (
        "a 5001-digit integer is not an odd prime (a 5001-digit integer = 3 * a 5001-digit integer)"
    )
    assert str(CompositeValueError(10**4300)) == (
        "a 4301-digit integer is not an odd prime (no factor found within the rho budget)"
    )
    assert str(CompositeValueError(10**4301 - 1, 9)).startswith("a 4301-digit integer is not")


def test_require_odd_prime_names_a_factor():
    with pytest.raises(CompositeValueError) as exc:
        require_odd_prime(39)
    assert exc.value.value == 39
    assert exc.value.factor == 3
    assert "39 = 3 * 13" in str(exc.value)
    with pytest.raises(BoundsError):
        require_odd_prime(2)
    with pytest.raises(BoundsError):
        require_odd_prime(1)


def test_require_odd_prime_tests_a_composite_once(monkeypatch):
    """Both factors lie past trial division, so the factor comes from rho,
    which tests the factors it splits off but not the composite again."""
    n = 1000003 * 1000033
    tested = []
    is_prime = bounds._is_prime

    def counting(value):
        tested.append(value)
        return is_prime(value)

    monkeypatch.setattr(bounds, "_is_prime", counting)
    with pytest.raises(CompositeValueError) as exc:
        require_odd_prime(n)
    assert tested.count(n) == 1
    assert str(exc.value) == f"{n} is not an odd prime ({n} = 1000003 * 1000033)"
    tested.clear()
    assert smallest_prime_factor(n) == 1000003
    assert tested.count(n) == 1


# -- digits and logs ------------------------------------------------------------


@given(st.integers(1, 10**9), st.integers(2, 16))
def test_digits_reconstruct_value(p, m):
    digits = base_m_digits(p, m)
    assert all(0 <= d < m for d in digits)
    assert digits[-1] != 0
    assert sum(d * m**i for i, d in enumerate(digits)) == p


@given(st.integers(1, 10**9), st.integers(2, 16))
def test_floor_log_matches_digit_length(p, m):
    assert floor_log(p, m) == len(base_m_digits(p, m)) - 1


def test_floor_log_edges():
    assert floor_log(1, 5) == 0
    assert floor_log(4, 5) == 0
    assert floor_log(5, 5) == 1
    assert floor_log(624, 5) == 3
    assert floor_log(625, 5) == 4


# -- the log-based lower bound ----------------------------------------------------


@pytest.mark.parametrize(
    "p,m,expected",
    [
        (3, 2, 3),      # M=2, floor(log2 3)=1
        (43, 7, 3),     # M=7, floor(log7 43)=1
        (5, -1, 4),     # M=2, floor(log2 5)=2
        (5, 2, 4),
        (211, 15, 3),   # M=15, 15^2 > 211
    ],
)
def test_kl_lower_bound_values(p, m, expected):
    assert kl_lower_bound(p, m) == expected


def test_kl_lower_bound_guards():
    with pytest.raises(BoundsError):
        kl_lower_bound(1, 2)
    with pytest.raises(BoundsError):
        kl_lower_bound(7, 1)   # M = max(1, 0) < 2 carries no information


# -- coefficient profile and the value analysis -------------------------------------


def test_applicability_thresholds():
    # max |c_i| = 3
    assert profile(P73).hypothesis(5) == "strict"
    assert profile(P73).hypothesis(4) == "weaker"
    assert profile(P73).hypothesis(3) == "none"


def test_applicability_exceptional_tail_needs_strict():
    # last two non-zero coefficients below the top are both negative
    poly = parse_poly("1 - t - t^2 + 3t^3 - t^4 - t^5 + t^6")
    assert profile(poly).hypothesis(4) == "none"
    assert profile(poly).hypothesis(5) == "strict"


def test_applicability_rejects_non_knot_shapes():
    with pytest.raises(BoundsError):
        profile(parse_poly("1 + t")).hypothesis(5)    # odd degree
    with pytest.raises(BoundsError):
        profile(parse_poly("1 + t - t^2")).hypothesis(5)   # not palindromic


@pytest.mark.parametrize(
    "poly,m,fl",
    [
        (TREFOIL_POLY, 3, 1),    # top digit cancels: floor is k-1
        (TREFOIL_POLY, 7, 1),
        (P73, 5, 4),             # leading coefficient 2: floor stays k
        (P10_145, 4, 4),
        (P10_145, 5, 4),
    ],
)
def test_lemma31_value_cases(poly, m, fl):
    got = lemma31_value(poly, m)
    assert got.floor_log == fl
    assert got.predicted == fl


def test_lemma31_value_rejects_small_m():
    with pytest.raises(BoundsError):
        lemma31_value(P73, 3)


# -- bound reports ------------------------------------------------------------------------


def test_improved_bound_trefoil():
    rep = improved_lower_bound(TREFOIL_POLY, 2, name="3_1")
    assert (rep.p, rep.kl, rep.improved, rep.case) == (3, 3, 3, 1)
    assert rep.applicability == "weaker"


def test_improved_bound_7_3_strict():
    rep = improved_lower_bound(P73, 5, name="7_3")
    assert rep.p == 937
    assert rep.applicability == "strict"
    assert rep.case == 2
    assert rep.improved == 6    # degree 4 plus 2
    assert rep.kl == 6          # floor(log5 937) = 4


def test_improved_bound_10_145():
    rep = improved_lower_bound(P10_145, 4, name="10_145")
    assert rep.p == 277
    assert rep.applicability == "weaker"
    assert rep.case == 2        # penultimate coefficient is +1
    assert rep.improved == 6


def test_improved_bound_withheld_when_m_too_small():
    rep = improved_lower_bound(P73, 3, name="7_3")   # m equals max |c_i|
    assert rep.p == 101
    assert rep.applicability == "none"
    assert rep.improved is None
    assert rep.kl == 6


def test_improved_bound_rejects_composite_value():
    with pytest.raises(CompositeValueError):
        improved_lower_bound(TREFOIL_POLY, 5)   # value 21 = 3 * 7


def test_bound_report_json():
    data = improved_lower_bound(TREFOIL_POLY, 2, name="3_1").to_json()
    assert data["lower_bounds"] == {"kl": 3, "improved": 3}
    assert data["p"] == 3 and data["m"] == 2
    assert "upper_bound" not in data


# -- scanning --------------------------------------------------------------------------------


def test_prime_scan_trefoil_table():
    assert prime_scan(TREFOIL_POLY, 2, 15) == [
        (2, 3),
        (3, 7),
        (4, 13),
        (6, 31),
        (7, 43),
        (9, 73),
        (13, 157),
        (15, 211),
    ]


def test_prime_scan_link_table(l4a1):
    red = reduce_normalize(first_minor(alexander_matrix(l4a1)), components=2)
    assert prime_scan(red, 2, 24) == [
        (2, 5),
        (4, 17),
        (6, 37),
        (10, 101),
        (14, 197),
        (16, 257),
        (20, 401),
        (24, 577),
    ]


def test_prime_scan_rejects_empty_range():
    with pytest.raises(BoundsError):
        prime_scan(TREFOIL_POLY, 5, 2)


def test_prime_scan_values_equal_to_a_sieve_prime():
    # 3, 7 and 13 are divisible by a sieve prime, themselves, and still hits
    assert prime_scan(TREFOIL_POLY, 2, 4) == [(2, 3), (3, 7), (4, 13)]
    assert prime_scan(LaurentPoly((1,), 1), -50, 3000) == [
        (m, m) for m in range(3, 3001) if is_odd_prime(m)
    ]
    assert prime_scan(LaurentPoly((_SIEVE_PRIMES[-1],)), 5, 7) == [(m, 397) for m in (5, 6, 7)]
    assert prime_scan(LaurentPoly((3 * 7 * 19,)), 5, 7) == []


def test_prime_scan_rejects_negative_exponents_like_evaluate():
    poly = LaurentPoly((1, 1), -1)
    with pytest.raises(ValueError) as want:
        poly.evaluate(3)
    with pytest.raises(ValueError) as got:
        prime_scan(poly, 3, 5)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("m_from", [2, 4, 1000])
def test_prime_scan_tests_only_the_survivors_of_the_sieve(monkeypatch, m_from):
    """On 3_1 over 4000 values of m, as 2..4001, is_odd_prime sees exactly
    the values that no sieve prime divides, and those no larger than the
    largest sieve prime."""
    m_to = m_from + 3999
    tested = []
    monkeypatch.setattr(bounds, "is_odd_prime", lambda n: tested.append(n) or is_odd_prime(n))
    hits = prime_scan(TREFOIL_POLY, m_from, m_to)
    values = [m * m - m + 1 for m in range(m_from, m_to + 1)]
    survivors = [v for v in values if v <= _SIEVE_PRIMES[-1] or all(v % q for q in _SIEVE_PRIMES)]
    assert tested == survivors
    assert len(tested) < len(values) // 3
    assert hits == prime_scan_reference(TREFOIL_POLY, m_from, m_to)


def test_prime_scan_memory_is_bounded_by_the_block():
    """2(m^2 - m + 1) is even, so its values are evaluated and struck a
    block at a time and none is tested.  A list of the window's 50,000
    values would take about 2 MB."""
    tracemalloc.start()
    try:
        assert prime_scan(LaurentPoly((2, -2, 2)), 2, 50_001) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19


# Random polynomials: leading coefficients of either sign, products of two
# factors as in T(3,4)'s reduced polynomial, a factor t or t^2, and zero.
_polys = st.builds(
    lambda cs, e: LaurentPoly.from_terms(enumerate(cs)).shifted(e),
    st.lists(st.integers(-40, 40), min_size=1, max_size=7),
    st.integers(0, 2),
)
_products = st.builds(lambda a, b: a * b, _polys, _polys)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(_polys, _products, st.just(LaurentPoly())),
    st.integers(-1500, 1500),
    st.one_of(st.integers(0, 30), st.integers(380, 420), st.integers(1000, 2600)),
)
@example(TREFOIL_POLY, 2, 2)
@example(TREFOIL_POLY, -400, 2300)
@example(parse_poly("1 - t + t^3 - t^5 + t^6"), -1030, 2100)    # T(3,4): no prime value
@example(parse_poly("-1 + t - t^2"), -5, 5)
@example(LaurentPoly((2,)), 0, 3)
def test_prime_scan_matches_the_per_m_reference(poly, m_from, width):
    """Windows that cross 0, shorter than the largest sieve prime, and
    longer than a block."""
    m_to = m_from + width
    assert prime_scan(poly, m_from, m_to) == prime_scan_reference(poly, m_from, m_to)
