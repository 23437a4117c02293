"""Primality, digit counting, and the two lower bounds."""

import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qfox
from qfox import (
    BoundsError,
    CompositeValueError,
    applicability,
    improved_lower_bound,
    is_odd_prime,
    kl_lower_bound,
    lemma31_value,
    lspace_pattern_check,
    parse_poly,
    prime_scan,
    require_odd_prime,
    smallest_prime_factor,
)
from qfox.bounds import _strong_lucas_probable_prime, floor_log, probable_only
from qfox.laurent import alexander_matrix, first_minor, reduce_normalize
from oracles import base_m_digits

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
        "from qfox.bounds import smallest_prime_factor; "
        f"print(smallest_prime_factor({TWO_LARGE_FACTORS}))",
    )
    assert (proc.returncode, proc.stdout) == (0, "None\n"), proc.stderr


@pytest.mark.parametrize("subcommand", ["color", "bounds"])
def test_composite_p_with_two_large_factors_exits_1(subcommand):
    proc = _run_python(
        "-m", "qfox.cli", subcommand, "3_1", "--m", "2", "--p", str(TWO_LARGE_FACTORS)
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {TWO_LARGE_FACTORS} is not an odd prime\n"


def test_require_odd_prime_passes_silently():
    require_odd_prime(151)


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
    assert applicability(P73, 5) == "strict"
    assert applicability(P73, 4) == "weaker"
    assert applicability(P73, 3) == "none"


def test_applicability_exceptional_tail_needs_strict():
    # last two non-zero coefficients below the top are both negative
    poly = parse_poly("1 - t - t^2 + 3t^3 - t^4 - t^5 + t^6")
    assert applicability(poly, 4) == "none"
    assert applicability(poly, 5) == "strict"


def test_applicability_rejects_non_knot_shapes():
    with pytest.raises(BoundsError):
        applicability(parse_poly("1 + t"), 5)    # odd degree
    with pytest.raises(BoundsError):
        applicability(parse_poly("1 + t - t^2"), 5)   # not palindromic


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


# -- alternating unit-coefficient pattern ----------------------------------------------


def test_lspace_pattern_examples():
    assert lspace_pattern_check(TREFOIL_POLY)
    assert lspace_pattern_check(P10_145) is False
    assert lspace_pattern_check(P73) is False
    assert lspace_pattern_check(parse_poly("1 - 3t + t^2")) is False
    assert lspace_pattern_check(parse_poly("1 - t + t^3 - t^5 + t^6"))


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
