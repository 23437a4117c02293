"""Lower bounds on color counts from the reduced Alexander polynomial.

Two bounds are computed.  The Kauffman-Lopes bound 2 + floor(log_M p) with
M = max(|m|, |m-1|) needs only p and m.  The improved bound reads the
coefficient pattern of the polynomial: writing it as c_0 + ... + c_k t^k
(normalized, c_0 = c_k > 0), for large enough m the value at m has exactly
k+1 base-m digits, except when c_k = 1 and the last non-zero coefficient
before c_k is negative, in which case the leading digit dies and there are
k of them.  "Large enough" means m > max|c_i|, or m > max|c_i| + 1 in the
single exceptional pattern where the two last non-zero coefficients before
c_k are both negative.  All log computations are exact integer loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

from .errors import BoundsError, CompositeValueError
from .laurent import LaurentPoly


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

# Trial division by the witnesses, then one base-2 strong test.  For
# 2^64 <= n < psi_13 strong tests to the other witnesses, all 13 primes up
# to 41, make the answer proven (Sorenson-Webster, Math. Comp. 86, 2017).
# Every other n gets a strong Lucas test, completing Baillie-PSW: proven
# below 2^64, where no base-2 strong pseudoprime is a strong Lucas
# pseudoprime (Feitsma-Galway enumeration), and only probable from psi_13 on.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int, a: int, d: int, r: int) -> bool:
    """Strong test of odd n to base a, with n - 1 = d * 2^r and d odd."""
    if a % n == 0:
        return True
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 1 with Selfridge's parameters: D is the
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False        # no D would have (D/n) = -1
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False    # gcd(D, n) is a proper factor
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    # n + 1 = k * 2^s with k odd; U_k, V_k and Q^k by the doubling formulas
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    k = (n + 1) >> s
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (d * u + v) % n
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    r = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> r
    if not _strong_probable_prime(n, 2, d, r):
        return False
    if 1 << 64 <= n < MR_DETERMINISTIC_BELOW:
        return all(_strong_probable_prime(n, a, d, r) for a in _MR_WITNESSES[1:])
    return _strong_lucas_probable_prime(n)


def is_odd_prime(n: int) -> bool:
    return n > 2 and _is_prime(n)


def probable_only(n: int) -> bool:
    """True when primality of n rests on Baillie-PSW alone, which is
    unproven from the Sorenson-Webster threshold on."""
    return n >= MR_DETERMINISTIC_BELOW


def smallest_prime_factor(n: int) -> int | None:
    """Smallest prime factor of n >= 2: trial division, then Pollard rho on
    n and on every factor it splits off.  The rho steps of the whole call
    share one budget of 2^18; None when it runs out before n is split into
    primes."""
    if n < 2:
        raise BoundsError(f"no prime factor of {n}")
    for p in (2, 3, 5):
        if n % p == 0:
            return p
    f = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 1_000_000:
        if n % f == 0:
            return f
        f += inc[i]
        i = (i + 1) % 8
    if f * f > n:
        return n
    from math import gcd
    import random

    # No factor is below f now, so a factor that passes the primality test
    # is a prime factor, and the smallest of those is the answer.
    budget = 1 << 18
    primes = []
    todo = [n]
    while todo:
        n = todo.pop()
        if _is_prime(n):
            primes.append(n)
            continue
        rng = random.Random(n)
        d = n
        while d == n:
            c = rng.randrange(1, n)
            x = y = rng.randrange(2, n)
            d = 1
            while d == 1:
                if budget == 0:
                    return None
                budget -= 1
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                d = gcd(abs(x - y), n)
        todo += [d, n // d]
    return min(primes)


def require_odd_prime(value: int) -> None:
    """Raise unless value is an odd prime; composites report a factor when
    smallest_prime_factor finds one within its budget."""
    if value < 2:
        raise BoundsError(f"{value} is not an odd prime")
    if value == 2:
        raise BoundsError("2 is not an odd prime")
    if not _is_prime(value):
        raise CompositeValueError(value, smallest_prime_factor(value))


# ---------------------------------------------------------------------------
# Exact digit arithmetic
# ---------------------------------------------------------------------------


def floor_log(value: int, base: int) -> int:
    """Largest r with base^r <= value.  Integer comparisons only."""
    if value < 1:
        raise BoundsError(f"floor_log needs a positive value, got {value}")
    if base < 2:
        raise BoundsError(f"floor_log needs base >= 2, got {base}")
    r = 0
    power = base
    while power <= value:
        power *= base
        r += 1
    return r


def kl_lower_bound(p: int, m: int) -> int:
    """2 + floor(log_M p) with M = max(|m|, |m-1|).

    Valid as a color-count bound when p is an odd prime and non-trivial
    colorings exist; the arithmetic itself only needs p >= 2 and M >= 2.
    """
    if p < 2:
        raise BoundsError(f"lower bound needs p >= 2, got {p}")
    big_m = max(abs(m), abs(m - 1))
    if big_m < 2:
        raise BoundsError(f"m = {m} gives max(|m|, |m-1|) < 2; bound undefined")
    return 2 + floor_log(p, big_m)


# ---------------------------------------------------------------------------
# Coefficient pattern of a normalized knot polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Profile:
    k: int
    max_abs: int
    case: int           # 1 when c_k = 1 and the last non-zero c_i below k is negative, else 2
    exceptional: bool   # the two last non-zero coefficients below k are both negative


def _knot_coeffs(poly: LaurentPoly) -> list[int]:
    if poly.is_zero:
        raise BoundsError("zero polynomial")
    if poly.min_exp != 0 or poly.coeffs[0] <= 0:
        raise BoundsError(
            f"expected a normalized polynomial (t^0 term positive), got {poly}"
        )
    c = list(poly.coeffs)
    k = len(c) - 1
    if c != c[::-1] or k % 2 != 0:
        raise BoundsError(f"expected a palindromic even-degree polynomial, got {poly}")
    return c


def _profile(poly: LaurentPoly) -> _Profile:
    c = _knot_coeffs(poly)
    k = len(c) - 1
    if k < 2:
        raise BoundsError(f"degree {k} polynomial carries no bound information")
    nz = [i for i, v in enumerate(c) if v != 0]
    return _Profile(
        k=k,
        max_abs=max(abs(v) for v in c),
        case=1 if c[k] == 1 and c[nz[-2]] < 0 else 2,
        exceptional=len(nz) >= 3 and c[nz[-2]] < 0 and c[nz[-3]] < 0,
    )


def _hypothesis(prof: _Profile, m: int) -> str:
    if m > prof.max_abs + 1:
        return "strict"
    if m > prof.max_abs and not prof.exceptional:
        return "weaker"
    return "none"


def applicability(poly: LaurentPoly, m: int) -> str:
    """Which evaluation hypothesis m satisfies: 'strict' (m > max|c_i|+1),
    'weaker' (m > max|c_i|, allowed when the pattern is not the exceptional
    double-negative tail), or 'none'."""
    return _hypothesis(_profile(poly), m)


class Lemma31Value(NamedTuple):
    floor_log: int
    predicted: int


def lemma31_value(poly: LaurentPoly, m: int) -> Lemma31Value:
    """floor(log_m value(m)) together with the coefficient-pattern prediction.

    The prediction is k-1 when c_k = 1 and the penultimate non-zero
    coefficient is negative (the leading base-m digit cancels), otherwise k.
    Any mismatch with the directly computed floor is an invariant violation
    and raises.
    """
    prof = _profile(poly)
    if _hypothesis(prof, m) == "none":
        raise BoundsError(
            f"m = {m} does not satisfy the evaluation hypothesis "
            f"(max coefficient {prof.max_abs})"
        )
    p = poly.evaluate(m)
    if p < 1:
        raise BoundsError(f"value at m = {m} is {p}, not positive")
    fl = floor_log(p, m)
    predicted = prof.k - 1 if prof.case == 1 else prof.k
    if fl != predicted:
        raise BoundsError(
            f"case-table mismatch: floor(log_{m} {p}) = {fl}, predicted {predicted}"
        )
    return Lemma31Value(floor_log=fl, predicted=predicted)


def lspace_pattern_check(poly: LaurentPoly) -> bool:
    """All non-zero coefficients are +-1 and alternate in sign."""
    nz = [v for v in poly.coeffs if v != 0]
    if not nz or any(abs(v) != 1 for v in nz):
        return False
    return all(a * b < 0 for a, b in zip(nz, nz[1:]))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Both lower bounds plus the coefficient case analysis for one (K, m)."""

    knot_name: str
    poly: LaurentPoly
    m: int
    p: int
    applicability: str          # strict | weaker | none
    case: int | None            # 1: c_k=1 and penultimate < 0; 2: otherwise
    kl: int
    improved: int | None        # k+1 (case 1) or k+2 (case 2); None when withheld
    upper_value: int | None = None
    upper_witness: dict | None = None

    def to_json(self) -> dict:
        lower: dict = {"kl": self.kl}
        if self.improved is not None:
            lower["improved"] = self.improved
        out = {
            "knot": self.knot_name,
            "poly": str(self.poly),
            "m": self.m,
            "p": self.p,
            "applicability": self.applicability,
            "case": self.case,
            "lower_bounds": lower,
        }
        if self.upper_value is not None:
            out["upper_bound"] = {
                "value": self.upper_value,
                "witness": self.upper_witness,
            }
        return out


def improved_lower_bound(poly: LaurentPoly, m: int, name: str = "") -> BoundReport:
    """Bound report for a knot polynomial at multiplier m with p = value(m).

    p must be an odd prime.  The improved bound k+1 / k+2 is included only
    when m satisfies the evaluation hypothesis; the Kauffman-Lopes bound is
    always reported.
    """
    prof = _profile(poly)
    p = poly.evaluate(m)
    require_odd_prime(p)
    app = _hypothesis(prof, m)
    improved = None
    if app != "none":
        improved = prof.k + 1 if prof.case == 1 else prof.k + 2
    return BoundReport(
        knot_name=name,
        poly=poly,
        m=m,
        p=p,
        applicability=app,
        case=prof.case,
        kl=kl_lower_bound(p, m),
        improved=improved,
    )


def prime_scan(poly: LaurentPoly, m_from: int, m_to: int) -> list[tuple[int, int]]:
    """All (m, value) with m_from <= m <= m_to and value an odd prime."""
    if m_from > m_to:
        raise BoundsError(f"empty scan range {m_from}..{m_to}")
    hits = []
    for m in range(m_from, m_to + 1):
        v = poly.evaluate(m)
        if v > 2 and is_odd_prime(v):
            hits.append((m, v))
    return hits
