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

Primality is decided in three regimes.  Below 4,759,123,141 a value that
passes the base-2 strong test is settled by strong tests to bases 7 and 61
(Jaeschke, Math. Comp. 61, 1993).  Between 2^64 and psi_13 strong tests to
the 13 primes up to 41 prove it (Sorenson-Webster).  Everywhere else a
strong Lucas test completes Baillie-PSW, proven below 2^64 and only probable
from psi_13 on.

prime_scan sieves before it tests.  The values of an integer polynomial
repeat mod q with period q in m, so the first q values of a window show
every class m = r (mod q) with q | value(m), and one slice of a bytearray
per class strikes them in a block of consecutive m.  A struck value larger
than q is composite; only the values left unstruck, and those no larger
than the largest sieve prime, go to is_odd_prime.  Finding the classes of q
takes q remainders, so a window shorter than q is not sieved by q: at 100
values that would cost more than the tests it saves.  The window is
evaluated and sieved a block at a time, so memory stays bounded in its
length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import NamedTuple

from .errors import BoundsError, CompositeValueError
from .laurent import LaurentPoly


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

# Trial division by the witnesses, then one base-2 strong test.  Below
# 4,759,123,141 = 48781 * 97561, the least composite passing strong tests to
# bases 2, 7 and 61, the other two settle n (Jaeschke, Math. Comp. 61, 1993).
# For 2^64 <= n < psi_13 strong tests to the other witnesses, all 13 primes
# up to 41, make the answer proven (Sorenson-Webster, Math. Comp. 86, 2017).
# Every other n gets a strong Lucas test, completing Baillie-PSW: proven
# below 2^64, where no base-2 strong pseudoprime is a strong Lucas
# pseudoprime (Feitsma-Galway enumeration), and only probable from psi_13 on.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_JAESCHKE_BELOW = 4_759_123_141
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
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.

    With n + 1 = k 2^s, k odd, n passes when U_k = 0 or V_(k 2^r) = 0 for
    some 0 <= r < s (mod n).  The ladder carries V_j, V_(j+1) and Q^j only:
    D U_k = 2 V_(k+1) - P V_k, and (D/n) = -1 makes D a unit mod n, so
    U_k = 0 exactly when 2 V_(k+1) = V_k.  The test so decides what the
    chain of U and V decides, and is the strong Lucas test of Baillie-PSW
    with its proof below 2^64."""
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
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    k = (n + 1) >> s
    # From j = 1 up the bits of k: V_2j = V_j^2 - 2 Q^j,
    # V_(2j+1) = V_j V_(j+1) - P Q^j and V_(2j+2) = V_(j+1)^2 - 2 Q^(j+1).
    v, v1, qk = 1, (1 - 2 * q) % n, q % n
    for bit in bin(k)[3:]:
        if bit == "1":
            v, v1, qk = (v * v1 - qk) % n, (v1 * v1 - 2 * qk * q) % n, qk * qk * q % n
        else:
            v, v1, qk = (v * v - 2 * qk) % n, (v * v1 - qk) % n, qk * qk % n
    if (2 * v1 - v) % n == 0 or v == 0:
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
    if n < _JAESCHKE_BELOW:
        return _strong_probable_prime(n, 7, d, r) and _strong_probable_prime(n, 61, d, r)
    if 1 << 64 <= n < MR_DETERMINISTIC_BELOW:
        return all(_strong_probable_prime(n, a, d, r) for a in _MR_WITNESSES[1:])
    return _strong_lucas_probable_prime(n)


def is_odd_prime(n: int) -> bool:
    return n > 2 and _is_prime(n)


def probable_only(n: int) -> bool:
    """True when primality of n rests on Baillie-PSW alone, which is
    unproven from the Sorenson-Webster threshold on."""
    return n >= MR_DETERMINISTIC_BELOW


def _trial_factor(n: int) -> int | None:
    """The smallest prime factor of n >= 2 below 10^6, n itself when n has
    no factor up to its square root, and None otherwise."""
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
    return n if f * f > n else None


def _rho_smallest_prime_factor(n: int) -> int | None:
    """Smallest prime factor of a composite n with no factor below 10^6:
    Pollard rho (Brent's cycle finding, one gcd per batch of _RHO_BATCH
    steps) on n and on every composite factor it splits off.  The rho steps
    of the whole call share one budget, weighted by the size of n: a step
    squares and reduces a number of n's size, at schoolbook cost, so the
    budget is 2^18 steps up to 128 bits and shrinks with the square of the
    bit length above that.  None when it runs out before n is split into
    primes."""
    import random

    # No factor is below 10^6, so a factor that passes the primality test
    # is a prime factor, and the smallest of those is the answer.
    budget = (1 << 18) * 128**2 // max(n.bit_length(), 128) ** 2
    primes = []
    todo = [n]
    while todo:
        n = todo.pop()
        rng = random.Random(n)
        d = n
        while d == n:
            d, steps = _brent(n, rng.randrange(1, n), rng.randrange(2, n), budget)
            budget -= steps
            if d is None:
                return None
        for f in (d, n // d):
            (primes if _is_prime(f) else todo).append(f)
    return min(primes)


_RHO_BATCH = 128


def _brent(n: int, c: int, y: int, budget: int) -> tuple[int | None, int]:
    """A divisor d > 1 of n from the rho walk y -> y^2 + c mod n, and the
    steps taken.  Brent's cycle finding compares y with the walk's value x
    at the last power of two, multiplying the differences into q and taking
    gcd(q, n) once per batch of _RHO_BATCH steps; a batch whose gcd is n is
    walked again one step at a time (those steps are not counted).  d = n
    means this walk failed, and d is None when the next gcd lies past the
    budget."""
    from math import gcd

    steps = 0
    g = q = r = 1
    while g == 1:
        if steps + r > budget:
            return None, steps
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        k = 0
        while k < r and g == 1:
            m = min(_RHO_BATCH, r - k, budget - steps)
            if m == 0:
                return None, steps
            ys = y
            for _ in range(m):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            steps += m
            g = gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g, steps


def require_odd_prime(value: int) -> None:
    """Raise unless value is an odd prime; a composite's error names its
    smallest prime factor, or says that the rho search found none within its
    budget.  The value is tested for primality once."""
    if value < 2:
        raise BoundsError(f"{value} is not an odd prime")
    if value == 2:
        raise BoundsError("2 is not an odd prime")
    if not _is_prime(value):
        raise CompositeValueError(value, _trial_factor(value) or _rho_smallest_prime_factor(value))


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
class Profile:
    """What the bounds read from the coefficients c_0..c_k of a normalized
    knot polynomial; one profile serves every m."""

    k: int
    max_abs: int
    case: int           # 1 when c_k = 1 and the last non-zero c_i below k is negative, else 2
    exceptional: bool   # the two last non-zero coefficients below k are both negative

    def hypothesis(self, m: int) -> str:
        """Which evaluation hypothesis m satisfies: 'strict' (m > max|c_i|+1),
        'weaker' (m > max|c_i|, allowed when the pattern is not the
        exceptional double-negative tail), or 'none'."""
        if m > self.max_abs + 1:
            return "strict"
        if m > self.max_abs and not self.exceptional:
            return "weaker"
        return "none"

    def improved(self, m: int) -> int | None:
        """The improved bound at m: k+1 in case 1, k+2 in case 2, and None
        when m satisfies no evaluation hypothesis."""
        if self.hypothesis(m) == "none":
            return None
        return self.k + 1 if self.case == 1 else self.k + 2


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


def profile(poly: LaurentPoly) -> Profile:
    """The coefficient profile of a normalized, palindromic knot polynomial
    of even degree k >= 2; BoundsError for any other polynomial."""
    c = _knot_coeffs(poly)
    k = len(c) - 1
    if k < 2:
        raise BoundsError(f"degree {k} polynomial carries no bound information")
    nz = [i for i, v in enumerate(c) if v != 0]
    return Profile(
        k=k,
        max_abs=max(abs(v) for v in c),
        case=1 if c[k] == 1 and c[nz[-2]] < 0 else 2,
        exceptional=len(nz) >= 3 and c[nz[-2]] < 0 and c[nz[-3]] < 0,
    )


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
    prof = profile(poly)
    if prof.hypothesis(m) == "none":
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
    prof = profile(poly)
    p = poly.evaluate(m)
    require_odd_prime(p)
    return BoundReport(
        knot_name=name,
        poly=poly,
        m=m,
        p=p,
        applicability=prof.hypothesis(m),
        case=prof.case,
        kl=kl_lower_bound(p, m),
        improved=prof.improved(m),
    )


# The scan sieve: the 78 primes below 400, and the number of consecutive m
# evaluated and sieved at once.  A block holds at least _SIEVE_PRIMES[-1]
# values, so the first block of a window shows every root class.
_SIEVE_PRIMES = tuple([q for q in range(2, 400) if all(q % f for f in range(2, isqrt(q) + 1))])
_SCAN_BLOCK = 1024


def _values(coeffs: tuple[int, ...], min_exp: int, ms: range) -> list[int]:
    """The polynomial with these coefficients at every m of ms, by one
    Horner pass over the block."""
    vals = [coeffs[-1]] * len(ms)
    for c in coeffs[-2::-1]:
        vals = [v * m + c for v, m in zip(vals, ms)]
    if min_exp:
        vals = [v * m**min_exp for v, m in zip(vals, ms)]
    return vals


def prime_scan(poly: LaurentPoly, m_from: int, m_to: int) -> list[tuple[int, int]]:
    """All (m, value) with m_from <= m <= m_to and value an odd prime, in
    order of m.  The window is sieved a block at a time by the primes below
    400 that are no larger than its length; is_odd_prime runs on the values
    that no sieve prime divides and on those no larger than the largest
    sieve prime."""
    if m_from > m_to:
        raise BoundsError(f"empty scan range {m_from}..{m_to}")
    if poly.is_zero:
        return []
    if poly.min_exp < 0:
        raise ValueError("cannot evaluate a polynomial with negative exponents")
    small = _SIEVE_PRIMES[-1]
    hits = []
    roots = None
    for lo in range(m_from, m_to + 1, _SCAN_BLOCK):
        ms = range(lo, min(lo + _SCAN_BLOCK, m_to + 1))
        vals = _values(poly.coeffs, poly.min_exp, ms)
        n = len(vals)
        if roots is None:
            # the offsets r < q from m_from of the classes with q | value,
            # for the primes q whose period the window holds
            roots = [(q, r) for q in _SIEVE_PRIMES if q <= n for r in range(q) if vals[r] % q == 0]
        alive = bytearray(b"\x01") * n
        for q, r in roots:
            start = (r - (lo - m_from)) % q
            alive[start::q] = bytes(len(range(start, n, q)))
        if min(vals) <= small:
            # q | q, so values up to the largest sieve prime are tested anyway
            for i, v in enumerate(vals):
                if 2 < v <= small:
                    alive[i] = 1
        for m, v in compress(zip(ms, vals), alive):
            if v > 2 and is_odd_prime(v):
                hits.append((m, v))
    return hits
