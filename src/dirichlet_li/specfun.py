"""High-precision special functions backing every formula in the package.

Hurwitz zeta by Euler-Maclaurin, integer zeta values, exact Bernoulli
numbers, the Lambert W branch W_{-1}, Chebyshev T evaluated
trigonometrically, associated Laguerre L^1 polynomials, and log-Gamma by
Stirling with a Bernoulli tail.

All operations are pure; the Bernoulli cache is guarded by a lock so it is
safe under concurrent readers.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

import mpmath

from .errors import OutOfDomain, PoleAtOne, PrecisionUnreachable
from .precision import GUARD_BITS, PrecisionConfig, default_precision

# Ceiling on the Euler-Maclaurin leading-sum length before giving up.
EULER_MACLAURIN_N_CEILING = 4_000_000


# ----------------------------------------------------------------------------
# Bernoulli numbers (exact rationals)

_bernoulli_cache: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}
_bernoulli_lock = threading.Lock()
_bernoulli_max = 1


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n via sum_{k=0}^{n} C(n+1,k) B_k = 0.

    Intended for even n (the Euler-Maclaurin weights); odd n > 1 returns 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 1:
        return _bernoulli_cache[1] if n == 1 else Fraction(0)
    global _bernoulli_max
    if n in _bernoulli_cache:
        return _bernoulli_cache[n]
    with _bernoulli_lock:
        for m in range(_bernoulli_max + 1, n + 1):
            if m in _bernoulli_cache:
                continue
            if m % 2 == 1:
                _bernoulli_cache[m] = Fraction(0)
                continue
            acc = Fraction(0)
            for k in range(m):
                acc += math.comb(m + 1, k) * _bernoulli_cache[k]
            _bernoulli_cache[m] = -acc / (m + 1)
        _bernoulli_max = max(_bernoulli_max, n)
    return _bernoulli_cache[n]


# ----------------------------------------------------------------------------
# Hurwitz zeta

def _euler_maclaurin(s, a, wp, n_start):
    """One Euler-Maclaurin pass at mpmath precision wp; returns (value, ok)."""
    eps = mpmath.mpf(2) ** (-wp + 4)
    N = n_start
    total = mpmath.mpc(0)
    for k in range(N):
        total += (k + a) ** (-s)
    Na = N + a
    total += Na ** (1 - s) / (s - 1)
    total += Na ** (-s) / 2
    # Bernoulli tail: B_{2r}/(2r)! * (s)_{2r-1} * (N+a)^(-s-2r+1)
    poch = s  # (s)_1
    power = Na ** (-s - 1)
    inv_na2 = 1 / (Na * Na)
    scale = max(mpmath.mpf(1), abs(total))
    r = 1
    prev = mpmath.inf
    while True:
        b2r = bernoulli(2 * r)
        coeff = mpmath.mpf(b2r.numerator) / b2r.denominator / mpmath.factorial(2 * r)
        term = coeff * poch * power
        total += term
        mag = abs(term)
        if mag < eps * scale:
            return total, True
        if mag > prev:  # asymptotic series started diverging
            return total, False
        prev = mag
        poch = poch * (s + 2 * r - 1) * (s + 2 * r)
        power = power * inv_na2
        r += 1
        if r > wp:
            return total, False


def hurwitz_zeta(s, a, prec: PrecisionConfig | None = None,
                 n_ceiling: int = EULER_MACLAURIN_N_CEILING) -> mpmath.mpc:
    """zeta(s, a) for a in (0, 1], s != 1, by Euler-Maclaurin summation.

    The leading-sum length N starts from max(20, |Im s|/3, precision-based
    floor) and doubles until the Bernoulli tail reaches the 2^(-working_bits
    + guard) remainder target; exceeding `n_ceiling` raises
    PrecisionUnreachable.
    """
    prec = prec or default_precision()
    with prec.workprec(GUARD_BITS + 10):
        wp = mpmath.mp.prec
        s = mpmath.mpc(s)
        a = mpmath.mpf(a)
        if not (0 < a <= 1):
            raise OutOfDomain(f"a must be in (0, 1], got {a}")
        if s == 1:
            raise PoleAtOne("zeta(s, a) has a pole at s = 1")
        im = abs(float(mpmath.im(s)))
        mag = abs(s)
        N = max(20, math.ceil(im / 3), wp // 4 + int(float(mag) / 6))
        while True:
            if N > n_ceiling:
                raise PrecisionUnreachable(
                    f"Euler-Maclaurin N would exceed ceiling {n_ceiling}")
            value, ok = _euler_maclaurin(s, a, wp, N)
            if ok:
                if mpmath.im(s) == 0:
                    return mpmath.mpc(mpmath.re(value), 0)
                return value
            N *= 2


def hurwitz_zeta_minus_pole(a, prec: PrecisionConfig | None = None) -> mpmath.mpf:
    """lim_{s->1} [zeta(s, a) - 1/(s-1)]  (equals -psi(a)).

    Needed where the simple pole cancels across a character sum.
    """
    prec = prec or default_precision()
    with prec.workprec(GUARD_BITS + 10):
        wp = mpmath.mp.prec
        a = mpmath.mpf(a)
        if not (0 < a <= 1):
            raise OutOfDomain(f"a must be in (0, 1], got {a}")
        N = max(20, wp // 4)
        total = mpmath.fsum(1 / (k + a) for k in range(N))
        Na = N + a
        total += -mpmath.log(Na) + 1 / (2 * Na)
        eps = mpmath.mpf(2) ** (-wp + 4)
        power = Na ** mpmath.mpf(-2)
        inv_na2 = power
        r = 1
        while True:
            b = bernoulli(2 * r)
            term = (mpmath.mpf(b.numerator) / b.denominator) / (2 * r) * power
            total += term
            if abs(term) < eps or r > wp:
                break
            power *= inv_na2
            r += 1
        return +total


# j -> (working_bits, zeta(j)) at the highest precision asked for so far
_zeta_int_cache: dict[int, tuple[int, mpmath.mpf]] = {}


def zeta_int(j: int, prec: PrecisionConfig | None = None) -> mpmath.mpf:
    """zeta(j) for integer j >= 2: even j by the Bernoulli closed form
    pi^(2m) |B_2m| 2^(2m-1) / (2m)!, odd j via Euler-Maclaurin.

    The memo keeps the most precise value per j and serves any lower
    precision by rounding it."""
    if j < 2:
        raise ValueError("need j >= 2")
    prec = prec or default_precision()
    bits, val = _zeta_int_cache.get(j, (0, None))
    with prec.workprec():
        if bits >= prec.working_bits:
            return +val
        if j % 2 == 0:
            b = bernoulli(j)
            val = (mpmath.pi ** j * abs(mpmath.mpf(b.numerator)) / b.denominator
                   * mpmath.mpf(2) ** (j - 1) / mpmath.factorial(j))
        else:
            val = mpmath.re(hurwitz_zeta(mpmath.mpf(j), 1, prec))
    _zeta_int_cache[j] = (prec.working_bits, val)
    return val


# ----------------------------------------------------------------------------
# Lambert W, branch W_{-1}

def lambert_w_m1(x, prec: PrecisionConfig | None = None) -> mpmath.mpf:
    """W_{-1}(x) for x in [-1/e, 0): the real branch with W <= -1.

    Halley iteration from the asymptotic seed log(-x) - log(-log(-x)); near
    the branch point the square-root expansion seeds instead.
    """
    prec = prec or default_precision()
    with prec.workprec():
        x = mpmath.mpf(x)
        minus_inv_e = -mpmath.exp(-1)
        if x < minus_inv_e or x >= 0:
            # tolerate representation roundoff exactly at the branch point
            if abs(x - minus_inv_e) <= mpmath.eps * 4:
                return mpmath.mpf(-1)
            raise OutOfDomain(f"W_-1 domain is [-1/e, 0), got {x}")
        p2 = 2 * (1 + mpmath.e * x)
        if p2 < mpmath.mpf("0.01"):
            # branch-point expansion, W_{-1} takes the negative root
            p = -mpmath.sqrt(p2)
            w = -1 + p - p2 / 3 + 11 * p * p2 / 72
        else:
            L1 = mpmath.log(-x)
            w = L1 - mpmath.log(-L1)
        tol = min(mpmath.mpf(prec.target_abs_error),
                  mpmath.mpf(2) ** (-prec.working_bits + 8)) * abs(x)
        tol = max(tol, abs(x) * mpmath.eps * 8)
        for _ in range(200):
            ew = mpmath.exp(w)
            f = w * ew - x
            if abs(f) <= tol:
                break
            wp1 = w + 1
            denom = ew * wp1 - (w + 2) * f / (2 * wp1)
            w = w - f / denom
        if w > -1:
            w = mpmath.mpf(-1)
        return +w


# ----------------------------------------------------------------------------
# Chebyshev and Laguerre polynomials

def chebyshev_T(n: int, x, prec: PrecisionConfig | None = None) -> mpmath.mpf:
    """T_n(x) = cos(n arccos x) on [-1, 1].

    Evaluated trigonometrically rather than by the three-term recurrence:
    the zero-sum formula uses large n at arguments exponentially close to 1,
    where the recurrence loses relative accuracy.  The O(n ulp) phase error
    is absorbed by guard bits scaling with log2 n.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    prec = prec or default_precision()
    with prec.workprec(GUARD_BITS + 20 + max(1, n).bit_length()):
        x = mpmath.mpf(x)
        if abs(x) > 1:
            raise OutOfDomain(f"|x| <= 1 required, got {x}")
        return +mpmath.cos(n * mpmath.acos(x))


def laguerre_L1(n_minus_1: int, x, prec: PrecisionConfig | None = None) -> mpmath.mpf:
    """Associated Laguerre polynomial L^1_{n-1}(x) for x >= 0.

    Stable upward recurrence (k+1) L_{k+1} = (2k+2-x) L_k - (k+1) L_{k-1}
    with L^1_0 = 1, L^1_1 = 2 - x; equals the alternating binomial sum
    sum_{j=1}^{n} C(n,j) (-1)^(j-1) x^(j-1)/(j-1)!.
    """
    if n_minus_1 < 0:
        raise ValueError("degree must be >= 0")
    prec = prec or default_precision()
    with prec.workprec():
        x = mpmath.mpf(x)
        if x < 0:
            raise OutOfDomain(f"x >= 0 required, got {x}")
        if n_minus_1 == 0:
            return mpmath.mpf(1)
        prev, cur = mpmath.mpf(1), 2 - x
        for k in range(1, n_minus_1):
            prev, cur = cur, ((2 * k + 2 - x) * cur - (k + 1) * prev) / (k + 1)
        return +cur


# ----------------------------------------------------------------------------
# log-Gamma (Stirling with Bernoulli tail) -- used by the completed L-function

def log_gamma(z, prec: PrecisionConfig | None = None) -> mpmath.mpc:
    """log Gamma(z) for Re z > 0 by Stirling's series with a Bernoulli tail,
    shifting z upward until the asymptotic series reaches the target."""
    prec = prec or default_precision()
    with prec.workprec(GUARD_BITS + 10):
        wp = mpmath.mp.prec
        z = mpmath.mpc(z)
        if mpmath.re(z) <= 0 and mpmath.im(z) == 0 and mpmath.re(z) == mpmath.floor(mpmath.re(z)):
            raise OutOfDomain("log_gamma pole at nonpositive integer")
        # shift so |z| is large enough for the asymptotic series
        threshold = 0.25 * wp + 5
        shift = 0
        zs = z
        while abs(zs) < threshold or mpmath.re(zs) < 1:
            zs += 1
            shift += 1
        val = (zs - mpmath.mpf(1) / 2) * mpmath.log(zs) - zs + mpmath.log(2 * mpmath.pi) / 2
        eps = mpmath.mpf(2) ** (-wp + 2)
        inv = 1 / zs
        inv2 = inv * inv
        power = inv
        r = 1
        while True:
            b = bernoulli(2 * r)
            term = (mpmath.mpf(b.numerator) / b.denominator) * power / ((2 * r) * (2 * r - 1))
            val += term
            if abs(term) < eps * max(1, abs(val)) or r > wp:
                break
            power *= inv2
            r += 1
        # undo the shift: log Gamma(z) = log Gamma(z + m) - sum log(z + k)
        for k in range(shift):
            val -= mpmath.log(z + k)
        return +val
