"""Special functions backing the package's formulas: big-float and float64.

Hurwitz zeta, its pole-free part at s = 1, exact Bernoulli numbers, the
Lambert W branch W_{-1} and log-Gamma are mpmath's, behind this package's
domain checks and error types.  Chebyshev T (evaluated trigonometrically)
and the associated Laguerre L^1 polynomials (by their upward recurrence) are
evaluated here.  Each float64 evaluator sits beside the big-float function
its tests compare it with:

    _bernoulli_coeffs   B_2r / (2r)!, r <= 40   bernoulli
    _w_m1               W_{-1}                  lambert_w_m1
    _w_0                W_0                     mpmath's lambertw
    _im_log_gamma       Im log Gamma            log_gamma (mpmath's loggamma)

The zero finder reads the first and the last, the arithmetic route the last
two, the zero-sum height chooser `_w_m1` and the zero-count height
`lfunc.height_for_count` `_w_0`.  All operations are pure.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np

from .errors import OutOfDomain, PoleAtOne
from .precision import DEFAULT_PRECISION, GUARD_BITS, PrecisionConfig


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n, with B_1 = -1/2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(*mpmath.bernfrac(n))


@functools.cache
def _bernoulli_coeffs() -> np.ndarray:
    """B_{2r}/(2r)! as float64, r = 1..40."""
    return np.array([float(bernoulli(2 * r) / math.factorial(2 * r))
                     for r in range(1, 41)])


# ----------------------------------------------------------------------------
# Hurwitz zeta

def hurwitz_zeta(s, a, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpc:
    """zeta(s, a) for a in (0, 1], s != 1."""
    with prec.workprec(GUARD_BITS + 10):
        s = mpmath.mpc(s)
        a = mpmath.mpf(a)
        if not (0 < a <= 1):
            raise OutOfDomain(f"a must be in (0, 1], got {a}")
        if s == 1:
            raise PoleAtOne("zeta(s, a) has a pole at s = 1")
        return mpmath.mpc(mpmath.zeta(s, a))


def hurwitz_zeta_minus_pole(a, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpf:
    """lim_{s->1} [zeta(s, a) - 1/(s-1)]  (equals -psi(a)).

    Needed where the simple pole cancels across a character sum.
    """
    with prec.workprec(GUARD_BITS + 10):
        a = mpmath.mpf(a)
        if not (0 < a <= 1):
            raise OutOfDomain(f"a must be in (0, 1], got {a}")
        return -mpmath.digamma(a)


# ----------------------------------------------------------------------------
# Lambert W: the branch W_{-1}, and W_0 in float64

def lambert_w_m1(x, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpf:
    """W_{-1}(x) for x in [-1/e, 0): the real branch with W <= -1."""
    with prec.workprec():
        x = mpmath.mpf(x)
        minus_inv_e = -mpmath.exp(-1)
        if x < minus_inv_e or x >= 0:
            # tolerate representation roundoff exactly at the branch point
            if abs(x - minus_inv_e) <= mpmath.eps * 4:
                return mpmath.mpf(-1)
            raise OutOfDomain(f"W_-1 domain is [-1/e, 0), got {x}")
        # near the branch point the result may carry a rounding-level
        # imaginary part or land just above -1
        return min(mpmath.re(mpmath.lambertw(x, -1)), mpmath.mpf(-1))


def _w_m1(x: float) -> float:
    """W_{-1}(x) on [-1/e, 0) in float64, -1 at the float -1/e: Halley's
    iteration on log(1 - u) + u = log(-e x) for u = W + 1."""
    d = math.e * ((x + 1 / math.e) - 1.2428753672788363e-17)  # 1 + e x, 1/e in two parts
    if d <= 0:
        return -1.0
    rhs = 1 + math.log(-x)  # log(-e x)
    u = rhs - math.log(1 - rhs)  # 1 + log(-x) - log(-log(-x)), close near 0
    if d < 0.5:  # near the branch point: its series, and log(-e x) to an ulp
        u, rhs = -math.sqrt(2 * d), math.log1p(-d)
    for _ in range(3):
        h = math.log1p(-u) + u - rhs
        u += 2 * u * (1 - u) * h / (2 * u * u + h)
    return u - 1


def _w_0(x: float) -> float:
    """W_0(x) for x > 0 in float64: Halley's iteration on w e^w = x from
    log(1 + x), or from log x - log log x above e."""
    w = math.log(x) - math.log(math.log(x)) if x > math.e else math.log1p(x)
    for _ in range(4):
        ew = math.exp(w)
        f = w * ew - x
        w -= f / (ew * (w + 1) - (w + 2) * f / (2 * w + 2))
    return w


# ----------------------------------------------------------------------------
# Chebyshev and Laguerre polynomials
def chebyshev_T(n: int, x, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpf:
    """T_n(x) = cos(n arccos x) on [-1, 1].

    Evaluated trigonometrically rather than by the three-term recurrence:
    the zero-sum formula uses large n at arguments exponentially close to 1,
    where the recurrence loses relative accuracy.  The O(n ulp) phase error
    is absorbed by guard bits scaling with log2 n.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    with prec.workprec(GUARD_BITS + 20 + max(1, n).bit_length()):
        x = mpmath.mpf(x)
        if abs(x) > 1:
            raise OutOfDomain(f"|x| <= 1 required, got {x}")
        return +mpmath.cos(n * mpmath.acos(x))


def laguerre_L1(n_minus_1: int, x, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpf:
    """Associated Laguerre polynomial L^1_{n-1}(x) for x >= 0.

    Stable upward recurrence (k+1) L_{k+1} = (2k+2-x) L_k - (k+1) L_{k-1}
    with L^1_0 = 1, L^1_1 = 2 - x; equals the alternating binomial sum
    sum_{j=1}^{n} C(n,j) (-1)^(j-1) x^(j-1)/(j-1)!.
    """
    if n_minus_1 < 0:
        raise ValueError("degree must be >= 0")
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
# log-Gamma, and its imaginary part in float64

def log_gamma(z, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpc:
    """Principal branch of log Gamma(z) away from the poles z = 0, -1, -2, ..."""
    with prec.workprec(GUARD_BITS + 10):
        z = mpmath.mpc(z)
        if mpmath.re(z) <= 0 and mpmath.im(z) == 0 and mpmath.re(z) == mpmath.floor(mpmath.re(z)):
            raise OutOfDomain("log_gamma pole at nonpositive integer")
        return mpmath.mpc(mpmath.loggamma(z))


def _im_log_gamma(x, y: np.ndarray) -> np.ndarray:
    """Im log Gamma(x + iy), x > 0 scalar or shaped like y: Stirling's series
    to order 15 at x + 8 + iy less arg(x + j + iy), j < 8, where |y| < 8."""
    near = np.abs(y) < 8
    x = np.broadcast_to(x, near.shape)
    w = x + 8 * near + 1j * y
    # B_2k / (2k (2k-1)) = (B_2k / (2k)!) (2k-2)!, k = 8..1
    c = _bernoulli_coeffs()[7::-1] * [math.factorial(k) for k in range(14, -1, -2)]
    lg = np.asarray((w.real - 0.5) * np.angle(w) + y * (np.log(np.abs(w)) - 1)
                    + (np.polyval(c, 1 / (w * w)) / w).imag)
    lg[near] -= np.arctan2(y[near, None], x[near, None] + np.arange(8)).sum(axis=-1)
    return lg
