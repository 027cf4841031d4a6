"""Big-float special functions backing the package's formulas.

Hurwitz zeta, its pole-free part at s = 1, exact Bernoulli numbers, the
Lambert W branch W_{-1} and log-Gamma are mpmath's, behind this package's
domain checks and error types.  Chebyshev T (evaluated trigonometrically)
and the associated Laguerre L^1 polynomials (by their upward recurrence) are
evaluated here.  The float64 log-Gamma of the zero finder and of the
arithmetic route's Gamma-factor terms is `fastzeros._im_log_gamma`.

All operations are pure.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .errors import OutOfDomain, PoleAtOne
from .precision import DEFAULT_PRECISION, GUARD_BITS, PrecisionConfig


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n, with B_1 = -1/2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(*mpmath.bernfrac(n))


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
# Lambert W, branch W_{-1}

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
# log-Gamma -- used by the completed L-function

def log_gamma(z, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpc:
    """Principal branch of log Gamma(z) away from the poles z = 0, -1, -2, ..."""
    with prec.workprec(GUARD_BITS + 10):
        z = mpmath.mpc(z)
        if mpmath.re(z) <= 0 and mpmath.im(z) == 0 and mpmath.re(z) == mpmath.floor(mpmath.re(z)):
            raise OutOfDomain("log_gamma pole at nonpositive integer")
        return mpmath.mpc(mpmath.loggamma(z))
