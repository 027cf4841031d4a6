"""Special-function kernels against closed forms and independent oracles."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_li.errors import OutOfDomain, PoleAtOne
from dirichlet_li.precision import PrecisionConfig
from dirichlet_li.specfun import (_w_0, bernoulli, chebyshev_T, hurwitz_zeta,
                                  hurwitz_zeta_minus_pole, lambert_w_m1,
                                  laguerre_L1, log_gamma)

PREC = PrecisionConfig(working_bits=128)
TOL = mpmath.mpf(2) ** (-128 + 12)


# ----------------------------------------------------------------------------
# Hurwitz zeta

def test_hurwitz_at_one_argument():
    # zeta(2, 1) = zeta(2) = pi^2/6
    with mpmath.workprec(140):
        assert abs(hurwitz_zeta(2, 1, PREC) - mpmath.pi ** 2 / 6) < TOL


def test_hurwitz_at_half():
    # zeta(s, 1/2) = (2^s - 1) zeta(s); s = 2 gives pi^2/2
    with mpmath.workprec(140):
        assert abs(hurwitz_zeta(2, 0.5, PREC) - mpmath.pi ** 2 / 2) < TOL


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("s", [2, mpmath.mpc(3, 5)])
def test_hurwitz_multiplication_theorem(q, s):
    # sum_{a=1}^{q} zeta(s, a/q) = q^s zeta(s)
    with mpmath.workprec(140):
        total = mpmath.fsum(
            (hurwitz_zeta(s, mpmath.mpf(a) / q, PREC) for a in range(1, q + 1)),
            absolute=False)
        ref = mpmath.mpc(q) ** s * hurwitz_zeta(s, 1, PREC)
        assert abs(total - ref) < TOL * max(1, abs(ref))


def test_hurwitz_pole():
    with pytest.raises(PoleAtOne):
        hurwitz_zeta(1, 0.5, PREC)


def test_hurwitz_domain():
    with pytest.raises(OutOfDomain):
        hurwitz_zeta(2, 1.5, PREC)


def test_hurwitz_minus_pole_is_minus_digamma():
    # lim_{s->1}[zeta(s,a) - 1/(s-1)] = -psi(a); at a=1 that is gamma
    with mpmath.workprec(140):
        assert abs(hurwitz_zeta_minus_pole(1, PREC) - mpmath.euler) < TOL
        # at a = 1/2: -psi(1/2) = gamma + 2 log 2
        ref = mpmath.euler + 2 * mpmath.log(2)
        assert abs(hurwitz_zeta_minus_pole(0.5, PREC) - ref) < TOL


# ----------------------------------------------------------------------------
# Bernoulli numbers

def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(7) == 0


def test_bernoulli_von_staudt_clausen():
    # B_2n + sum_{(p-1) | 2n} 1/p is an integer, for all even n <= 30
    for n in range(2, 31, 2):
        s = bernoulli(n)
        for p in range(2, n + 2):
            if all(p % d for d in range(2, p)) and n % (p - 1) == 0:
                s += Fraction(1, p)
        assert s.denominator == 1


# ----------------------------------------------------------------------------
# Lambert W_{-1}

def test_lambert_w_residuals():
    # 50 log-spaced arguments in (-1/e, 0): w e^w must return x to 1e-15 rel
    with mpmath.workprec(140):
        for i in range(50):
            x = -mpmath.exp(-1 - 0.7 * i)  # from -1/e down toward 0-
            w = lambert_w_m1(x, PREC)
            assert w <= -1
            assert abs(w * mpmath.exp(w) - x) <= 1e-15 * abs(x)


def test_lambert_w_branch_point():
    with mpmath.workprec(140):
        assert lambert_w_m1(-mpmath.exp(-1), PREC) == -1


def test_lambert_w_domain():
    with pytest.raises(OutOfDomain):
        lambert_w_m1(-1.0, PREC)
    with pytest.raises(OutOfDomain):
        lambert_w_m1(0.5, PREC)


def test_lambert_w_against_bisection_oracle():
    # independent bisection of w e^w = x on [-60, -1]
    with mpmath.workprec(140):
        for x in (mpmath.mpf("-0.1"), mpmath.mpf("-0.01"), mpmath.mpf("-1e-6")):
            lo, hi = mpmath.mpf(-60), mpmath.mpf(-1)
            # w e^w decreases from 0- to -1/e as w runs from -inf to -1
            for _ in range(200):
                mid = (lo + hi) / 2
                if mid * mpmath.exp(mid) < x:
                    hi = mid
                else:
                    lo = mid
            oracle = (lo + hi) / 2
            assert abs(lambert_w_m1(x, PREC) - oracle) < 1e-30


def test_float_w_0_matches_big_float():
    # W_0(q count / e), the argument `lfunc.height_for_count` passes, for q up
    # to 1000 and the 331 distinct counts of 400 log-spaced from 1 to 10^6,
    # against mpmath's lambertw of the same float at 160 bits
    qs = [1, 2, 3, 4, 5, 7, 20, 60, 97, 128, 499, 997, 1000]
    counts = sorted({round(10 ** (6 * i / 399)) for i in range(400)})
    with mpmath.workprec(160):
        for q in qs:
            for count in counts:
                x = q * count / math.e
                ref = float(mpmath.lambertw(x).real)
                assert abs(_w_0(x) - ref) <= 2 * math.ulp(ref), (q, count)


# ----------------------------------------------------------------------------
# Chebyshev polynomials

@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=300),
       x=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_chebyshev_T_bounded(n, x):
    assert abs(chebyshev_T(n, x, PREC)) <= 1 + 1e-25


def test_chebyshev_T_values():
    with mpmath.workprec(150):
        assert abs(chebyshev_T(3, 0.5, PREC) + 1) < 1e-30  # T_3(1/2) = -1
        assert chebyshev_T(0, 0.3, PREC) == 1
        # T_100(0.9) against the recurrence at quadruple the precision
        x = mpmath.mpf("0.9")
        with mpmath.workprec(512):
            a, b = mpmath.mpf(1), x
            for _ in range(99):
                a, b = b, 2 * x * b - a
        assert abs(chebyshev_T(100, x, PREC) - b) < 1e-30


def test_chebyshev_T_domain():
    with pytest.raises(OutOfDomain):
        chebyshev_T(3, 1.5, PREC)


# ----------------------------------------------------------------------------
# Laguerre L^1

def exact_laguerre(n, x):
    """sum_{j=1}^{n} C(n,j) (-1)^(j-1) x^(j-1)/(j-1)! at high precision."""
    total = mpmath.mpf(0)
    for j in range(1, n + 1):
        total += (math.comb(n, j) * (-1) ** (j - 1) * x ** (j - 1)
                  / mpmath.factorial(j - 1))
    return total


@pytest.mark.parametrize("x", [0, 0.5, 1, math.e, 10])
def test_laguerre_vs_binomial(x):
    with mpmath.workprec(300):
        xm = mpmath.mpf(x)
        for n in range(1, 26):
            ref = exact_laguerre(n, xm)
            got = laguerre_L1(n - 1, xm, PREC)
            assert abs(got - ref) <= TOL * max(1, abs(ref)), (n, x)


def test_laguerre_domain():
    with pytest.raises(OutOfDomain):
        laguerre_L1(3, -0.5, PREC)


# ----------------------------------------------------------------------------
# log Gamma

def test_log_gamma_values():
    with mpmath.workprec(140):
        assert abs(log_gamma(5, PREC) - mpmath.log(24)) < TOL
        assert abs(log_gamma(0.5, PREC) - mpmath.log(mpmath.sqrt(mpmath.pi))) < TOL
        # reflection-free complex check: Gamma(1+z) = z Gamma(z)
        z = mpmath.mpc(0.25, 3)
        diff = log_gamma(z + 1, PREC) - log_gamma(z, PREC) - mpmath.log(z)
        assert abs(diff) < TOL


def test_log_gamma_pole():
    with pytest.raises(OutOfDomain):
        log_gamma(0, PREC)
