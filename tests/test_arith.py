"""Arithmetic (prime-power) formula: Gamma-factor terms, kernel sum, truncation logic."""

import math
import os
import sys
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from dirichlet_li import arith, primes
from dirichlet_li.arith import (TruncationParams, _kernel_sum_mp, choose_M,
                                error_bound_EM, gamma_factor_terms, kernel_sums,
                                li_arith, li_arith_sweep, prime_power_kernel_sum)
from dirichlet_li.characters import (character_by_label, enumerate_characters,
                                     real_primitive_character)
from dirichlet_li.errors import ConductorOne, NotPrimitive, OutOfDomain
from dirichlet_li.precision import arith_precision
from dirichlet_li.primes import prime_powers
from dirichlet_li.specfun import lambert_w_m1

from conftest import binomial_term_oracle


# ----------------------------------------------------------------------------
# Gamma-factor terms n c + tau_chi(n), c = (log(q/pi) - gamma)/2

QS = [3, 5, 20, 60, 997]


def _c(q):
    return (math.log(q / math.pi) - float(mpmath.euler)) / 2


def test_tau_n1_even():
    # n=1, even chi: the j-sum is empty, leaving c - log 2
    for q in QS:
        got, ref = gamma_factor_terms(1, q, 0)[1], _c(q) - math.log(2)
        assert abs(got - ref) <= 1e-14 * max(1, abs(ref)), q


def test_tau_n1_odd():
    for q in QS:
        got, ref = gamma_factor_terms(1, q, 1)[1], _c(q)
        assert abs(got - ref) <= 1e-14 * max(1, abs(ref)), q


def test_tau_n2_odd():
    # n=2, odd chi: C(2,2) 2^-2 zeta(2) = pi^2/24
    for q in QS:
        got, ref = gamma_factor_terms(2, q, 1)[2], 2 * _c(q) + math.pi ** 2 / 24
        assert abs(got - ref) <= 1e-14 * max(1, abs(ref)), q


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n_max", [36, 224, 300])
def test_gamma_factor_terms_match_binomial_oracle(n_max, q, a):
    # at n_max = 224, 8 n_max + 256 points would alias at 6e-10
    terms = gamma_factor_terms(n_max, q, a)
    assert terms.shape == (n_max + 1,) and terms[0] == 0
    for n in range(1, 37):
        ref = binomial_term_oracle(n, q, a)
        assert abs(terms[n] - ref) <= 1e-13 * abs(ref), (q, a, n)
    for n in [m for m in (100, 224, 300) if m <= n_max]:
        ref = binomial_term_oracle(n, q, a)
        assert abs(terms[n] - ref) <= 1e-12 * abs(ref), (q, a, n)


def test_even_constant_is_two_log_two():
    # sum_l 1/(l(2l-1)) = 2 log 2, with a 1/(2L) tail bound on the partials
    with mpmath.workprec(120):
        target = 2 * mpmath.log(2)
        for L in (10, 100, 1000):
            partial = mpmath.fsum(mpmath.mpf(1) / (l * (2 * l - 1))
                                  for l in range(1, L + 1))
            assert abs(partial - target) < mpmath.mpf(1) / (2 * L)


# ----------------------------------------------------------------------------
# kernel sum vs the exact binomial double sum

def exact_kernel_oracle(n, chi, M, bits=400):
    """-sum_{k=p^m<=M} (log p / k) chi(k) sum_{j=1}^{n} C(n,j)(-1)^(j-1)
    (log k)^(j-1)/(j-1)!  with exact rational binomials and wide logs."""
    with mpmath.workprec(bits):
        ks, _ = prime_powers(M)
        total = mpmath.mpc(0)
        for k in ks.tolist():
            if chi.exponents[k % chi.modulus] is None:
                continue
            p = next(d for d in range(2, k + 1) if k % d == 0)
            logk = mpmath.log(k)
            inner = mpmath.mpf(0)
            for j in range(1, n + 1):
                inner += (math.comb(n, j) * (-1) ** (j - 1)
                          * logk ** (j - 1) / mpmath.factorial(j - 1))
            total += complex(chi(k)) * mpmath.log(p) / k * inner
        return +(-total)


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("M", [50, 500])
def test_kernel_identity(q, M):
    chi = real_primitive_character(q)
    prec = arith_precision(12, q, M)
    tol = mpmath.mpf(2) ** (-prec.working_bits + 20)
    for n in range(1, 13):
        got = prime_power_kernel_sum(n, chi, M, prec)
        ref = exact_kernel_oracle(n, chi, M)
        with mpmath.workprec(400):
            assert abs(got - ref) <= tol * max(1, abs(ref)), (q, M, n)


def test_kernel_identity_complex_character():
    chi = character_by_label(5, 1)
    prec = arith_precision(8, 5, 200)
    tol = mpmath.mpf(2) ** (-prec.working_bits + 20)
    for n in (1, 4, 8):
        got = prime_power_kernel_sum(n, chi, 200, prec)
        ref = exact_kernel_oracle(n, chi, 200)
        with mpmath.workprec(400):
            assert abs(got - ref) <= tol * max(1, abs(ref)), n


def test_kernel_smallest_cutoff():
    # M=2 keeps only k=2: chi_3(2) = -1, L^1_0 = 1, term -(-1) log2/2
    chi3 = real_primitive_character(3)
    with mpmath.workprec(120):
        got = prime_power_kernel_sum(1, chi3, 2)
        assert abs(got - mpmath.log(2) / 2) < 1e-25


def test_kernel_real_for_real_character():
    chi3 = real_primitive_character(3)
    v = prime_power_kernel_sum(3, chi3, 1000)
    assert float(abs(mpmath.im(v))) < 1e-25


# ----------------------------------------------------------------------------
# truncation bound and choose_M

def test_error_bound_branches():
    # M = 10^6: successor not prime, generic branch 3 sqrt(n) / sqrt(M)
    assert error_bound_EM(1, 10 ** 6) == pytest.approx(3e-3)
    assert error_bound_EM(4, 10 ** 6) == pytest.approx(6e-3)
    # M = 1008: 1009 is prime, sqrt(n/log M)(log M + 2)/sqrt(M)
    lm = math.log(1008)
    assert error_bound_EM(2, 1008) == pytest.approx(
        math.sqrt(2 / lm) * (lm + 2) / math.sqrt(1008))
    assert error_bound_EM(1, 10) == math.inf  # below the bound's regime
    with pytest.raises(ValueError):
        error_bound_EM(0, 100)


def test_error_bound_monotone_in_M():
    prev = error_bound_EM(3, 100)
    for M in (1000, 10 ** 4, 10 ** 5, 10 ** 6):
        cur = error_bound_EM(3, M)
        assert cur < prev
        prev = cur


def test_choose_M_basic():
    p = choose_M(1, 2)
    assert p.M >= 9 * 10 ** 4
    assert error_bound_EM(1, p.M) < 1e-2
    assert p.nu == 2


def test_choose_M_large():
    p = choose_M(4, 3)
    assert p.M >= 36 * 10 ** 6
    assert error_bound_EM(4, p.M) < 1e-3


def test_choose_M_below_regime():
    # n=1, nu=0: the W-branch candidate is out of domain; generic M = 9 is
    # below the bound's regime so the bound is +inf and M stays put
    p = choose_M(1, 0)
    assert p.M == 9
    assert p.candidate_prime_M is None
    assert error_bound_EM(1, p.M) == math.inf


def test_truncation_params_validation():
    with pytest.raises(ValueError):
        TruncationParams(M=1, nu=3, bound_case="generic")


def test_choose_M_checks_nu_itself():
    # nu = 0 is accepted at every n, whether or not M + 1 is prime; nu < 0
    # is rejected at every n
    for n in range(1, 8):
        assert choose_M(n, 0).nu == 0
    for n in (12, 45):
        with pytest.raises(ValueError):
            choose_M(n, -1)


@pytest.mark.parametrize("n, nu", [(1, 9), (1, 200), (1, 10 ** 9), (52, 8)])
def test_choose_M_refuses_cutoffs_past_the_int64_sieve(n, nu):
    # 9 n 10^(2 nu) >= 2^62: 9 * 10^18 at nu = 9, 4.68 * 10^18 at n = 52, nu = 8
    with pytest.raises(OutOfDomain, match="2\\^62"):
        choose_M(n, nu)


def test_float_w_m1_matches_big_float():
    # both give -1 at the branch point: the big-float one at -1/e to its
    # precision, the float one at the float -1/e, which lies 1.2e-17 below
    with mpmath.workprec(106):
        branch = -mpmath.exp(-1)
    assert lambert_w_m1(branch) == -1 and arith._w_m1(-1 / math.e) == -1.0
    xs = [math.nextafter(-1 / math.e, 0)]
    for _ in range(20):  # the floats next to the branch point
        xs.append(math.nextafter(xs[-1], 0))
    xs += [-math.exp(-1) * (1 - t) for t in np.logspace(-15, -0.01, 300)]
    xs += (-np.logspace(math.log10(0.36), -300, 1000)).tolist()
    for x in xs:
        ref = float(lambert_w_m1(x))
        assert abs(arith._w_m1(x) - ref) <= 4 * math.ulp(ref), x


def test_candidate_prime_M_matches_big_float_w():
    for nu in range(9):
        for n in range(1, 301):
            if 9 * n * 100 ** nu >= 2 ** 62:
                break  # refused, as tested above
            x = -(10.0 ** (-nu)) / math.sqrt(n)
            expected = None
            if x >= -1 / math.e:
                w = float(lambert_w_m1(x))
                expected = math.ceil(n / 4 * w * w + 4 * n * 10.0 ** (2 * nu))
            assert choose_M(n, nu).candidate_prime_M == expected, (n, nu)


# ----------------------------------------------------------------------------
# li_arith

def test_li_arith_guards():
    chi0 = enumerate_characters(3)[0]  # principal, conductor 1
    params = TruncationParams(M=1000, nu=1, bound_case="generic")
    with pytest.raises(ConductorOne):
        li_arith(1, chi0, params)
    imprimitive = next(c for c in enumerate_characters(9)
                       if not c.is_principal and not c.is_primitive)
    with pytest.raises(NotPrimitive):
        li_arith(1, imprimitive, params)


def test_li_arith_result_fields():
    chi3 = real_primitive_character(3)
    params = TruncationParams(M=10 ** 5, nu=1, bound_case="generic")
    res = li_arith(2, chi3, params)
    assert res.method == "arith"
    assert not res.conditional
    assert not res.complex_character
    assert res.chi_id == (3, 1)
    assert res.error_bound == error_bound_EM(2, 10 ** 5)
    # derived frozen reference: lambda_3(2) = 0.226116637440744
    assert res.value == pytest.approx(0.226116637440744, abs=res.error_bound)


def test_li_arith_complex_flag():
    chi = character_by_label(5, 1)
    params = TruncationParams(M=10 ** 5, nu=1, bound_case="generic")
    res = li_arith(1, chi, params)
    assert res.complex_character
    # derived frozen reference: Re lambda(1) for 5.1 is 0.10161071629
    assert res.value == pytest.approx(0.10161071629, abs=res.error_bound)


# ----------------------------------------------------------------------------
# one sieve and one Laguerre pass for all n

SWEEP_NS = list(range(1, 13))
SWEEP_MS = [2000 - 97 * i for i in range(12)]  # distinct, each <= 2000


@lru_cache(maxsize=None)
def big_float_kernels(q, label):
    chi = character_by_label(q, label)
    return [complex(_kernel_sum_mp(n, chi, M, arith_precision(n, q, M)))
            for n, M in zip(SWEEP_NS, SWEEP_MS)]


@pytest.mark.parametrize("q,label", [(3, 1), (5, 1), (60, 14)])
@pytest.mark.parametrize("segment", [None, 7, 64])
def test_kernel_sums_match_big_float(monkeypatch, q, label, segment):
    if segment is not None:
        monkeypatch.setattr(primes, "SEGMENT", segment)
    chi = character_by_label(q, label)
    got = kernel_sums(SWEEP_NS, chi, SWEEP_MS)
    for n, M, g, ref in zip(SWEEP_NS, SWEEP_MS, got, big_float_kernels(q, label)):
        assert abs(g - ref) <= 1e-12 * abs(ref), (q, label, n, M)
        if chi.is_real:
            assert g.imag == 0


# cutoffs past the wheel period (30,030 integers) and across many blocks
WIDE_MS = [2 * 10 ** 6 - 9973 * i for i in range(12)]


@pytest.mark.parametrize("q,label", [(3, 1), (60, 14)])
def test_kernel_sums_do_not_depend_on_block_size(monkeypatch, q, label):
    chi = character_by_label(q, label)
    default = kernel_sums(SWEEP_NS, chi, WIDE_MS)
    monkeypatch.setattr(primes, "SEGMENT", 4099)  # odd, so blocks start odd and even
    odd = kernel_sums(SWEEP_NS, chi, WIDE_MS)
    # only the order of the float64 additions changes: about 4e-14 here
    for n, a, b in zip(SWEEP_NS, default, odd):
        assert abs(a - b) <= 2e-13 * abs(a), (q, label, n)


@pytest.mark.parametrize("q,label", [(3, 1), (5, 1), (60, 14)])
def test_kernel_sums_do_not_depend_on_chunk_size(monkeypatch, q, label):
    chi = character_by_label(q, label)
    default = kernel_sums(SWEEP_NS, chi, WIDE_MS)
    # neither size divides the block, so the cutoffs fall inside chunks and
    # the last chunk of a block is a short one
    for chunk in (7, 4099):
        monkeypatch.setattr(arith, "_CHUNK", chunk)
        got = kernel_sums(SWEEP_NS, chi, WIDE_MS)
        for n, a, b in zip(SWEEP_NS, default, got):
            assert abs(a - b) <= 2e-13 * abs(a), (q, label, chunk, n)
            if chi.is_real:
                assert b.imag == 0


@pytest.mark.parametrize("q,label", [(3, 1), (5, 1), (60, 14)])
def test_kernel_sums_do_not_depend_on_the_workers(monkeypatch, q, label):
    monkeypatch.setattr(primes, "SEGMENT", 4099)  # 488 blocks
    chi = character_by_label(q, label)
    got = kernel_sums(SWEEP_NS, chi, WIDE_MS)
    assert np.array_equal(kernel_sums(SWEEP_NS, chi, WIDE_MS), got)
    # one worker folds the block sums in order; more workers than CPUs,
    # switching threads often, finish the blocks out of order
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, (os.cpu_count() or 1) + 1):
            monkeypatch.setattr(arith, "_workers", lambda jobs: workers)
            assert np.array_equal(kernel_sums(SWEEP_NS, chi, WIDE_MS), got), workers
    finally:
        sys.setswitchinterval(interval)


def test_li_arith_is_one_element_sweep():
    chi = character_by_label(60, 14)
    swept = li_arith_sweep([3, 1, 2], chi, 1)
    assert [r.n for r in swept] == [3, 1, 2]
    for r in swept:
        assert r == li_arith(r.n, chi, choose_M(r.n, 1))


@pytest.mark.parametrize("q,label", [(3, 1), (5, 1), (60, 14)])
def test_sweep_matches_kernel_plus_binomial_oracle(q, label):
    # each value is the float64 kernel sum plus the Gamma-factor term, whose
    # relative error against the paper's binomial sum is below 1e-13
    chi = character_by_label(q, label)
    ns = range(1, 37)
    params = [choose_M(n, 1) for n in ns]
    kernels = kernel_sums(ns, chi, [p.M for p in params])
    for r, kernel in zip(li_arith_sweep(ns, chi, 1), kernels):
        term = binomial_term_oracle(r.n, q, chi.parity_a)
        assert type(r.value) is float
        assert abs(r.value - (term + kernel.real)) <= 1e-13 * (abs(term) + abs(kernel.real)), r.n
