"""Zero-sum Li coefficients: partial sums, tail bound, report."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from dirichlet_li.characters import character_by_label
from dirichlet_li.errors import EmptyZeroList, NExceedsList, OutOfDomain, WDomainError
from dirichlet_li.lfunc import ZeroList, ZeroRecord, find_zeros_merged
from dirichlet_li.zerosum import (_RESTART, PartialSumParams, _kernel, _tail_closed_form,
                                  asymptotic_model, choose_T0, li_zero_sum,
                                  partial_rh_report, tail_bound, zero_sum_prefix,
                                  zero_sum_values)

FIRST_GAMMA = 8.03973715


def single_zero_list(gamma=FIRST_GAMMA):
    return ZeroList(chi_id=(3, 1), records=(ZeroRecord(gamma=gamma),),
                    height=gamma + 1, provenance="computed")


def empty_zero_list():
    return ZeroList(chi_id=(3, 1), records=(), height=0.5, provenance="computed")


# ----------------------------------------------------------------------------
# the Chebyshev sum itself

def test_single_zero_closed_form():
    # n=1: 2 alpha (1 - T_1(x)) with x = (4g^2-1)/(4g^2+1) gives 4/(4g^2+1)
    zl = single_zero_list()
    res = li_zero_sum(1, zl)
    g = FIRST_GAMMA
    assert res.value == pytest.approx(4 / (4 * g * g + 1), rel=1e-12)
    assert res.conditional
    assert res.method == "zero_sum"


def test_terms_nonnegative_and_x_increasing(zeros_q3):
    g = zeros_q3.gammas()
    x = (4 * g * g - 1) / (4 * g * g + 1)
    assert np.all(np.diff(x) > 0)
    assert np.all(x > -1) and np.all(x < 1)
    # every Chebyshev term of the n=7 sum is nonnegative
    phi = 2.0 * np.arctan(1.0 / (2.0 * g))
    terms = 1.0 - np.cos(7 * phi)
    assert np.all(terms >= 0)


def test_prefix_monotone(zeros_q3):
    for n in (1, 5, 20):
        prefix = zero_sum_prefix(n, zeros_q3)
        assert np.all(np.diff(prefix) >= 0)
        # the full prefix equals the direct sum
        full = li_zero_sum(n, zeros_q3)
        assert prefix[-1] == pytest.approx(full.value, rel=1e-9)


def test_li_zero_sum_is_one_element_sweep(zeros_q3):
    from dirichlet_li.zerosum import li_zero_sum_sweep
    swept = li_zero_sum_sweep([3, 1, 2], zeros_q3, N=500)
    assert [r.n for r in swept] == [3, 1, 2]
    for r in swept:
        # only params.N is read; T is derived from the list
        assert r == li_zero_sum(r.n, zeros_q3, PartialSumParams(N=500, T=1.0))
        assert r.params.T == min(float(zeros_q3.gammas()[499]), zeros_q3.height)


def test_zero_sum_values_matches_big_float(zeros_q3):
    ns = [1, 2, 3, 10, 36]
    vals = zero_sum_values(zeros_q3, ns)
    for n, v in zip(ns, vals):
        ref = li_zero_sum(n, zeros_q3).value
        assert v == pytest.approx(ref, abs=1e-9)


def test_zero_sum_matches_128_bit_oracle(zeros_q3):
    # the float64 kernel against the Chebyshev sum 2 sum (1 - cos(2 n theta_k))
    # evaluated term by term at 128 bits
    for n in (1, 2, 10, 36):
        with mpmath.workprec(128):
            ref = 2 * mpmath.fsum(
                r.alpha * (1 - mpmath.cos(2 * n * mpmath.atan(1 / (2 * mpmath.mpf(r.gamma)))))
                for r in zeros_q3.records)
        assert li_zero_sum(n, zeros_q3).value == pytest.approx(float(ref), rel=1e-13)


def test_partial_params_truncate(zeros_q3):
    res = li_zero_sum(2, zeros_q3, PartialSumParams(N=100, T=zeros_q3.height))
    assert res.params.N == 100
    assert res.params.T == zeros_q3.records[99].gamma
    assert res.value < li_zero_sum(2, zeros_q3).value


def test_errors():
    with pytest.raises(EmptyZeroList):
        li_zero_sum(1, empty_zero_list())
    with pytest.raises(NExceedsList):
        li_zero_sum(1, single_zero_list(), PartialSumParams(N=2, T=10))
    with pytest.raises(EmptyZeroList):
        zero_sum_values(empty_zero_list(), [1, 2])
    with pytest.raises(ValueError):
        li_zero_sum(0, single_zero_list())


def test_every_route_rejects_n_below_one():
    # n is checked before the list, so an empty list still reports n
    for zl in (single_zero_list(), empty_zero_list()):
        for call in (lambda: zero_sum_values(zl, [-2]), lambda: zero_sum_values(zl, [1, 0]),
                     lambda: zero_sum_prefix(-2, zl), lambda: li_zero_sum(0, zl)):
            with pytest.raises(ValueError, match="need n >= 1"):
                call()


def _sweep_cases(zeros):
    """n = 1..100 against N = all, 1, 7 and len/3."""
    return np.arange(1, 101), (None, 1, 7, len(zeros) // 3)


def test_zero_sum_values_is_fsum_to_a_few_ulp(zeros_q3):
    # numpy's pairwise sum of each weighted row against the correctly
    # rounded sum of the same terms
    ns, Ns = _sweep_cases(zeros_q3)
    for N in Ns:
        w, u = _kernel(ns, zeros_q3, N)
        got = zero_sum_values(zeros_q3, ns, N)
        reference = np.array([math.fsum(w * row) for row in u])
        np.testing.assert_allclose(got, reference, rtol=1e-15, atol=0, err_msg=f"N={N}")


def test_one_row_zero_sum_equals_the_sweeps_row(zeros_q3):
    ns, Ns = _sweep_cases(zeros_q3)
    for N in Ns:
        swept = zero_sum_values(zeros_q3, ns, N).tolist()
        alone = [zero_sum_values(zeros_q3, [n], N)[0] for n in ns.tolist()]
        assert [v.hex() for v in alone] == [v.hex() for v in swept], N


def test_zero_sum_memory_stays_a_few_rows(zeros_q3):
    # rows are summed as they are formed: no (n x N) matrix of terms
    N = len(zeros_q3)
    zero_sum_values(zeros_q3, range(1, 37))
    tracemalloc.start()
    try:
        zero_sum_values(zeros_q3, range(1, 37))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * N, peak


@pytest.mark.parametrize("fixture", ["zeros_q60", "zeros_q3"])
def test_zero_sum_across_a_restart(fixture, request):
    # rows on both sides of the first sin restart and far past it; the first
    # zero of 60.14 (theta ~ 0.26) is the widest angle on any list
    zeros = request.getfixturevalue(fixture)
    ns = [_RESTART - 1, _RESTART, _RESTART + 1, _RESTART + 2, 1000]
    swept = zero_sum_values(zeros, ns)
    factor = 2 if zeros.symmetric else 1
    with mpmath.workprec(128):
        thetas = [mpmath.atan(1 / (2 * mpmath.mpf(g))) for g in zeros.gammas().tolist()]
        alphas = zeros.alphas().tolist()
        for n, v in zip(ns, swept.tolist()):
            assert zero_sum_values(zeros, [n])[0].hex() == v.hex(), n
            ref = factor * 2 * mpmath.fsum(a * mpmath.sin(n * t) ** 2
                                           for a, t in zip(alphas, thetas))
            assert v == pytest.approx(float(ref), rel=1e-13), n


@pytest.mark.parametrize("N", [0, -5])
def test_zero_sum_rejects_nonpositive_N(N):
    # a negative N would slice records off the end of the list, and N = 0
    # would sum nothing
    with pytest.raises(ValueError, match="N must be >= 1"):
        zero_sum_values(single_zero_list(), [1, 2], N)


# ----------------------------------------------------------------------------
# tail bound

def test_tail_closed_form_direct_substitution():
    n, T, q = 1, 100.0, 3
    bracket = (T * math.log(T) / (2 * math.pi)
               + (1 / math.pi + math.log(q / (2 * math.pi * math.e))) * T
               + 0.5)
    assert _tail_closed_form(n, T, q) == pytest.approx(
        3 * n * n / (2 * T * T) * bracket)


def test_tail_bound_guards():
    assert tail_bound(5, 4.0, 3) == math.inf  # needs T >= max(n, 3)
    assert tail_bound(1, 2.0, 3) == math.inf
    # small q: the bracket is negative at moderate heights, reported as inf
    assert _tail_closed_form(1, 100.0, 3) < 0
    assert tail_bound(1, 100.0, 3) == math.inf
    # large q: positive and finite well before that
    assert 0 < tail_bound(1, 100.0, 60) < math.inf
    with pytest.raises(ValueError):
        tail_bound(0, 100.0, 3)


def test_tail_bound_past_where_2_T_squared_overflows():
    # 2 T^2 leaves float64 at T = 1.3e154; (n / T)^2 is still 1e-310 here
    T = 1e155
    ref = mpmath.mpf(3) / (2 * mpmath.mpf(T) ** 2) * (
        T * mpmath.log(T) / (2 * mpmath.pi)
        + (1 / mpmath.pi + mpmath.log(3 / (2 * mpmath.pi * mpmath.e))) * T + 0.5)
    assert 0 < tail_bound(1, T, 3) < math.inf
    assert tail_bound(1, T, 3) == pytest.approx(float(ref), rel=1e-12)


def test_tail_bound_decreasing_in_T():
    vals = [tail_bound(2, T, 60) for T in (100, 1000, 10000)]
    assert vals[0] > vals[1] > vals[2] > 0


# ----------------------------------------------------------------------------
# choose_T0

def test_choose_T0_defining_property():
    for n, k in [(1, 3), (5, 2), (50, 1)]:
        c = 4 * math.pi / (9 * n * n) * 10.0 ** (-k)
        T0 = choose_T0(n, k)
        assert math.log(T0) / T0 <= c * (1 + 1e-12)
        # minimality: slightly below T0 the property fails
        assert math.log(T0 * 0.99) / (T0 * 0.99) > c


def test_choose_T0_domain():
    # n=1, k=0: c = 4 pi / 9 > 1/e, below the branch point
    with pytest.raises(WDomainError):
        choose_T0(1, 0)


@pytest.mark.parametrize("q", [3, 60])
def test_choose_T0_above_the_branch_point_with_q(q):
    # c = 4 pi / 9 > 1/e: every T >= e meets (log T)/T <= c, so the doubling
    # starts at max(n, 3) = 3 instead of raising
    T = choose_T0(1, 0, q)
    assert T / 3 == 2 ** round(math.log2(T / 3))
    assert tail_bound(1, T, q) <= 3
    assert T == 3 or tail_bound(1, T / 2, q) > 3
    if q == 60:
        assert T == 3


@pytest.mark.parametrize("k, q", [(160, 60), (400, 3)])
def test_choose_T0_raises_where_no_finite_height_meets_the_target(k, q):
    with pytest.raises(OutOfDomain):
        choose_T0(1, k, q)


def test_choose_T0_post_check():
    T = choose_T0(2, 2, q=60)
    assert tail_bound(2, T, 60) <= 3e-2


@pytest.mark.parametrize("n,k,doublings,height", [(1, 3, 1, 12522.1), (2, 1, 6, 9085.9)])
def test_choose_T0_post_check_doubles(n, k, doublings, height):
    # for q = 3 the closed-form estimate is +inf below T ~ 7538, so the
    # W_{-1} height is doubled until it lands above that point
    T = choose_T0(n, k, 3)
    assert T == 2 ** doublings * choose_T0(n, k)
    assert T == pytest.approx(height, abs=0.05)
    assert tail_bound(n, T, 3) <= 3 * 10.0 ** -k
    assert tail_bound(n, T / 2, 3) == math.inf


# ----------------------------------------------------------------------------
# the paper's integral form

def _integral_by_quadrature(n, zeros):
    """The integral form itself, 16n Int_0^inf g (4g^2+1)^(-2) C(g)
    U_{n-1}(x(g)) dg, by mpmath.quad at 20 digits: one call per piece
    [gamma_k, gamma_{k+1}], on which the step count C is the constant
    factor * (alpha_1 + ... + alpha_k), and the last piece to infinity.
    C vanishes below gamma_1, so [0, gamma_1] adds nothing."""
    factor = 2 if zeros.symmetric else 1
    counts = factor * np.cumsum(zeros.alphas())
    with mpmath.workdps(20):
        def integrand(g, count):
            # U_{n-1}(cos t) = sin(nt)/sin(t) at cos t = x(g)
            t = mpmath.acos((4 * g * g - 1) / (4 * g * g + 1))
            u = n if t == 0 else mpmath.sin(n * t) / mpmath.sin(t)
            return 16 * n * g / (4 * g * g + 1) ** 2 * int(count) * u

        ends = [mpmath.mpf(float(g)) for g in zeros.gammas()] + [mpmath.inf]
        return float(mpmath.fsum(
            mpmath.quad(lambda g, c=c: integrand(g, c), [a, b])
            for a, b, c in zip(ends, ends[1:], counts)))


def test_integral_form_by_quadrature_equals_zero_sum(zeros_q3):
    # with the step zero-counting function the integral form telescopes, by
    # Abel summation, to the Chebyshev zero sum; checked on a symmetric list
    # (factor 2) and a merged one (factor 1)
    sub = ZeroList(chi_id=zeros_q3.chi_id, records=zeros_q3.records[:50],
                   height=zeros_q3.records[49].gamma, provenance="computed")
    merged = find_zeros_merged(character_by_label(5, 1), 60.0)
    assert len(merged) == 55 and not merged.symmetric
    for zl, ns in ((sub, (1, 2, 8, 36)), (merged, (1, 8))):
        values = zero_sum_values(zl, ns)
        for n, v in zip(ns, values):
            assert v == pytest.approx(_integral_by_quadrature(n, zl),
                                      rel=1e-13, abs=0), (zl.chi_id, n)


# ----------------------------------------------------------------------------
# partial-RH report and asymptotics

def test_partial_rh_report(zeros_q3):
    sub = ZeroList(chi_id=(3, 1), records=zeros_q3.records[:460],
                   height=100.0, provenance="computed")
    rep = partial_rh_report(sub)
    assert rep.n_max == 10 ** 4
    assert "lambda_chi(n) >= 0 for all n <= T^2 = 10000" in str(rep)

    rep_full = partial_rh_report(zeros_q3)
    assert rep_full.record_count >= 10 ** 4
    assert "10^8" in str(rep_full)

    rep_empty = partial_rh_report(empty_zero_list())
    assert rep_empty.warning is not None
    assert "nothing is implied" in str(rep_empty)


def test_partial_rh_report_says_heuristic(zeros_q3):
    # completeness is a counting-formula heuristic until Turing's method is in
    # place, so the report must not call the zeros verified
    for zl in (zeros_q3, ZeroList(chi_id=(3, 1), records=zeros_q3.records[:460],
                                  height=100.0, provenance="imported")):
        text = str(partial_rh_report(zl))
        assert "heuristic" in text
        assert "verified" not in text


def test_asymptotic_model_values():
    gamma = float(mpmath.euler)
    # n = 1: the model reduces to c_chi
    assert asymptotic_model(1, 3) == pytest.approx(
        (gamma - 1) / 2 + 0.5 * math.log(3 / math.pi))
    # q = pi e^(1 - gamma) makes c_chi vanish: model(1) = 0
    q_star = math.pi * math.exp(1 - gamma)
    assert asymptotic_model(1, q_star) == pytest.approx(0, abs=1e-12)


def test_asymptotic_model_tracks_zero_sum(zeros_q3):
    # at n = 36 the two-term model is correct to its sqrt(n) log n residual
    model = asymptotic_model(36, 3)
    value = li_zero_sum(36, zeros_q3).value
    assert abs(model - value) < 3 * math.sqrt(36) * math.log(36)
