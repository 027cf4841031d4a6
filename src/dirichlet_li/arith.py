"""Unconditional Li coefficients by the arithmetic (prime-power) formula.

lambda_chi(n) = (n/2)(log(q/pi) - gamma) + tau(n)
                - sum_{k} (Lambda(k)/k) chi(k) L^1_{n-1}(log k),

truncated at prime powers k <= M, with M from `choose_M` and the published
truncation estimate (not a bound).  tau(n), the trivial-zero term, is an
alternating binomial sum of zeta(j) that cancels about 2n bits; with the
main term it is n [z^n] of the log Gamma factor, which `gamma_factor_terms`
takes from one float64 FFT on a circle.  `kernel_sums` evaluates the k-sum
in float64 for all requested n in one pass over a segmented sieve to the
largest cutoff, so the value has no big-float step; its blocks are sieved
and summed on a thread pool sized by the CPUs available to the process.
`prime_power_kernel_sum` evaluates the same sum in big floats at every M
and is the reference the sweep is tested against.  The raw alternating
binomial double sum is kept only as a test oracle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import mpmath
import numpy as np

from .characters import DirichletCharacter
from .errors import ConductorOne, NotPrimitive, OutOfDomain
from .fastzeros import _im_log_gamma
from .precision import PrecisionConfig, arith_precision
from .primes import SievePlan, is_prime, prime_powers
from .results import LiResult
from .specfun import laguerre_L1

# Below this bound the |E_M| estimate is not in its stated regime.
_BOUND_MIN_M = 16

# Prime powers per pass of `kernel_sums`: of 2^13 to 2^17, the length that
# gave the `arith` workload its lowest wall time (BENCH_35.json).
_CHUNK = 1 << 15


def _workers(jobs: int) -> int:
    """Threads for `jobs` sieve blocks: one per CPU this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, jobs)


@dataclass(frozen=True)
class TruncationParams:
    M: int
    nu: int
    bound_case: str  # "m_plus_one_prime" | "generic"
    candidate_prime_M: int | None = None  # W_{-1}-branch diagnostic value

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("M must be >= 2")


def gamma_factor_terms(n_max: int, q: int, a: int) -> np.ndarray:
    """n (1/2)(log(q/pi) - gamma) + tau(n) for n = 0..n_max, in float64.

    They are n [z^n] of g(z) = ((s+a)/2) log(q/pi) + log Gamma((s+a)/2) at
    s = 1/(1 - z), analytic in |z| < 1.  The coefficients are real, so Im g
    on the circle |z| = r determines them: the trapezoid rule at P points
    (Bornemann, Found. Comput. Math. 11 (2011)), one real FFT.  r keeps the
    rounding gain r^-n near e^3 and P the aliasing r^(P - 2n) below 1e-19.
    """
    r = 1 - 3 / max(n_max, 30)
    P = 2 ** math.ceil(math.log2(2 * n_max + math.log(1e-19) / math.log(r)))
    w = (1 / (1 - r * np.exp(2j * np.pi * np.arange(P) / P)) + a) / 2
    im = w.imag * math.log(q / math.pi) + _im_log_gamma(w.real, w.imag)
    n = np.arange(n_max + 1)
    return -n * (2 / P) * np.fft.rfft(im)[:n_max + 1].imag / r ** n


def prime_power_kernel_sum(n: int, chi: DirichletCharacter, M: int,
                           prec: PrecisionConfig | None = None) -> mpmath.mpc:
    """-sum over prime powers k = p^m <= M of (log p / k) chi(k) L^1_{n-1}(log k)
    in big floats at `prec`, at every M: the reference the float64 sweep
    `kernel_sums` is tested against.
    """
    if n < 1 or M < 2:
        raise ValueError("need n >= 1 and M >= 2")
    return _kernel_sum_mp(n, chi, M, prec or arith_precision(n, chi.modulus, M))


def _kernel_sum_mp(n, chi, M, prec):
    q = chi.modulus
    with prec.workprec(20):
        ks, logps = prime_powers(M)
        total = mpmath.mpc(0)
        for k, lp in zip(ks.tolist(), logps.tolist()):
            if chi.exponents[k % q] is None:
                continue
            p = round(math.exp(lp))  # the base prime: lp is log p to an ulp
            logk = mpmath.log(k)
            total += chi.value(k, prec) * mpmath.log(p) / k * laguerre_L1(n - 1, logk, prec)
        return +(-total)


def kernel_sums(ns, chi: DirichletCharacter, Ms) -> np.ndarray:
    """-sum over prime powers k = p^m <= M_i of (log p / k) chi(k) L^1_{n_i-1}(log k)
    for every pair (n_i, M_i), in float64, from one segmented sieve to max(Ms).

    One job per block of the `SievePlan` sieves it and walks its prime
    powers in chunks of _CHUNK.  A chunk takes log p from its log k
    (`SievePlan.set_log_p`), so a job holds no log p array for its block,
    and runs the upward Laguerre recurrence
    L_d = (2 - x/d) L_{d-1} - L_{d-2} at x = log k, L_0 = 1, L_{-1} = 0, in
    three buffers it rotates, to degree max(ns) - 1; at degree n_i - 1 it
    adds the sum of the weights chi(k) log p / k times L_d over the k <= M_i
    of the chunk.  That sum is numpy's pairwise `sum` of the product, not
    the BLAS dot `@`: OpenBLAS threads a dot of more than 10^4 terms, which
    keeps a second core spinning and stalls when that core is busy.  The
    jobs run on a thread pool of one worker per CPU available to the process
    (on two CPUs, two workers took 0.65 of one's wall time and 1.05 of its
    CPU time on the `arith` workload), and their partial sums are added in
    block order, so the value does not depend on the number of workers.
    The recurrence is stable, and the truncation estimate 3 sqrt(n / M)
    stays orders of magnitude above the rounding of the sum.  Returns a
    complex128 array (imaginary parts 0 for a real character).
    """
    ns, Ms = list(ns), list(Ms)
    if len(ns) != len(Ms):
        raise ValueError("need one cutoff M per n")
    if not ns:
        return np.zeros(0, dtype=complex)
    if min(ns) < 1 or min(Ms) < 2:
        raise ValueError("need n >= 1 and M >= 2")
    q, table = chi.modulus, chi.table
    at_degree: dict[int, list[int]] = {}
    for i, n in enumerate(ns):
        at_degree.setdefault(n - 1, []).append(i)
    plan = SievePlan(max(Ms))

    def block_sums(start):
        ks = plan.block_ks(start)
        cuts = np.searchsorted(ks, Ms, side="right").tolist()
        acc = np.zeros(len(ns), dtype=table.dtype)
        rows = [np.empty(min(ks.size, _CHUNK)) for _ in range(3)]
        for lo in range(0, ks.size, _CHUNK):
            k = ks[lo:lo + _CHUNK]
            r = k // q
            r *= q
            np.subtract(k, r, out=r)  # k % q, four times faster than %
            w = table[r]
            x = np.log(k)
            logp = plan.set_log_p(k, x.copy())
            logp /= k
            w *= logp
            prev, cur, spare = (row[:k.size] for row in rows)
            prev.fill(0.0)
            cur.fill(1.0)
            for d in range(max(ns)):
                if d:
                    np.multiply(x, -1.0 / d, out=spare)  # 3x faster than / d
                    spare += 2.0
                    spare *= cur
                    spare -= prev
                    prev, cur, spare = cur, spare, prev
                for i in at_degree.get(d, ()):
                    c = max(cuts[i] - lo, 0)  # the k <= M_i of the chunk
                    acc[i] += (w[:c] * cur[:c]).sum()
        return acc

    # imported here: it loads `logging`, about 5 ms and 0.5 MB that the
    # commands which never sieve need not pay
    from concurrent.futures import ThreadPoolExecutor

    acc = np.zeros(len(ns), dtype=table.dtype)  # summed in block order
    with ThreadPoolExecutor(_workers(len(plan.starts))) as pool:
        for part in pool.map(block_sums, plan.starts):
            acc += part
    return -acc.astype(complex)


def error_bound_EM(n: int, M: int) -> float:
    """Published truncation estimate, not a bound, for the sum cut at M:

    sqrt(n/log M) (log M + 2)/sqrt(M)   if M+1 is prime,
    3 sqrt(n)/sqrt(M)                   otherwise.

    Returns +inf below M = 16 (outside the estimate's regime).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if M < _BOUND_MIN_M:
        return math.inf
    if is_prime(M + 1):
        lm = math.log(M)
        return math.sqrt(n / lm) * (lm + 2) / math.sqrt(M)
    return 3 * math.sqrt(n) / math.sqrt(M)


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


def choose_M(n: int, nu: int) -> TruncationParams:
    """Cutoff M = 9 n 10^(2 nu), raised until the published estimate
    error_bound_EM(n, M) is below 10^-nu; that estimate does not bound |E_M|
    (README, "Bound caveats"), so nu sets the cutoff, not the accuracy.  The
    W_{-1}-branch candidate (n/4) W_{-1}(-10^-nu / sqrt n)^2 + 4 n 10^(2 nu)
    is recorded for diagnostics when its argument is in the branch domain.
    OutOfDomain when 9 n 10^(2 nu) reaches 2^62, past the int64 sieve.
    """
    if n < 1 or nu < 0:
        raise ValueError("need n >= 1 and nu >= 0")
    if 9 * n * 100 ** min(nu, 9) >= 2 ** 62:  # nu >= 9 is past it at any n
        raise OutOfDomain(f"cutoff 9 n 10^(2 nu) reaches 2^62 at n={n}, nu={nu}")
    candidate = None
    x = -(10.0 ** (-nu)) / math.sqrt(n)
    if x >= -1 / math.e:
        w = _w_m1(x)
        candidate = math.ceil(n / 4 * w * w + 4 * n * 10.0 ** (2 * nu))
    M = math.ceil(9 * n * 10.0 ** (2 * nu))
    while M >= _BOUND_MIN_M and error_bound_EM(n, M) >= 10.0 ** (-nu):
        M += 1
    case = "m_plus_one_prime" if is_prime(M + 1) else "generic"
    return TruncationParams(M=M, nu=nu, bound_case=case, candidate_prime_M=candidate)


def li_arith(n: int, chi: DirichletCharacter, params: TruncationParams) -> LiResult:
    """Unconditional lambda_chi(n) truncated at prime powers <= params.M.

    For complex chi the real part is returned with the complex_character
    flag set (the zero sum pairs rho with 1 - conj(rho), so lambda is
    1 - Re[(1 - 1/rho)^n] summed; Im cancels only jointly with conj(chi)).
    """
    return _li_arith_many([n], chi, [params])[0]


def li_arith_sweep(ns, chi: DirichletCharacter, nu: int) -> list[LiResult]:
    """`li_arith` for every n in ns, each truncated at choose_M(n, nu), from
    one streamed sieve to the largest cutoff (see `kernel_sums`)."""
    ns = list(ns)
    return _li_arith_many(ns, chi, [choose_M(n, nu) for n in ns])


def _li_arith_many(ns, chi, params):
    if not ns:
        return []
    if chi.conductor == 1:
        raise ConductorOne("arithmetic formula requires conductor q > 1")
    if not chi.is_primitive:
        raise NotPrimitive("arithmetic formula requires a primitive character")
    kernels = kernel_sums(ns, chi, [p.M for p in params])
    terms = gamma_factor_terms(max(ns), chi.modulus, chi.parity_a)
    return [LiResult(n=n, value=float(terms[n] + k.real), method="arith",
                     error_bound=error_bound_EM(n, p.M), params=p,
                     chi_id=(chi.modulus, chi.label), complex_character=not chi.is_real)
            for n, p, k in zip(ns, params, kernels)]
