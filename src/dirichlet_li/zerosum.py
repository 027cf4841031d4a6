"""Conditional Li coefficients from critical-line zeros.

Chebyshev sum over ordinates: with x_k = (4 gamma_k^2 - 1)/(4 gamma_k^2 + 1),

    lambda_chi(n, N) = 2 sum_{k<=N} alpha_k (1 - T_n(x_k)),

every term nonnegative, so the partial sums increase to lambda_chi(n) under
RH.  With theta_k = arctan(1/(2 gamma_k)) one has x_k = cos(2 theta_k), so

    1 - T_n(x_k) = 1 - cos(2 n theta_k) = 2 sin^2(n theta_k).

One float64 kernel evaluates that form: each term is then accurate to a few
ulp relative, even for x_k exponentially close to 1 where the recurrence,
arccos and the 1 - cos difference lose ground.  Each row of terms is added
by numpy's pairwise sum (Higham, SIAM J. Sci. Comput. 14 (1993)): on the
stored 10^4-zero lists, n <= 1000, it is within 3 ulp of `math.fsum` of the
same terms and within 3e-16 relative of a 128-bit evaluation, far below the
truncation error.  The factor 2 presumes a
conjugate-symmetric zero set (real chi, positive ordinates listed once);
lists flagged symmetric=false (e.g. merged chi / conj(chi) spectra for a
complex character) are summed without it.

Also here: the closed-form tail estimate with its Lambert-W height chooser,
the partial-RH positivity report, and the two-term asymptotic model
(1/2) n log n + c_chi n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .characters import DirichletCharacter
from .errors import EmptyZeroList, NExceedsList, OutOfDomain, WDomainError
from .lfunc import ZeroList
from .results import LiResult
from .specfun import lambert_w_m1


@dataclass(frozen=True)
class PartialSumParams:
    N: int
    T: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not self.T > 0:
            raise ValueError("T must be positive")


def _kernel(n, zeros: ZeroList, N: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(w, u) over the first N records (all when N is None): weights
    w_k = factor alpha_k and u_k = 2 sin^2(n theta_k) = 1 - T_n(x_k), with
    one row of u per n when n is an array.  The zero-sum terms are w * u."""
    if np.any(np.asarray(n) < 1):
        raise ValueError("need n >= 1")
    if len(zeros) == 0:
        raise EmptyZeroList("zero-sum formula needs at least one zero")
    N = len(zeros) if N is None else N
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > len(zeros):
        raise NExceedsList(f"requested N={N} but the list holds {len(zeros)}")
    factor = 2.0 if zeros.symmetric else 1.0
    theta = np.arctan(1.0 / (2.0 * zeros.gammas()[:N]))
    u = np.multiply.outer(n, theta)
    np.square(np.sin(u, out=u), out=u)
    u *= 2.0
    return factor * zeros.alphas()[:N], u


def _truncation(zeros: ZeroList, N: int | None = None) -> PartialSumParams:
    """N (all records when None) and T = min(gamma_N, height), the height of
    the ordinates actually summed, at which the tail estimate is taken."""
    N = len(zeros) if N is None else N
    return PartialSumParams(N=N, T=min(float(zeros.gammas()[N - 1]), zeros.height))


def li_zero_sum_sweep(ns, zeros: ZeroList, N: int | None = None) -> list[LiResult]:
    """lambda_chi(n, N) for every n in ns (RH assumed) from one
    `zero_sum_values` call over the first N records, all when N is None."""
    ns = list(ns)
    values = zero_sum_values(zeros, ns, N).tolist()
    params = _truncation(zeros, N)
    return [LiResult(n=n, value=v, method="zero_sum",
                     error_bound=tail_bound(n, params.T, zeros.chi_id[0]),
                     params=params, chi_id=zeros.chi_id, conditional=True)
            for n, v in zip(ns, values)]


def li_zero_sum(n: int, zeros: ZeroList,
                params: PartialSumParams | None = None) -> LiResult:
    """`li_zero_sum_sweep` for the one n.  Only params.N is read: T is always
    derived from the list."""
    return li_zero_sum_sweep([n], zeros, params.N if params is not None else None)[0]


def zero_sum_values(zeros: ZeroList, ns, N: int | None = None) -> np.ndarray:
    """lambda_chi(n, N) for each n of a sequence, the one vectorized zero sum."""
    w, u = _kernel(np.asarray(ns), zeros, N)
    u *= w
    return u.sum(axis=1)


def zero_sum_prefix(n: int, zeros: ZeroList) -> np.ndarray:
    """Partial sums lambda_chi(n, N') for N' = 1..len(zeros), nondecreasing."""
    w, u = _kernel(n, zeros)
    return np.cumsum(w * u)


def _tail_closed_form(n: int, T: float, q: int) -> float:
    """The printed tail estimate (3n^2 / 2T^2) [ (1/2pi) T log T
    + (1/pi + log(q/2pi e)) T + 1/2 ], with no applicability guards."""
    bracket = (T * math.log(T) / (2 * math.pi)
               + (1 / math.pi + math.log(q / (2 * math.pi * math.e))) * T
               + 0.5)
    return 3 * n * n / (2 * T * T) * bracket


def tail_bound(n: int, T: float, q: int) -> float:
    """Estimate of lambda_chi(n) - lambda_chi(n, T), +inf when inapplicable.

    The closed form needs T >= max(n, 3); for small q its bracket also goes
    negative at moderate T (the two T-terms nearly cancel, q=3 needs
    T > ~7.6e3), which we likewise report as +inf rather than a meaningless
    nonpositive "bound".  Even where positive, the bracket can sit below the
    zero-counting main term it is meant to majorize, so it is an estimate,
    not a certificate; see the cross-method comparison report.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if T < max(n, 3):
        return math.inf
    val = _tail_closed_form(n, T, q)
    if val <= 0:
        return math.inf
    return val


def choose_T0(n: int, k_exp: int, q: int | None = None) -> float:
    """Smallest height with (log T)/T <= c = (4 pi / 9 n^2) 10^(-k), by the
    W_{-1} branch: T0 = -(1/c) W_{-1}(-c).

    When q is given the closed-form tail estimate is post-checked at T0 and
    the height doubled until it is <= 3*10^(-k) (the chooser controls only
    the dominant (log T)/T term; the slack absorbs the rest); OutOfDomain
    when no finite height gets there.  Where c > 1/e every T >= e meets the
    first condition, so with q given the doubling starts at max(n, 3), the
    least height the estimate applies at.
    """
    if n < 1 or k_exp < 0:
        raise ValueError("need n >= 1 and k_exp >= 0")
    try:
        c = 4 * math.pi / (9 * n * n) * 10.0 ** (-k_exp)
    except OverflowError:  # 9 n^2 past float64: c is below its range
        c = 0.0
    if c == 0:
        raise OutOfDomain(f"(4 pi / 9 n^2) 10^-k underflows float64 at n={n}, k={k_exp}")
    if c <= 1 / math.e:
        T0 = float(-lambert_w_m1(-c) / c)
    elif q is not None:
        T0 = float(max(n, 3))
    else:
        raise WDomainError(f"-(4 pi / 9 n^2) 10^-k = {-c} below the branch point -1/e")
    while q is not None and not tail_bound(n, T0, q) <= 3 * 10.0 ** (-k_exp):
        if not math.isfinite(T0):
            raise OutOfDomain(f"no finite height meets the tail target 3*10^-{k_exp} at n={n}")
        T0 *= 2
    return T0


@dataclass(frozen=True)
class PartialRHReport:
    height: float
    n_max: int
    provenance: str
    record_count: int
    warning: str | None = None

    def __str__(self):
        if self.warning:
            return f"partial-RH report: {self.warning}"
        lines = [
            f"zeros on the critical line up to T = {self.height:g} by heuristic count "
            f"({self.record_count} ordinates, provenance: {self.provenance})",
            f"=> lambda_chi(n) >= 0 for all n <= T^2 = {self.n_max}",
        ]
        if self.record_count >= 10 ** 4:
            lines.append(
                "at 10^4 zeros (heuristic count) the same reasoning puts the first "
                "~10^8 Li coefficients on the nonnegative side")
        return "\n".join(lines)


def partial_rh_report(zeros: ZeroList) -> PartialRHReport:
    """Positivity range implied by on-line zeros up to the list height:
    all zeros with |Im rho| < T on the critical line forces
    lambda_chi(n) >= 0 for n <= T^2."""
    if len(zeros) == 0:
        return PartialRHReport(height=0.0, n_max=0, provenance=zeros.provenance,
                               record_count=0,
                               warning="empty zero list, nothing is implied")
    T = zeros.height
    return PartialRHReport(height=T, n_max=int(T * T),
                           provenance=zeros.provenance,
                           record_count=len(zeros))


def asymptotic_model(n: int, q_or_chi) -> float:
    """Two-term model (1/2) n log n + c_chi n with
    c_chi = (gamma - 1)/2 + (1/2) log(q/pi)."""
    if n < 1:
        raise ValueError("need n >= 1")
    q = q_or_chi.modulus if isinstance(q_or_chi, DirichletCharacter) else float(q_or_chi)
    c = 0.5 * (float(mpmath.euler) - 1) + 0.5 * math.log(q / math.pi)
    return 0.5 * n * math.log(n) + c * n
