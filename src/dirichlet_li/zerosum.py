"""Conditional Li coefficients from critical-line zeros.

Chebyshev sum over ordinates: with x_k = (4 gamma_k^2 - 1)/(4 gamma_k^2 + 1),

    lambda_chi(n, N) = 2 sum_{k<=N} alpha_k (1 - T_n(x_k)),

every term nonnegative, so the partial sums increase to lambda_chi(n) under
RH.  With theta_k = arctan(1/(2 gamma_k)) one has x_k = cos(2 theta_k), so

    1 - T_n(x_k) = 1 - cos(2 n theta_k) = 2 sin^2(n theta_k).

The float64 kernel forms these terms one row (one n) at a time by the
difference form of the Chebyshev recurrence (`_rows`), which keeps its
accuracy for x_k exponentially close to 1, where T_n itself, arccos and the
1 - cos difference lose ground.  Rows n < 128 use no sin; rows from 128 on
restart from 2 sin^2(a theta) at the multiple a of 128 below them.  A row
costs one pass over the list per row from its restart, and memory is a few
N-length arrays: each row is weighted and added by numpy's pairwise sum
(Higham, SIAM J. Sci. Comput. 14 (1993)) as soon as it is formed.  On the
stored 10^4-zero lists, n <= 1000, a term is within 2.1e-16 relative of an
80-bit evaluation in the median and 1.0e-15 at the 99th percentile (away
from the zeros of sin(n theta_k)); each sum is within 3 ulp of `math.fsum`
of the same terms and within 3.6e-16 relative of a 128-bit evaluation, far
below the truncation error.  The factor 2 presumes a
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


_RESTART = 128  # rows per recurrence run: runs start at n = 1, R, 2R, ...


def _weights_and_rows(ns, zeros: ZeroList, N: int | None):
    """Weights w_k = factor alpha_k over the first N records (all when N is
    None) and the `_rows` iterator over the distinct n of ns."""
    ns = sorted(set(np.ravel(ns).tolist()))
    if ns and ns[0] < 1:
        raise ValueError("need n >= 1")
    if len(zeros) == 0:
        raise EmptyZeroList("zero-sum formula needs at least one zero")
    N = len(zeros) if N is None else N
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > len(zeros):
        raise NExceedsList(f"requested N={N} but the list holds {len(zeros)}")
    factor = 2.0 if zeros.symmetric else 1.0
    return factor * zeros.alphas()[:N], _rows(ns, zeros.gammas()[:N])


def _rows(ns, gammas: np.ndarray):
    """(n, u) for each n of the increasing list ns, u_k = 1 - T_n(x_k) =
    2 sin^2(n theta_k), by the difference form of the Chebyshev recurrence
    (Reinsch): with y = 1 - x = 2 / (1 + 4 gamma^2), u_1 = d_1 = y and

        d_{n+1} = d_n + 2y (1 - u_n),    u_{n+1} = u_n + d_{n+1}.

    A run of rows starts at n = 1 from y, and at each multiple a of R from
    u_a = 2 sin^2(a theta), d_a = 2 sin((2a - 1) theta) sin theta, so row n
    costs at most R - 1 steps and is the same floats whichever other rows are
    asked for.  u is one work array that the next step overwrites."""
    two_y = np.square(gammas)
    two_y *= 4.0
    two_y += 1.0
    np.divide(4.0, two_y, out=two_y)
    u, d, t = np.empty_like(two_y), np.empty_like(two_y), np.empty_like(two_y)
    theta = sin_theta = None
    m = 0  # the row u holds, 0 before the first
    for n in ns:
        a = max(n - n % _RESTART, 1)  # the first row of n's run
        if m < a:
            if a == 1:
                np.multiply(two_y, 0.5, out=u)
                d[:] = u
            else:
                if theta is None:
                    theta = np.arctan(np.divide(0.5, gammas))
                    sin_theta = np.sin(theta)
                np.multiply(a, theta, out=u)
                np.square(np.sin(u, out=u), out=u)
                u *= 2.0
                np.multiply(2 * a - 1, theta, out=d)
                np.sin(d, out=d)
                d *= sin_theta
                d *= 2.0
            m = a
        for _ in range(n - m):
            np.subtract(1.0, u, out=t)
            t *= two_y
            d += t
            u += d
        m = n
        yield n, u


def _kernel(n, zeros: ZeroList, N: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(w, u) over the first N records (all when N is None): weights
    w_k = factor alpha_k and the `_rows` terms u_k = 1 - T_n(x_k), with one
    row of u per n when n is an array.  The zero-sum terms are w * u.  Rows
    n < R need no sin; a row n >= R costs one sin restart and at most R - 1
    recurrence steps.  Unlike `zero_sum_values` this holds every row."""
    w, rows = _weights_and_rows(n, zeros, N)
    got = {m: u.copy() for m, u in rows}
    return w, np.array([got[m] for m in np.ravel(n).tolist()]).reshape(np.shape(n) + w.shape)


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
    """lambda_chi(n, N) for each n of a sequence: each row of `_rows` is
    weighted and summed (pairwise, `ndarray.sum`) as soon as it is formed."""
    w, rows = _weights_and_rows(ns, zeros, N)
    wu = np.empty_like(w)
    sums = {n: np.multiply(w, u, out=wu).sum() for n, u in rows}
    return np.array([sums[n] for n in np.ravel(ns).tolist()])


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
    return 1.5 * (n / T) ** 2 * bracket  # 2 T^2 would overflow past T = 1.3e154


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
