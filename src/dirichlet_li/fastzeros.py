"""Vectorized double-precision engine for critical-line zero scanning.

Evaluates L(1/2 + it, chi) for non-principal characters by Euler-Maclaurin
summation over residue classes (flattened to a single Dirichlet sum plus
per-class Bernoulli tails), forms the phase-rotated real function whose sign
changes are the critical-line zeros, and locates all zeros up to a target
height.

The leading Dirichlet sum has two evaluators: a multiplicative recurrence
in the step on an equally spaced grid (`z_grid`), and everywhere else an
expansion around centres (`leading_sum_taylor`), of which direct Z is the
radius-0 case.  Both walk the same sorted runs of heights (`_chunks`), each
with one Euler-Maclaurin length N, and add the directly evaluated tail and
rotate by theta in `_rotated`.  Each zero is refined by safeguarded Newton
on Z inside the sign-change bracket the grid found, reading S and S' by
Horner from one expansion around the bracket's centre, to radius half the
widest bracket (at most half a grid step h, with h log(q t_max) <= pi) and
to the smallest order K >= 2 with (radius log m_max)^K / K! <= 2^-64, about
20 at the tables' heights.  The returned ordinate is the midpoint of a
float64 sign-change bracket no wider than 1e-11, or than two float64
spacings above t = 2^15 (about 2.9e-11 at t = 6.6e4).  The Euler-Maclaurin
truncation sits near 1e-13, but rounding grows with t: each phase t log m
carries about one ulp of absolute error, and expansions around different
centres, which round their phases at different heights, differ in Z by up to
2e-12 at t = 1500 and 2e-11 at t = 8600, so the sign of a bracket end is not
certain where |Z| is that small.  Tests compare Z and sampled zeros with the
mpmath `hardy_z` and `xi_value` in `lfunc`; nothing certifies them.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import loggamma as _loggamma

from .errors import CompletenessCheckFailed, PrincipalCharacter
from .specfun import bernoulli

# Bumped whenever a change to the finder can move the ordinates it returns;
# caches of computed zero lists are keyed on it.
FINDER_VERSION = 4

_R_MAX = 40
_NEWTON_TOL = 1e-11    # closed bracket width, or two float64 spacings above it
_NEWTON_ITMAX = 80     # lockstep refinement passes at most
_RESCUE_DEPTH = 32     # sub-cells of a grid cell holding a minimum of |Z|
_CHUNK = 512           # heights per phase matrix


@functools.cache
def _bernoulli_coeffs() -> np.ndarray:
    """B_{2r}/(2r)! as float64, r = 1.._R_MAX."""
    return np.array([float(bernoulli(2 * r) / math.factorial(2 * r))
                     for r in range(1, _R_MAX + 1)])


class FastLEvaluator:
    """L(1/2 + it) and the rotated real Z(t) for a non-principal chi.

    Z(t) = Re[e^(i theta(t)) L(1/2+it)] is real for any primitive chi (the
    functional equation pairs t with -t through the conjugate character), so
    the same sign-change scan works for complex characters; their zeros are
    just not symmetric in t, and negative ordinates must be scanned
    separately (they are the reflected positive ordinates of conj(chi)).
    """

    def __init__(self, chi):
        if chi.is_principal:
            raise PrincipalCharacter("principal character has a pole at s = 1")
        self.chi = chi
        self.q = chi.modulus
        self.a = chi.parity_a
        self.residues = np.flatnonzero(chi.table)
        self.res_values = chi.table[self.residues]
        # root number phase arg(tau(chi) / i^a); omega = 1 for real primitive chi
        self.omega_angle = 0.0
        if chi.is_primitive and not chi.is_real:
            tau = chi.table @ np.exp(2j * np.pi * np.arange(self.q) / self.q)
            self.omega_angle = float(np.angle(tau / 1j ** self.a))

    # -- Euler-Maclaurin pieces ------------------------------------------------

    def _em_n(self, t_max: float) -> int:
        return max(32, int(abs(t_max) / 4) + 8)

    def _flat_coeffs(self, N: int):
        """(log m, chi(m) m^(-1/2)) over the flattened leading sum of length
        phi(q)*N."""
        q = self.q
        m = (self.residues[None, :] + q * np.arange(N)[:, None]).ravel()
        w = np.broadcast_to(self.res_values, (N, self.residues.size)).ravel()
        m = m.astype(np.float64)
        return np.log(m), w * m ** -0.5

    def _tail_sum(self, t: np.ndarray, N: int):
        """q^(-s) sum_a chi(a) EM tail of zeta(s, x_a), x_a = N + a/q, and its
        derivative in t, vectorized over t.

        The tail of each class is x^(-s) [x/(s-1) + 1/2 + sum_r P_r(s)
        (N/x)^(2r+1)] with P_r(s) = B_2r/(2r)! (s)_(2r+1) N^(-2r-1) the same
        for every class, so the sum over classes is one matrix product of
        chi(a) x_a^(-s) with powers of N/x_a; scaling by N keeps the
        Pochhammer factors from overflowing.  d/ds log P_r(s) is the sum of
        1/(s+j) over its Pochhammer factors.
        """
        s = 0.5 + 1j * t
        x = N + self.residues / self.q
        lx = np.log(x)
        b = _bernoulli_coeffs()
        pr = [b[0] * s / N]
        sig = [1 / s]
        for r in range(1, _R_MAX):
            if np.max(np.abs(pr[-1])) < 1e-18 * math.sqrt(N):
                break
            f = (s + 2 * r - 1) * (s + 2 * r)
            pr.append(pr[-1] * f * (b[r] / (b[r - 1] * N * N)))
            # 1/(s+2r-1) + 1/(s+2r)
            sig.append(sig[-1] + (2 * s + (4 * r - 1)) / f)
        pr, sig = np.stack(pr, axis=1), np.stack(sig, axis=1)
        v = (N / x)[:, None] ** (2 * np.arange(pr.shape[1]) + 1)
        e = self.res_values * np.exp(-np.outer(s, lx))  # chi(a) x_a^(-s)
        ex, e1, exl, el = (e @ np.stack([x, np.ones_like(x), x * lx, lx], axis=1)).T
        g, gl = np.hsplit(e @ np.hstack([v, v * lx[:, None]]), 2)
        tail = ex / (s - 1) + e1 / 2 + np.sum(pr * g, axis=1)
        dtail = (-exl / (s - 1) - ex / (s - 1) ** 2 - el / 2
                 + np.sum(pr * (sig * g - gl), axis=1))
        q_ms = np.exp(-s * math.log(self.q))
        # d/dt = i d/ds
        return tail * q_ms, 1j * q_ms * (dtail - math.log(self.q) * tail)

    # -- evaluation ------------------------------------------------------------

    def theta(self, t: np.ndarray) -> np.ndarray:
        """Phase such that e^(i theta(t)) L(1/2+it) is real (same zeros as the
        rotated completed function, with the decaying modulus removed)."""
        t = np.asarray(t, dtype=np.float64)
        z = (0.5 + self.a) / 2 + 0.5j * t
        return (0.5 * t * math.log(self.q / math.pi)
                + np.imag(_loggamma(z)) - 0.5 * self.omega_angle)

    def _rotated(self, t, S, dS, N: int):
        """Z and Z' at t from the leading sum S and its t-derivative dS of
        length phi(q)*N: adds the Euler-Maclaurin tail at the same N and
        rotates by theta(t).  Z' = Re[e^(i theta) (i theta' L + L')] =
        Re[e^(i theta) L'], because i theta' e^(i theta) L = i theta' Z is
        imaginary."""
        tail, dtail = self._tail_sum(t, N)
        rot = np.exp(1j * self.theta(t))
        return np.real(rot * (S + tail)), np.real(rot * (dS + dtail))

    def _chunks(self, t: np.ndarray, radius: float):
        """(indices, N) for each sorted run of _CHUNK heights, N the
        Euler-Maclaurin length at the run's largest |t| plus radius."""
        order = np.argsort(t)
        for start in range(0, t.size, _CHUNK):
            idx = order[start:start + _CHUNK]
            yield idx, self._em_n(float(np.max(np.abs(t[idx]))) + radius)

    def z_and_derivative(self, t: np.ndarray):
        """Z(t) and Z'(t) for an arbitrary array of heights: the expansion of
        `leading_sum_taylor` at radius 0, whose two coefficients are the
        direct sums of chi(m) m^(-1/2) and -i log m chi(m) m^(-1/2) at t."""
        t = np.asarray(t, dtype=np.float64)
        return self.z_from_taylor(t, t, *self.leading_sum_taylor(t, 0.0))

    def leading_sum_taylor(self, centres: np.ndarray, radius: float):
        """Taylor coefficients of the leading sum S around each centre.

        S(t) = sum_m chi(m) m^(-1/2) e^(-i t log m) is entire, so
        S(c + d) = sum_k coef[k] d^k with coef[k] = sum_m e^(-i c log m)
        chi(m) m^(-1/2) (-i log m)^k / k!.  For each run of `_chunks` one
        phase matrix cos/sin(c log m) times one real (M, 2K) matrix of those
        weights gives every coefficient in one product.  K is the smallest
        order >= 2 with (radius log m_max)^K / K! <= 2^-64 at the largest N,
        so for |d| <= radius the dropped orders are below 2^-64 sum |chi(m)|
        m^(-1/2).  Returns the (n, K) complex coefficients and each centre's N.
        """
        c = np.asarray(centres, dtype=np.float64)
        n_max = self._em_n(float(np.max(np.abs(c), initial=0.0)) + radius)
        x = radius * math.log(self.q * n_max)
        K, term = 2, x * x / 2
        while term > 2.0 ** -64:
            K += 1
            term *= x / K
        # the flattened sum of length phi(q)*N is a prefix of the longest one
        logm, amp = self._flat_coeffs(n_max)
        w = np.cumprod(np.hstack([amp[:, None], -1j * logm[:, None] / np.arange(1, K)]),
                       axis=1)
        w = np.hstack([w.real, w.imag])
        coef = np.empty((c.size, K), dtype=np.complex128)
        Ns = np.empty(c.size, dtype=np.int64)
        for idx, N in self._chunks(c, radius):
            Ns[idx] = N
            M = self.residues.size * N
            ph = np.outer(c[idx], logm[:M])
            pc = np.cos(ph) @ w[:M]
            ps = np.sin(ph, out=ph) @ w[:M]
            coef[idx] = pc[:, :K] + ps[:, K:] + 1j * (pc[:, K:] - ps[:, :K])
        return coef, Ns

    def z_from_taylor(self, t, centres, coef, N):
        """Z and Z' at each t from the expansion (coef, N) of
        `leading_sum_taylor` around its own centre: S and S' by Horner in
        d = t - c, then the directly evaluated tail at the same N."""
        d = t - centres
        S = coef[:, -1]
        dS = np.zeros_like(S)
        for k in range(coef.shape[1] - 2, -1, -1):
            dS = dS * d + S
            S = S * d + coef[:, k]
        z = np.empty(t.shape)
        dz = np.empty(t.shape)
        for n in np.unique(N):
            i = np.flatnonzero(N == n)
            z[i], dz[i] = self._rotated(t[i], S[i], dS[i], int(n))
        return z, dz

    def z_values(self, t: np.ndarray) -> np.ndarray:
        return self.z_and_derivative(t)[0]

    def z_grid(self, t0: float, h: float, count: int) -> np.ndarray:
        """Z on the equally spaced grid t0 + j*h, j = 0..count-1: from the
        first height u of each run of `_chunks` the leading sum follows the
        recurrence e^(-i(u+jh)log m) = e^(-i u log m) (e^(-i h log m))^j."""
        t = t0 + np.arange(count) * h
        out = np.empty(count)
        for idx, N in self._chunks(t, 0.0):
            logm, amp = self._flat_coeffs(N)
            c = amp * np.exp(-1j * t[idx[0]] * logm)
            mult = np.exp(-1j * h * logm)
            S = np.empty(idx.size, dtype=np.complex128)
            for j in range(idx.size):
                S[j] = c.sum()
                c *= mult
            out[idx] = self._rotated(t[idx], S, 0.0, N)[0]
        return out


# ----------------------------------------------------------------------------
# zero location

def _brackets_from_grid(t, z):
    """Sign-change cells along the last axis of t and z, as arrays
    (left end, right end, Z there, Z there)."""
    sign = np.sign(z)
    flips = np.nonzero(sign[..., :-1] * sign[..., 1:] < 0)
    right = flips[:-1] + (flips[-1] + 1,)
    return t[flips], t[right], z[flips], z[right]


def _rescue_minima(ev, t, z):
    """Subdivide grid cells holding a local minimum of |Z| with no sign change;
    catches close zero pairs hiding inside one cell.  All candidates'
    sub-grids are evaluated in one call."""
    absz = np.abs(z)
    scale = np.median(absz) if absz.size else 0.0
    sign = np.sign(z)
    mid = slice(1, -1)
    cand = 1 + np.nonzero(
        (absz[mid] < absz[:-2]) & (absz[mid] <= absz[2:])
        & (absz[mid] < 0.25 * scale)
        & (sign[:-2] == sign[mid]) & (sign[mid] == sign[2:]))[0]
    tt = np.linspace(t[cand - 1], t[cand + 1], _RESCUE_DEPTH + 1, axis=-1)
    zz = ev.z_values(tt.ravel()).reshape(tt.shape)
    return _brackets_from_grid(tt, zz)


def _newton(ev, brackets):
    """Lockstep safeguarded Newton over all brackets at once.

    The leading sum is expanded once around each bracket's centre, to radius
    half the widest bracket (`FastLEvaluator.leading_sum_taylor`); every step
    evaluates Z and Z' from that expansion plus the directly evaluated tail
    (`FastLEvaluator.z_from_taylor`).  Every evaluation keeps the sign-change
    bracket [a, b]; a Newton step that leaves it falls back to the midpoint.
    The first point of each bracket is its secant point.  A bracket is closed
    once it is no wider than _NEWTON_TOL, or than two float64 spacings where
    those are wider (above t = 2^15).  When the Newton point would close it,
    the next point is taken a quarter of _NEWTON_TOL (or one spacing) past
    it, so that it lands beyond the root and closes the bracket in one
    evaluation.  Returns the midpoints (an empty array for no brackets).
    """
    a, b, fa, fb = (np.array(x, dtype=np.float64) for x in brackets)
    centre = 0.5 * (a + b)
    coef, N = ev.leading_sum_taylor(centre, 0.5 * float(np.max(b - a, initial=0.0)))
    # Z and Z' at the last point evaluated in each bracket (an endpoint)
    x = np.full(a.size, np.nan)
    fx = np.zeros(a.size)
    dfx = np.zeros(a.size)
    for _ in range(_NEWTON_ITMAX):
        width = np.maximum(_NEWTON_TOL, 2 * np.spacing(np.abs(a)))
        active = np.nonzero(b - a > width)[0]
        if active.size == 0:
            break
        aa, bb, xx = a[active], b[active], x[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -fx[active] / dfx[active]
            fresh = np.isnan(xx)
            secant = bb - fb[active] * (bb - aa) / (fb[active] - fa[active])
        gap = bb - aa
        past = np.maximum(0.25 * _NEWTON_TOL, np.spacing(np.abs(xx)))
        p = np.where(fresh, np.clip(secant, aa + 0.01 * gap, bb - 0.01 * gap),
                     np.where(np.abs(step) + past <= width[active],
                              xx + step + np.copysign(past, step), xx + step))
        p = np.where((p > aa) & (p < bb), p, 0.5 * (aa + bb))
        fp, dfp = ev.z_from_taylor(p, centre[active], coef[active], N[active])
        left = fa[active] * fp < 0  # root in [a, p]
        a[active] = np.where(left, aa, p)
        fa[active] = np.where(left, fa[active], fp)
        b[active] = np.where(left, p, bb)
        fb[active] = np.where(left, fp, fb[active])
        hit = fp == 0
        a[active[hit]] = b[active[hit]] = p[hit]
        x[active], fx[active], dfx[active] = p, fp, dfp
    return 0.5 * (a + b)


def scan_zeros(chi, t_max: float, refine_factor: int = 1, side: int = 1):
    """Grid scan + refinement; returns (ordinates ascending, grid step used).

    side=+1 scans t in (0, t_max]; side=-1 scans t in [-t_max, 0) and
    returns |t| of the zeros found there (for a complex character these are
    the positive ordinates of the conjugate character's zeros; for a real
    character both sides coincide).
    """
    ev = FastLEvaluator(chi)
    h = min(0.2, math.pi / math.log(chi.modulus * max(t_max, 3.0))) / refine_factor
    count = int(math.ceil(t_max / h)) + 1
    t0 = 0.0 if side >= 0 else -((count - 1) * h)
    t = t0 + np.arange(count) * h
    z = ev.z_grid(t0, h, count)
    brackets = [np.concatenate(parts) for parts in
                zip(_brackets_from_grid(t, z), _rescue_minima(ev, t, z))]
    gammas = _newton(ev, brackets)
    if side < 0:
        gammas = -gammas
    gammas = np.sort(gammas)
    gammas = gammas[(gammas > 0) & (gammas <= t_max)]
    return gammas, h


def find_zeros_fast(chi, t_max: float, count_formula, tolerance: float,
                    side: int = 1):
    """Scan with the default grid; on completeness failure refine 4x once.

    `count_formula(T)` supplies the smooth zero-count main term.  Raises
    CompletenessCheckFailed if the refined scan still deviates beyond
    `tolerance`.
    """
    expected = count_formula(t_max)
    for refine in (1, 4):
        gammas, h = scan_zeros(chi, t_max, refine_factor=refine, side=side)
        if abs(len(gammas) - expected) <= tolerance:
            return gammas, h
    raise CompletenessCheckFailed(
        f"found {len(gammas)} zeros up to T={t_max} but the counting formula "
        f"predicts {expected:.2f} (tolerance {tolerance:.2f})")
