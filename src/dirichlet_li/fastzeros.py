"""Vectorized double-precision engine for critical-line zero scanning.

Evaluates L(1/2 + it, chi) for non-principal characters by Euler-Maclaurin
summation over residue classes (flattened to a single Dirichlet sum plus
per-class Bernoulli tails), forms the phase-rotated real function whose sign
changes are the critical-line zeros, and locates all zeros of one half plane
up to a target height; `lfunc` checks how many it found.

Direct L(1/2 + it) and dL/dt come from `l_values`, which sums the leading
Dirichlet sum and the Euler-Maclaurin tail at each height.  A scan reads
Taylor expansions of L around centres (`leading_sum_taylor`), whose tail part
comes off one Chebyshev interpolant per run of centres sharing one N; only
they read it.  They expand e^(i d lam) L(c + d), lam = log(q n_max) / 2, a
frame that centres the frequencies log m in [0, 2 lam], so the order covers
x = radius lam.  A scan with grid step h (h log(q t_max) <= pi) expands
around every 8-cell span's midpoint (_SPAN), to radius 4h, from phases
doubled along them.  Every height is read from its span's expansion by
Horner (`z_from_taylor`): the grid as one (spans, _SPAN) view against the
spans' coefficients, with no coefficient row gathered per grid point, and
rescue sub-grids and Newton steps through the span holding each point.
Phases are formed and multiplied into the weights in slabs of _SLAB terms m,
so the working memory does not grow with the sum's length (M = phi(q) N,
N ~ t/4) beyond the (M, K) weights and a few M-long phase factors.  An
ordinate is the midpoint of a float64 sign-change bracket no wider than
1e-11, or than two float64 spacings above t = 2^15.  The Euler-Maclaurin
truncation sits near 1e-13, but each direct phase t log m carries about one
ulp of absolute error, so a scan's expansion and direct `z_values` differ by
up to 4.3e-14 at t = 30, 2.5e-12 at t = 1500 and 1.9e-11 at t = 8600 (3.1,
5.1 and 60.14, both half planes), nearly all of it direct Z's: the
expansions correct the rounding of their first phase rows and of their
centres (`leading_sum_taylor`).  The sign of a bracket end is not certain
where |Z| is that small.  Tests compare Z and sampled zeros with the
mpmath `hardy_z` and `xi_value` in `lfunc`; nothing certifies them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import PrincipalCharacter
from .specfun import bernoulli

# Bumped whenever a change to the finder can move the ordinates it returns;
# caches of computed zero lists are keyed on it.
FINDER_VERSION = 10

_R_MAX = 40
_NEWTON_TOL = 1e-11    # closed bracket width, or two float64 spacings above it
_NEWTON_ITMAX = 80     # lockstep refinement passes at most
_RESCUE_DEPTH = 32     # sub-cells of a grid cell holding a minimum of |Z|
_CHUNK = 256           # rows of a run's phase block, at most
_SLAB = 512            # terms m per product of a run's phase block and weights
_SPAN = 8              # grid cells per expansion of a scan's leading sum


@functools.cache
def _bernoulli_coeffs() -> np.ndarray:
    """B_{2r}/(2r)! as float64, r = 1.._R_MAX."""
    return np.array([float(bernoulli(2 * r) / math.factorial(2 * r))
                     for r in range(1, _R_MAX + 1)])


def _order(x: float) -> int:
    """The least K >= 2 with x^K / K! <= 2^-64."""
    K, term = 2, x * x / 2
    while term > 2.0 ** -64:
        K += 1
        term *= x / K
    return K


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


def _split(a):
    """a = hi + lo with hi of 26 bits (Veltkamp), so products of halves are exact."""
    hi = 134217729.0 * a  # 2^27 + 1
    hi -= hi - a
    return hi, a - hi


def _phase_factors(c: float, lm: np.ndarray) -> np.ndarray:
    """e^(-i c log m) corrected to first order for the rounding of c log m,
    which Dekker's product gives exactly (Numer. Math. 18 (1971))."""
    p = c * lm
    (ch, cl), (mh, ml) = _split(c), _split(lm)
    return np.exp(-1j * p) * (1 - 1j * (((ch * mh - p) + ch * ml + cl * mh) + cl * ml))


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

        The tail of each class is x^(-s) [x/(s-1) + 1/2 + sum_r P_r(s) (N/x)^(2r+1)]
        with P_r(s) = B_2r/(2r)! (s)_(2r+1) N^(-2r-1) the same for every class,
        so the sum over classes is one matrix product of chi(a) x_a^(-s) with
        powers of N/x_a; scaling by N keeps the Pochhammer factors from
        overflowing.  The terms through the first below 1e-18 sqrt(N) at the
        largest |t| of the call, where |P_r| peaks, are kept (for an
        expansion the heights are its interpolation nodes, which span every
        height it is read at); d/ds log P_r(s) is the sum of 1/(s+j) over its
        Pochhammer factors.
        """
        s = 0.5 + 1j * t
        x = N + self.residues / self.q
        lx = np.log(x)
        b = _bernoulli_coeffs()
        # P_r / P_(r-1) = b_r (s+2r-1)(s+2r) / (b_(r-1) N^2); row 0 at the largest |t|
        r = np.arange(1, _R_MAX)
        ts = np.append(np.max(np.abs(t), initial=0.0), t)[:, None]
        f = 4 * r * r - 0.25 - ts * ts + 4j * r * ts  # (s+2r-1)(s+2r)
        pr = np.cumprod(np.hstack([b[0] * (0.5 + 1j * ts) / N, f * (b[1:] / (b[:-1] * N * N))]),
                        axis=1)
        R = 1 + int(np.argmax(np.append(np.abs(pr[0, :-1]) < 1e-18 * math.sqrt(N), True)))
        pr, f, r = pr[1:, :R], f[1:, :R - 1], r[:R - 1]
        e = self.res_values * np.exp(-np.outer(s, lx))  # chi(a) x_a^(-s)
        cols = np.column_stack([x, np.ones_like(x), (N / x)[:, None] ** (2 * np.arange(R) + 1)])
        sums = e @ np.hstack([cols, cols * lx[:, None]])
        ex, e1, g = sums[:, 0], sums[:, 1], sums[:, 2:R + 2]
        q_ms = np.exp(-s * math.log(self.q))
        tail = ex / (s - 1) + e1 / 2 + np.einsum("ij,ij->i", pr, g)
        exl, el, gl = sums[:, R + 2], sums[:, R + 3], sums[:, R + 4:]
        # 1/s, then 1/(s+2r-1) + 1/(s+2r) = (4r + 2it) / ((s+2r-1)(s+2r))
        sig = np.cumsum(np.hstack([1 / s[:, None], (4 * r + 2j * t[:, None]) / f]), axis=1)
        dtail = (-exl / (s - 1) - ex / (s - 1) ** 2 - el / 2
                 + np.einsum("ij,ij->i", pr, sig * g - gl))
        # d/dt = i d/ds
        return tail * q_ms, 1j * q_ms * (dtail - math.log(self.q) * tail)

    def _tail_taylor(self, centres: np.ndarray, radius: float, K: int, N: int):
        """Taylor coefficients (len(centres), K) of the tail at N around each
        centre, read off one Chebyshev interpolant (Trefethen, ATAP).

        The tail is e^(-i t lam) g(t) with lam = log(q(N + 1/2)): every class
        frequency log(qN + a) lies within 1/(2N) of lam, and the 1/(s-1) terms
        cancel over a non-principal chi, so g is smooth on the scale of N.  g
        is interpolated in the n + 1 Chebyshev points (of the first kind) of
        [min c - radius, max c + radius], widened to half-width N at least
        (g's own scale), for n = 32, 64 and 128 until its last three
        Chebyshev coefficients fall below the rounding of the sampled phases,
        2^-52 (1 + max|t| lam) max|a|; the coefficients above that level are
        kept.  The tail's k-th Taylor coefficient at c is e^(-i c lam)
        [(d/dt - i lam)^k g](c) / k!: that operator is applied k times to the
        Chebyshev coefficients, and the series summed at each centre.
        """
        # imported here, so that commands which never scan do not load it
        from numpy.polynomial import chebyshev as C
        lam = math.log(self.q * (N + 0.5))
        lo, hi = centres.min() - radius, centres.max() + radius
        mid, half = 0.5 * (lo + hi), max(0.5 * (hi - lo), N)
        noise = 2.0 ** -52 * (1 + (abs(mid) + half) * lam)

        def g(x):
            t = mid + half * x
            return self._tail_sum(t, N)[0] * np.exp(1j * lam * t)

        for n in (32, 64, 128):
            a = C.chebinterpolate(g, n)
            size = np.abs(a)
            if size[-3:].max() <= noise * size.max():
                break
        P = 1 + int(np.max(np.flatnonzero(size > noise * size.max()), initial=0))
        # column k: the coefficients of (d/dt - i lam)^k g / k!
        D = C.chebder(np.eye(P + 1))[:, :P] / half - 1j * lam * np.eye(P)
        A = [a[:P]]
        for k in range(1, K):
            A.append(D @ A[-1] / k)
        vander = C.chebvander((centres - mid) / half, P - 1)
        return np.exp(-1j * lam * centres)[:, None] * (vander @ np.column_stack(A))

    # -- evaluation ------------------------------------------------------------

    def theta(self, t: np.ndarray) -> np.ndarray:
        """Phase such that e^(i theta(t)) L(1/2+it) is real (same zeros as the
        rotated completed function, with the decaying modulus removed)."""
        t = np.asarray(t, dtype=np.float64)
        return (0.5 * t * math.log(self.q / math.pi)
                + _im_log_gamma((0.5 + self.a) / 2, 0.5 * t) - 0.5 * self.omega_angle)

    def l_values(self, t: np.ndarray):
        """L(1/2 + it) and dL/dt at a 1-d array of heights, per run of _CHUNK
        sorted by |t| with one N: the leading sum against chi(m) m^(-1/2)
        (1, -i log m), in slabs of _SLAB terms m, plus `_tail_sum`."""
        t = np.asarray(t, dtype=np.float64)
        order = np.argsort(np.abs(t))
        logm, amp = self._flat_coeffs(self._em_n(float(np.max(np.abs(t), initial=0.0))))
        w = np.column_stack([amp, -1j * logm * amp])
        out = np.empty((t.size, 2), dtype=np.complex128)
        blocks = np.empty(_CHUNK * _SLAB, dtype=np.complex128)
        for start in range(0, t.size, _CHUNK):
            idx = order[start:start + _CHUNK]
            N = self._em_n(abs(t[idx[-1]]))
            lm = logm[:self.residues.size * N]
            acc = np.column_stack(self._tail_sum(t[idx], N))
            for lo in range(0, lm.size, _SLAB):
                m = slice(lo, min(lo + _SLAB, lm.size))
                block = blocks[:idx.size * (m.stop - lo)].reshape(idx.size, -1)
                block.real = 0
                np.multiply.outer(t[idx], -lm[m], out=block.imag)
                acc += np.exp(block, out=block) @ w[m]
            out[idx] = acc
        return out.T

    def z_and_derivative(self, t: np.ndarray):
        """Z(t) and Z'(t): `l_values` rotated by theta."""
        return np.real(np.exp(1j * self.theta(t)) * self.l_values(t))

    def leading_sum_taylor(self, centres: np.ndarray, radius: float, step: float):
        """Taylor coefficients of e^(i d lam) L(1/2 + i(c + d)) in d around
        each centre c, lam = log(q n_max) / 2: the leading sum S plus the
        Euler-Maclaurin tail at the same N, in a frame whose carrier e^(-i d lam)
        centres the band of frequencies log m in [0, 2 lam].

        S(t) = sum_m chi(m) m^(-1/2) e^(-i t log m) is entire, so
        e^(i d lam) S(c + d) = sum_k coef[k] d^k with coef[k] = sum_m
        e^(-i c log m) chi(m) m^(-1/2) (-i (log m - lam))^k / k!: per run of
        r nb ascending centres spaced by `step` with one N, a complex phase
        block times the (M, K) matrix of those weights, of which only the first
        row, its doublings e^(-i 2^b step log m) and its shifts
        e^(-i jr step log m) along the run, folded into the weights, are
        evaluated; the first row's phases are corrected for their rounding
        (`_phase_factors`).  Row i of a run is expanded at c_0 + i step, which
        misses its float centre by that centre's rounding, about one ulp of c;
        the series is moved there to first order.  The product is summed over
        slabs of _SLAB terms m, so memory is the output, the weights,
        O((log2 r + nb) M) phase factors and one slab, released before the
        next run's are built.  |log m - lam| <=
        lam, so K is `_order(x)`, x = radius lam, and for |d| <= radius the
        dropped orders are below 2^-64 sum |chi(m)| m^(-1/2); at |d| = radius
        Horner's terms, and their rounding, can reach e^x times that sum (x is
        3-5, K = 31-38, in the tables' scans at _SPAN = 8).  Each run's tail
        comes from one interpolant (`_tail_taylor`) as a plain series of order
        `_order(2 x)`, a Taylor series of the tail in its own right across the
        span, carried into the frame by the series of e^(i d lam): the frame's
        coefficient k reads its coefficients 0..k only.
        Returns the (n, K + 1) complex coefficients, lam in the last column.
        """
        c = np.asarray(centres, dtype=np.float64)
        n_max = self._em_n(float(np.max(np.abs(c), initial=0.0)) + radius)
        lam = 0.5 * math.log(self.q * n_max)
        K = _order(radius * lam)
        # the flattened sum of length phi(q)*N is a prefix of the longest one
        logm, amp = self._flat_coeffs(n_max)
        w = np.empty((logm.size, K), dtype=np.complex128)
        w[:, 0] = amp
        np.divide(-1j * (logm[:, None] - lam), np.arange(1, K), out=w[:, 1:])
        np.cumprod(w, axis=1, out=w)
        # carry[j, k]: the coefficient of d^(k - j) in e^(i d lam)
        carry = np.cumprod(np.append(1.0, 1j * lam / np.arange(1, K)))
        carry = np.triu(carry[np.abs(np.subtract.outer(np.arange(K), np.arange(K)))])
        coef = np.empty((c.size, K + 1), dtype=np.complex128)
        coef[:, K] = lam
        # N at each run's largest |c| + radius; r ~ sqrt(K run)
        order = np.argsort(c)
        run = _CHUNK ** 2 // (4 * K)
        for start in range(0, c.size, run):
            idx = order[start:start + run]
            N = self._em_n(float(np.max(np.abs(c[idx]))) + radius)
            lm = logm[:self.residues.size * N]
            tail = self._tail_taylor(c[idx], radius, _order(2 * radius * lam), N)[:, :K] @ carry
            # row i + jr of the run is row i of the block times e^(-i jr step log m)
            r = 2 ** round(math.log2(idx.size * K) / 2)
            nb = -(-idx.size // r)
            levels = 2 ** np.arange(r.bit_length() - 1)
            doubling, shift = (np.exp(x, out=x) for x in (
                np.multiply.outer(-1j * step * levels, lm),
                np.multiply.outer(lm, -1j * (r * step) * np.arange(nb))))
            first = _phase_factors(c[idx[0]], lm)
            # the run's block times the weights, summed over slabs of _SLAB terms m
            acc = np.zeros((r, nb * K), dtype=np.complex128)
            blocks = np.empty(r * _SLAB, dtype=np.complex128)
            for lo in range(0, lm.size, _SLAB):
                m = slice(lo, min(lo + _SLAB, lm.size))
                block = blocks[:r * (m.stop - lo)].reshape(r, -1)
                block[0] = first[m]
                for b, n in enumerate(levels):
                    np.multiply(block[:n], doubling[b, m], out=block[n:2 * n])
                acc += block @ (shift[m, :, None] * w[m, None, :]).reshape(-1, nb * K)
            lead = acc.reshape(r, nb, K).swapaxes(0, 1).reshape(-1, K)[:idx.size]
            # row i is expanded at c_0 + i step, delta short of its float
            # centre: move it there, F(d) -> e^(-i delta lam) F(d + delta), to
            # first order in delta
            delta = (c[idx] - c[idx[0]] - np.arange(idx.size) * step)[:, None]
            lead[:, :-1] += delta * np.arange(1, K) * lead[:, 1:]
            coef[idx, :K] = lead * np.exp(-1j * lam * delta) + tail
            del first, doubling, shift, acc, blocks, lead
        return coef

    def z_from_taylor(self, t, centres, coef, derivative: bool = True):
        """Z and Z' (None unless `derivative`) at each t from the expansion
        coef of `leading_sum_taylor` around its centre c, broadcast over t
        (coefficients on the last axis of coef): F(d) = e^(i d lam) L(c + d)
        and F' by Horner in d = t - c, rotated by theta(t) - d lam.
        L' = e^(-i d lam) (F' - i lam F), and Z' = Re[e^(i theta) L'], as
        i theta' Z is imaginary."""
        d = t - centres
        lam = coef[..., -1].real
        dc = d.astype(np.complex128)  # Horner's products then need no cast
        F, dF = coef[..., -2] + np.zeros_like(dc), 0
        for k in range(coef.shape[-1] - 3, -1, -1):
            if derivative:
                dF = dF * dc + F
            F *= dc
            F += coef[..., k]
        rot = np.exp(1j * (self.theta(t) - d * lam))
        return np.real(rot * F), np.real(rot * (dF - 1j * lam * F)) if derivative else None

    def z_values(self, t: np.ndarray) -> np.ndarray:
        return self.z_and_derivative(t)[0]


# ----------------------------------------------------------------------------
# zero location

def _brackets_from_grid(t, z):
    """Sign-change cells along the last axis of t and z, as arrays
    (left end, right end, Z there, Z there)."""
    sign = np.sign(z)
    flips = np.nonzero(sign[..., :-1] * sign[..., 1:] < 0)
    right = flips[:-1] + (flips[-1] + 1,)
    return t[flips], t[right], z[flips], z[right]


def _rescue_minima(t, z, z_at):
    """Subdivide grid cells holding a local minimum of |Z| with no sign change;
    catches close zero pairs hiding inside one cell.  All candidates'
    sub-grids are evaluated in one call of `z_at`."""
    absz = np.abs(z)
    scale = np.median(absz) if absz.size else 0.0
    sign = np.sign(z)
    mid = slice(1, -1)
    cand = 1 + np.nonzero(
        (absz[mid] < absz[:-2]) & (absz[mid] <= absz[2:])
        & (absz[mid] < 0.25 * scale)
        & (sign[:-2] == sign[mid]) & (sign[mid] == sign[2:]))[0]
    tt = np.linspace(t[cand - 1], t[cand + 1], _RESCUE_DEPTH + 1, axis=-1)
    zz = z_at(tt.ravel()).reshape(tt.shape)
    return _brackets_from_grid(tt, zz)


def _newton(ev, brackets, centre, coef):
    """Lockstep safeguarded Newton over all brackets at once.

    Every step reads Z and Z' from one expansion of L per bracket, around
    `centre` (`FastLEvaluator.z_from_taylor` of `coef`).  Every evaluation keeps
    the sign-change bracket [a, b]; a Newton step that leaves it falls back to
    the midpoint.  The first point of each bracket is its secant point.  A
    bracket is closed once it is no wider than _NEWTON_TOL, or than two
    float64 spacings where those are wider (above t = 2^15).  When the Newton
    point would close it, the next point is taken a quarter of _NEWTON_TOL (or
    one spacing) past it, so that it lands beyond the root and closes the
    bracket in one evaluation.  Returns the midpoints (an empty array for no
    brackets).
    """
    a, b, fa, fb = (np.array(x, dtype=np.float64) for x in brackets)
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
        fp, dfp = ev.z_from_taylor(p, centre[active], coef[active])
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
    """Grid scan + refinement; returns the ordinates, ascending.

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
    H = _SPAN * h  # one expansion per span, to radius H/2; spans end on grid points
    centres = t0 + (np.arange(-(-(count - 1) // _SPAN)) + 0.5) * H
    coef = ev.leading_sum_taylor(centres, 0.5 * H, step=H)

    def expansion_of(x):  # the expansion whose span holds each height
        j = np.clip(((x - t0) // H).astype(np.intp), 0, centres.size - 1)
        return centres[j], coef[j]

    def z_at(x):
        return ev.z_from_taylor(x, *expansion_of(x), derivative=False)[0]

    # the grid points of each whole span against its expansion, then the rest
    f = (count - 1) // _SPAN
    z = np.append(ev.z_from_taylor(t[:f * _SPAN].reshape(f, _SPAN), centres[:f, None],
                                   coef[:f, None], derivative=False)[0], z_at(t[f * _SPAN:]))
    brackets = [np.concatenate(parts) for parts in
                zip(_brackets_from_grid(t, z), _rescue_minima(t, z, z_at))]
    gammas = _newton(ev, brackets, *expansion_of(0.5 * (brackets[0] + brackets[1])))
    gammas = np.sort(-gammas if side < 0 else gammas)
    return gammas[(gammas > 0) & (gammas <= t_max)]

