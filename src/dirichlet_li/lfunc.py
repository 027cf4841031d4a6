"""Dirichlet L-function evaluation, completed xi, zero finding and zero files.

High-precision values go through the Hurwitz-zeta decomposition
L(s, chi) = q^(-s) sum_a chi(a) zeta(s, a/q); zero scanning delegates to the
vectorized double-precision engine in `fastzeros` (the located ordinates are
accurate to ~1e-12, certified to the claimed 1e-10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from . import fastzeros
from .characters import DirichletCharacter, gauss_sum
from .errors import (ComplexCharacterUnsupported, ModulusMismatch, NotPrimitive,
                     ParseError, PrincipalCharacter)
from .precision import PrecisionConfig, default_precision
from .specfun import hurwitz_zeta, hurwitz_zeta_minus_pole, log_gamma

ZERO_ACCURACY = 1e-10  # guaranteed |gamma_true - gamma| for computed lists


# ----------------------------------------------------------------------------
# values

def l_value(s, chi: DirichletCharacter, prec: PrecisionConfig | None = None) -> mpmath.mpc:
    """L(s, chi) for non-principal chi, any s, via the Hurwitz decomposition."""
    if chi.is_principal:
        raise PrincipalCharacter("L(s, chi_0) has a pole; not supported")
    prec = prec or default_precision()
    q = chi.modulus
    with prec.workprec(20):
        s = mpmath.mpc(s)
        at_one = (s == 1)
        total = mpmath.mpc(0)
        for a in range(1, q):
            if chi.exponents[a] is None:
                continue
            if at_one:
                # the 1/(s-1) pole terms cancel exactly (sum of chi over a
                # period is 0 for non-principal chi)
                z = hurwitz_zeta_minus_pole(mpmath.mpf(a) / q, prec)
            else:
                z = hurwitz_zeta(s, mpmath.mpf(a) / q, prec)
            total += chi.value(a, prec) * z
        return +(q ** (-s) * total)


def xi_value(s, chi: DirichletCharacter, prec: PrecisionConfig | None = None) -> mpmath.mpc:
    """Completed xi(s, chi) = (q/pi)^((s+a)/2) Gamma((s+a)/2) L(s, chi)."""
    if chi.is_principal:
        raise PrincipalCharacter("xi requires a non-principal character")
    if not chi.is_primitive:
        raise NotPrimitive("xi requires a primitive character")
    prec = prec or default_precision()
    q = chi.modulus
    with prec.workprec(20):
        s = mpmath.mpc(s)
        half = (s + chi.parity_a) / 2
        lg = log_gamma(half, prec)
        return +(mpmath.exp(half * mpmath.log(mpmath.mpf(q) / mpmath.pi) + lg)
                 * l_value(s, chi, prec))


def hardy_z(t, chi: DirichletCharacter, prec: PrecisionConfig | None = None) -> mpmath.mpf:
    """Z(t) = Re[omega^(-1/2) xi(1/2 + it, chi)], real for real primitive chi.

    The imaginary part of the rotated value is asserted below
    2^(-working_bits/2); zeros of Z on the real line are exactly the
    critical-line zeros of L.
    """
    if not chi.is_real:
        raise ComplexCharacterUnsupported(
            "the rotation makes the completed function real only for chi = conj(chi)")
    prec = prec or default_precision()
    with prec.workprec(20):
        omega = gauss_sum(chi, prec).root_number_omega
        rot = xi_value(mpmath.mpc(0.5, t), chi, prec) / mpmath.sqrt(omega)
        bound = mpmath.mpf(2) ** (-prec.working_bits // 2) * max(1, abs(rot))
        if abs(mpmath.im(rot)) > bound:
            raise ArithmeticError(
                f"rotated completed value not real: Im = {mpmath.im(rot)}")
        return +mpmath.re(rot)


def n_formula(T: float, chi_or_q) -> float:
    """Smooth main term of the zero-counting function:
    (1/2pi) T log T + c1 T with c1 = (log q - log(2 pi) - 1)/(2 pi)."""
    q = chi_or_q.modulus if isinstance(chi_or_q, DirichletCharacter) else int(chi_or_q)
    if T < 1:
        raise ValueError("need T >= 1")
    c1 = (math.log(q) - (math.log(2 * math.pi) + 1)) / (2 * math.pi)
    return T * math.log(T) / (2 * math.pi) + c1 * T


def height_for_count(q: int, count: int) -> float:
    """Height T at which the smooth counting main term reaches `count`."""
    T = max(10.0, float(count))
    for _ in range(200):
        f = n_formula(T, q) - count
        df = (math.log(T) + math.log(q) - math.log(2 * math.pi)) / (2 * math.pi)
        T_new = T - f / df
        if T_new < 1:
            T_new = T / 2
        if abs(T_new - T) < 1e-9:
            break
        T = T_new
    return T


# ----------------------------------------------------------------------------
# zero lists

@dataclass(frozen=True)
class ZeroRecord:
    gamma: float
    alpha: int = 1
    accuracy: float = ZERO_ACCURACY

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if not self.accuracy > 0:
            raise ValueError("accuracy must be positive")


@dataclass(frozen=True)
class ZeroList:
    chi_id: tuple[int, int]  # (q, label)
    records: tuple[ZeroRecord, ...]
    height: float
    provenance: str  # "computed" | "imported"
    symmetric: bool = True  # conjugate-symmetric zeros (gamma > 0 listed once)

    def __post_init__(self):
        gammas = [r.gamma for r in self.records]
        if any(b <= a for a, b in zip(gammas, gammas[1:])):
            raise ValueError("zero ordinates must be strictly increasing")
        if self.provenance not in ("computed", "imported"):
            raise ValueError(f"bad provenance {self.provenance!r}")

    def __len__(self):
        return len(self.records)

    def gammas(self) -> np.ndarray:
        return np.array([r.gamma for r in self.records])

    def alphas(self) -> np.ndarray:
        return np.array([r.alpha for r in self.records], dtype=np.int64)

    def count_below(self, T: float) -> int:
        return int(sum(r.alpha for r in self.records if r.gamma <= T))


def completeness_tolerance(T: float) -> float:
    return 2 + math.log(T)


def find_zeros(chi: DirichletCharacter, T_max: float) -> ZeroList:
    """All zeros with 0 < gamma <= T_max of L(s, chi) for real primitive
    non-principal chi: find_zeros_upper restricted to real characters."""
    if not chi.is_real:
        raise ComplexCharacterUnsupported("zero finding is restricted to real characters")
    return find_zeros_upper(chi, T_max)


def find_zeros_upper(chi: DirichletCharacter, T_max: float) -> ZeroList:
    """Zeros with 0 < gamma <= T_max for any primitive non-principal chi,
    real or complex, by grid scanning of the rotated real function and
    lockstep safeguarded Newton refinement inside each sign-change bracket
    until the bracket is no wider than 1e-11; the count is checked against
    the smooth counting formula within +-(2 + log T_max) after at most one
    4x grid refinement.

    For a complex character the zero set is not conjugate-symmetric and this
    one-sided list captures only the upper half plane; the returned list is
    nevertheless flagged symmetric (factor 2 applies in the zero sum), which
    reproduces the published-table convention for complex characters.  Use
    find_zeros_merged for the convention-free full spectrum.
    """
    if chi.is_principal:
        raise PrincipalCharacter("principal character not supported")
    if not chi.is_primitive:
        raise NotPrimitive("zero scanning requires a primitive character")
    if T_max < 1:
        raise ValueError("need T_max >= 1")
    gammas, _h = fastzeros.find_zeros_fast(
        chi, T_max, lambda T: n_formula(T, chi), completeness_tolerance(T_max))
    records = tuple(ZeroRecord(gamma=float(g)) for g in gammas)
    return ZeroList(chi_id=(chi.modulus, chi.label), records=records,
                    height=float(T_max), provenance="computed")


def find_zeros_merged(chi: DirichletCharacter, T_max: float) -> ZeroList:
    """Full spectrum 0 < |gamma| <= T_max of a complex primitive chi, with
    lower-half-plane ordinates folded to |gamma| and the list flagged
    symmetric=false (each record enters the zero sum once, no factor 2).

    The two half planes are scanned separately; the combined count is
    checked against twice the smooth main term.  Coinciding ordinates from
    the two sides (none are expected) would be merged with alpha = 2.
    """
    if chi.is_principal:
        raise PrincipalCharacter("principal character not supported")
    if not chi.is_primitive:
        raise NotPrimitive("zero scanning requires a primitive character")
    if T_max < 1:
        raise ValueError("need T_max >= 1")
    tol = completeness_tolerance(T_max)
    up, _ = fastzeros.find_zeros_fast(
        chi, T_max, lambda T: n_formula(T, chi), tol, side=1)
    down, _ = fastzeros.find_zeros_fast(
        chi, T_max, lambda T: n_formula(T, chi), tol, side=-1)
    merged = np.sort(np.concatenate([up, down]))
    records = []
    for g in merged:
        if records and g - records[-1].gamma < 1e-9:
            records[-1] = ZeroRecord(gamma=records[-1].gamma,
                                     alpha=records[-1].alpha + 1)
        else:
            records.append(ZeroRecord(gamma=float(g)))
    return ZeroList(chi_id=(chi.modulus, chi.label), records=tuple(records),
                    height=float(T_max), provenance="computed", symmetric=False)


# ----------------------------------------------------------------------------
# zero file I/O
#
# Plain UTF-8 text: header lines `# q=<int> label=<int> height=<decimal>`
# (plus optional `# provenance=...` / `# symmetric=...`), then one record per
# line `<gamma> [alpha]`, ascending.  The writer emits 12 significant digits.

def write_zeros(path, zeros: ZeroList) -> None:
    q, label = zeros.chi_id
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# q={q} label={label} height={zeros.height:.12g}\n")
        fh.write(f"# provenance={zeros.provenance}\n")
        if not zeros.symmetric:
            fh.write("# symmetric=false\n")
        for r in zeros.records:
            if r.alpha == 1:
                fh.write(f"{r.gamma:.12g}\n")
            else:
                fh.write(f"{r.gamma:.12g} {r.alpha}\n")


def read_zeros(path, chi_id: tuple[int, int] | None = None,
               accuracy: float = 1e-9) -> ZeroList:
    """Parse a zero file; `chi_id` (q, label) is checked when given."""
    header: dict[str, str] = {}
    header_line: dict[str, int] = {}
    records = []
    last_gamma = -math.inf
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        header[k], header_line[k] = v, lineno
                continue
            parts = line.split()
            try:
                gamma = float(parts[0])
                alpha = int(parts[1]) if len(parts) > 1 else 1
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad record {line!r}: {exc}", lineno) from None
            if len(parts) > 2:
                raise ParseError(f"too many fields in {line!r}", lineno)
            if not math.isfinite(gamma):
                raise ParseError(f"ordinate must be finite, got {gamma}", lineno)
            if alpha < 1:
                raise ParseError(f"multiplicity must be >= 1, got {alpha}", lineno)
            if gamma <= last_gamma:
                raise ParseError(
                    f"ordinates must be strictly ascending ({gamma} after {last_gamma})",
                    lineno)
            if gamma <= 0:
                raise ParseError(f"gamma must be positive, got {gamma}", lineno)
            last_gamma = gamma
            records.append(ZeroRecord(gamma=gamma, alpha=alpha, accuracy=accuracy))

    def field(key, kind):
        if key not in header:
            raise ParseError(f"missing header field {key}")
        try:
            return kind(header[key])
        except ValueError:
            raise ParseError(f"bad header field {key}={header[key]!r}",
                             header_line[key]) from None

    q, label, height = field("q", int), field("label", int), field("height", float)
    if not (math.isfinite(height) and height > 0):
        raise ParseError(f"height must be finite and positive, got {height}",
                         header_line["height"])
    provenance = header.get("provenance", "imported")
    if provenance not in ("computed", "imported"):
        raise ParseError(f"bad provenance {provenance!r}", header_line["provenance"])
    if chi_id is not None and (q, label) != tuple(chi_id):
        raise ModulusMismatch(
            f"file is for character {q}.{label}, expected {chi_id[0]}.{chi_id[1]}")
    return ZeroList(chi_id=(q, label), records=tuple(records),
                    height=height,
                    provenance=provenance,
                    symmetric=header.get("symmetric", "true").lower() != "false")
