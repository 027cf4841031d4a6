"""Dirichlet L-function evaluation, completed xi, zero finding and zero files.

High-precision values go through the Hurwitz-zeta decomposition
L(s, chi) = q^(-s) sum_a chi(a) zeta(s, a/q); zero scanning delegates to the
vectorized double-precision engine in `fastzeros`, which also states the
width of the sign-change bracket around each located ordinate.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import mpmath
import numpy as np

from . import fastzeros
from .characters import DirichletCharacter
from .errors import (CompletenessCheckFailed, ComplexCharacterUnsupported, ModulusMismatch,
                     NotPrimitive, ParseError, PrincipalCharacter)
from .precision import DEFAULT_PRECISION, PrecisionConfig
from .specfun import _w_0, hurwitz_zeta, hurwitz_zeta_minus_pole, log_gamma

# ----------------------------------------------------------------------------
# values

def l_value(s, chi: DirichletCharacter, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpc:
    """L(s, chi) for non-principal chi, any s, via the Hurwitz decomposition."""
    if chi.is_principal:
        raise PrincipalCharacter("L(s, chi_0) has a pole; not supported")
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


def xi_value(s, chi: DirichletCharacter, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpc:
    """Completed xi(s, chi) = (q/pi)^((s+a)/2) Gamma((s+a)/2) L(s, chi)."""
    if chi.is_principal:
        raise PrincipalCharacter("xi requires a non-principal character")
    if not chi.is_primitive:
        raise NotPrimitive("xi requires a primitive character")
    q = chi.modulus
    with prec.workprec(20):
        s = mpmath.mpc(s)
        half = (s + chi.parity_a) / 2
        lg = log_gamma(half, prec)
        return +(mpmath.exp(half * mpmath.log(mpmath.mpf(q) / mpmath.pi) + lg)
                 * l_value(s, chi, prec))


def hardy_z(t, chi: DirichletCharacter, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpf:
    """Z(t) = xi(1/2 + it, chi) for real primitive chi, whose root number is
    exactly 1 (Gauss: tau(chi) = sqrt(q) i^a), so no rotation is needed.

    The imaginary part is asserted below 2^(-working_bits/2); zeros of Z on
    the real line are exactly the critical-line zeros of L.
    """
    if not chi.is_real:
        raise ComplexCharacterUnsupported(
            "the rotation makes the completed function real only for chi = conj(chi)")
    with prec.workprec(20):
        xi = xi_value(mpmath.mpc(0.5, t), chi, prec)
        bound = mpmath.mpf(2) ** (-prec.working_bits // 2) * max(1, abs(xi))
        if abs(mpmath.im(xi)) > bound:
            raise ArithmeticError(f"completed value not real: Im = {mpmath.im(xi)}")
        return +mpmath.re(xi)


def n_formula(T: float, chi_or_q) -> float:
    """Smooth main term of the zero-counting function:
    (1/2pi) T log T + c1 T with c1 = (log q - log(2 pi) - 1)/(2 pi)."""
    q = chi_or_q.modulus if isinstance(chi_or_q, DirichletCharacter) else int(chi_or_q)
    if T < 1:
        raise ValueError("need T >= 1")
    c1 = (math.log(q) - (math.log(2 * math.pi) + 1)) / (2 * math.pi)
    return T * math.log(T) / (2 * math.pi) + c1 * T


def height_for_count(q: int, count: int) -> float:
    """Height T where n_formula(T) = (T/2pi) log(qT/2pi e) reaches `count`:
    T = 2pi count / W_0(q count/e), clamped to n_formula's domain T >= 1."""
    return max(1.0, 2 * math.pi * count / _w_0(q * count / math.e))


# ----------------------------------------------------------------------------
# zero lists

ZERO_DTYPE = np.dtype([("gamma", np.float64), ("alpha", np.int64)])


def _zero_list_fault(gammas, alphas, height=1.0, provenance="computed"):
    """The first broken zero-list rule as (message, where), `where` a record
    index, "height" or "provenance", else None.  Ordinates are finite, positive
    and strictly ascending, multiplicities >= 1, the height is finite and
    positive, the provenance "computed" or "imported"."""
    gammas, alphas = np.asarray(gammas, np.float64), np.asarray(alphas)
    bad = ~np.isfinite(gammas) | (gammas <= 0) | (alphas < 1)
    bad[1:] |= gammas[1:] <= gammas[:-1]
    if bad.any():
        i = int(bad.argmax())
        gamma, alpha = gammas[i], alphas[i]
        return (f"ordinate must be finite, got {gamma}" if not math.isfinite(gamma) else
                f"multiplicity must be >= 1, got {alpha}" if alpha < 1 else
                f"ordinate must be positive, got {gamma}" if gamma <= 0 else
                f"ordinates must be strictly ascending ({gamma} after {gammas[i - 1]})"), i
    if not (math.isfinite(height) and height > 0):
        return f"height must be finite and positive, got {height}", "height"
    if provenance not in ("computed", "imported"):
        return f"bad provenance {provenance!r}", "provenance"


class ZeroRecord(namedtuple("ZeroRecord", "gamma alpha")):
    """One ordinate and its multiplicity, checked on construction; a row of
    `ZeroList.records` has the same two attributes."""
    __slots__ = ()

    def __new__(cls, gamma: float, alpha: int = 1):
        if fault := _zero_list_fault([gamma], [alpha]):
            raise ValueError(fault[0])
        return super().__new__(cls, gamma, alpha)


@dataclass(frozen=True, eq=False)
class ZeroList:
    chi_id: tuple[int, int]  # (q, label)
    # one read-only record array of ZERO_DTYPE; built from a structured array
    # or from any sequence of (gamma, alpha) pairs such as ZeroRecord
    records: np.recarray
    height: float
    provenance: str  # "computed" | "imported"
    symmetric: bool = True  # conjugate-symmetric zeros (gamma > 0 listed once)

    def __post_init__(self):
        # a structured array is copied whole; fromiter also takes named tuples
        records = (self.records.astype(ZERO_DTYPE)
                   if isinstance(self.records, np.ndarray) and self.records.dtype.names
                   else np.fromiter(self.records, ZERO_DTYPE)).view(np.recarray)
        records.flags.writeable = False
        object.__setattr__(self, "records", records)
        if fault := _zero_list_fault(records.gamma, records.alpha, self.height, self.provenance):
            raise ValueError(fault[0])

    def __len__(self):
        return len(self.records)

    def gammas(self) -> np.ndarray:
        return self.records.gamma

    def alphas(self) -> np.ndarray:
        return self.records.alpha

    def count_below(self, T: float) -> int:
        return int(self.alphas()[self.gammas() <= T].sum())


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
    until it is no wider than 1e-11, or than two float64 spacings above
    t = 2^15.  `_scan` checks the count against the smooth counting formula
    within +-(2 + log T_max), and retries once on a 4x finer grid.

    For a complex character the zero set is not conjugate-symmetric and this
    one-sided list captures only the upper half plane; the returned list is
    nevertheless flagged symmetric (factor 2 applies in the zero sum), which
    reproduces the published-table convention for complex characters.  Use
    find_zeros_merged for the convention-free full spectrum.
    """
    return _scan(chi, T_max, (1,))


def find_zeros_merged(chi: DirichletCharacter, T_max: float) -> ZeroList:
    """Full spectrum 0 < |gamma| <= T_max of a complex primitive chi, with
    lower-half-plane ordinates folded to |gamma| and the list flagged
    symmetric=false (each record enters the zero sum once, no factor 2).

    The two half planes are scanned separately, and each one's count is
    checked against the smooth main term on its own.  Coinciding ordinates
    from the two sides (none are expected) are merged with alpha = 2.
    """
    return _scan(chi, T_max, (1, -1))


def _scan(chi: DirichletCharacter, T_max: float, sides) -> ZeroList:
    """Scan each half plane (side 1 upper, -1 lower, folded to |gamma|); if its
    count misses n_formula by more than completeness_tolerance, scan it once more
    on a 4x finer grid, and raise CompletenessCheckFailed if that misses too.
    Ordinates within 1e-9 of a neighbour merge into one record, alpha the group size."""
    if chi.is_principal:
        raise PrincipalCharacter("principal character not supported")
    if not chi.is_primitive:
        raise NotPrimitive("zero scanning requires a primitive character")
    if T_max < 1:
        raise ValueError("need T_max >= 1")
    expected, tol = n_formula(T_max, chi), completeness_tolerance(T_max)
    found = []
    for side in sides:
        for refine in (1, 4):
            gammas = fastzeros.scan_zeros(chi, T_max, refine_factor=refine, side=side)
            if abs(len(gammas) - expected) <= tol:
                break
        else:
            raise CompletenessCheckFailed(
                f"found {len(gammas)} zeros up to T={T_max} but the counting formula "
                f"predicts {expected:.2f} (tolerance {tol:.2f})")
        found.append(gammas)
    gammas = np.sort(np.concatenate(found))
    first = np.diff(gammas, prepend=-np.inf) >= 1e-9
    alphas = np.diff(np.append(np.flatnonzero(first), len(gammas)))
    return ZeroList(chi_id=(chi.modulus, chi.label),
                    records=np.rec.fromarrays([gammas[first], alphas], dtype=ZERO_DTYPE),
                    height=float(T_max), provenance="computed",
                    symmetric=len(sides) == 1)


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
        for gamma, alpha in zip(zeros.gammas().tolist(), zeros.alphas().tolist()):
            fh.write(f"{gamma:.12g}\n" if alpha == 1 else f"{gamma:.12g} {alpha}\n")


def read_zeros(path, chi_id: tuple[int, int] | None = None) -> ZeroList:
    r"""Parse a zero file; `chi_id` (q, label) is checked when given.

    The whole file is parsed before any rule is checked, and the first
    record line in the file that does not parse is the one reported.  Lines
    end at "\n", "\r\n" or "\r"; \f, \v and \x85 only separate fields.  Files
    other than a header block then bare ordinates are read line by line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    start, stop = 0, len(lines)
    while start < stop and lines[start].lstrip()[:1] in ("", "#"):  # leading header, blank
        start += 1
    while stop > start and not lines[stop - 1].strip():  # trailing blank
        stop -= 1
    try:  # one pass; a line float accepts is, stripped, a record of the same value
        gammas, alphas = np.fromiter(map(float, lines[start:stop]), np.float64, stop - start), 1
        skip, record_idx = range(start), range(start, stop)
    except ValueError:  # any other layout or a fault: parse line by line
        lines = list(map(str.strip, lines))
        skip = [i for i, line in enumerate(lines) if not line or line[0] == "#"]  # blank, header
        record_idx = np.delete(np.arange(len(lines)), skip).tolist()  # every other line
        gammas, alphas = [], []
        for i in record_idx:
            parts = lines[i].split()
            try:
                gammas.append(float(parts[0]))
                alphas.append(int(parts[1]) if len(parts) > 1 else 1)
            except ValueError as exc:
                raise ParseError(f"bad record {lines[i]!r}: {exc}", i + 1) from None
            if len(parts) > 2:
                raise ParseError(f"too many fields in {lines[i]!r}", i + 1)
    header: dict[str, str] = {}
    header_line: dict[str, int] = {}
    for i in skip:
        for tok in lines[i].strip()[1:].split():
            if "=" in tok:
                k, v = tok.split("=", 1)
                header[k], header_line[k] = v, i + 1

    def field(key, kind):
        if key not in header:
            raise ParseError(f"missing header field {key}")
        try:
            return kind(header[key])
        except ValueError:
            raise ParseError(f"bad header field {key}={header[key]!r}",
                             header_line[key]) from None

    q, label, height = field("q", int), field("label", int), field("height", float)
    provenance = header.get("provenance", "imported")
    symmetric = header.get("symmetric", "true").lower()
    if symmetric not in ("true", "false"):
        raise ParseError(f"bad symmetric={header['symmetric']!r}: need true or false",
                         header_line["symmetric"])
    if chi_id is not None and (q, label) != tuple(chi_id):
        raise ModulusMismatch(
            f"file is for character {q}.{label}, expected {chi_id[0]}.{chi_id[1]}")
    records = np.empty(len(gammas), ZERO_DTYPE)
    records["gamma"], records["alpha"] = gammas, alphas
    try:
        return ZeroList(chi_id=(q, label), records=records, height=height,
                        provenance=provenance, symmetric=symmetric == "true")
    except ValueError:
        message, where = _zero_list_fault(records["gamma"], records["alpha"], height, provenance)
        raise ParseError(message, header_line[where] if isinstance(where, str)
                         else record_idx[where] + 1) from None
