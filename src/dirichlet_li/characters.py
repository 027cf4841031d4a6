"""Dirichlet characters mod q: construction, enumeration, Gauss sums.

Character values are stored exactly as exponents e with
chi(k) = exp(2*pi*i*e/order), so multiplicativity and orthogonality hold
exactly.  Each character has one float value table, `table`, which chi(k),
the arithmetic kernel and the zero finder read; `value` is the big-float
evaluator.

The character group is built by CRT over the prime-power factors of q, with
a primitive root generating each odd prime-power component and the
<-1, 5> presentation for powers of two; its discrete logs are one integer
array.  Characters are labeled by the
lexicographic index of their exponent vector on those generators, so the
principal character always has label 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import mpmath
import numpy as np

from .errors import (InvalidModulus, LabelOutOfRange, NoRealPrimitiveCharacter,
                     NotPrimitive)
from .precision import DEFAULT_PRECISION, PrecisionConfig


# ----------------------------------------------------------------------------
# elementary number theory helpers

def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as [(p, e), ...] with p ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def primitive_root(p: int, e: int) -> int:
    """Primitive root mod p^e for odd prime p, from the smallest one mod p."""
    prime_divs = [f for f, _ in factorize(p - 1)]
    g = 2
    while any(pow(g, (p - 1) // f, p) == 1 for f in prime_divs):
        g += 1
    # g lifts to p^e iff g^(p-1) != 1 mod p^2; otherwise g+p does.
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


def is_fundamental_discriminant(d: int) -> bool:
    """Whether d indexes a quadratic field (d != 1 convention: 1 excluded)."""
    if d == 1 or d == 0:
        return False
    if d % 4 == 1:
        return is_squarefree(abs(d))
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(abs(m))
    return False


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 0, by the standard reciprocity loop."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    # strip twos from n; (d/2) factor
    t = 1
    while n % 2 == 0:
        n //= 2
        if d % 8 in (3, 5):
            t = -t
    a = d % n
    # Jacobi symbol (a/n), n odd positive
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


# ----------------------------------------------------------------------------
# character group structure

def _component_generators(p: int, e: int) -> list[tuple[int, int]]:
    """(generator, order) pairs whose powers multiply out to (Z/p^e Z)*: one
    primitive root for odd p, <-1, 5> for 2^e with e >= 3, <-1> for 4."""
    pe = p ** e
    if p != 2:
        return [(primitive_root(p, e), pe - pe // p)]
    return [(pe - 1, 2), (5, pe // 4)][:min(e - 1, 2)]


@lru_cache(maxsize=None)
def _group_structure(q: int):
    """Generators and discrete logs for (Z/qZ)*.

    Returns (gen_orders, dlog): gen_orders lists the generator orders in a
    fixed deterministic order, and dlog is a read-only (q, r) int64 array
    whose row k is the exponent vector of the unit k on the r generators
    (-1 throughout for a non-unit).  Each CRT component p^e gets its table by
    indexing the products of its generators' powers, and the components are
    read off at k mod p^e.
    """
    k = np.arange(q)
    gen_orders: list[int] = []
    cols = [np.zeros((q, 0), dtype=np.int64)]
    for p, e in factorize(q):
        pe = p ** e
        gens = _component_generators(p, e)
        orders = [s for _, s in gens]
        elems = np.ones(1, dtype=np.int64)
        for g, s in gens:
            pows = [1]
            for _ in range(s - 1):
                pows.append(pows[-1] * g % pe)
            elems = (elems[:, None] * np.array(pows, dtype=np.int64) % pe).ravel()
        table = np.full((pe, len(gens)), -1, dtype=np.int64)
        table[elems] = np.indices(orders).reshape(len(gens), elems.size).T
        cols.append(table[k % pe])
        gen_orders.extend(orders)
    dlog = np.hstack(cols)
    dlog[np.gcd(k, q) != 1] = -1
    dlog.flags.writeable = False
    return tuple(gen_orders), dlog


@lru_cache(maxsize=None)
def _root_of_unity(e: int, order: int, prec: PrecisionConfig) -> mpmath.mpc:
    """exp(2 pi i e / order) at `prec`, shared by every character of that order."""
    with prec.workprec():
        return mpmath.expjpi(mpmath.mpf(2 * e) / order)


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q with exact root-of-unity values.

    `exponents[k]` is e such that chi(k) = exp(2*pi*i*e/order), or None when
    gcd(k, q) > 1.
    """

    modulus: int
    order: int
    exponents: tuple[int | None, ...]
    parity_a: int
    conductor: int
    label: int

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    @cached_property
    def _e(self) -> np.ndarray:
        """The exponents as an int64 array, -1 at non-units."""
        return np.array([-1 if e is None else e for e in self.exponents], dtype=np.int64)

    @cached_property
    def is_principal(self) -> bool:
        return bool(np.all(self._e <= 0))

    @cached_property
    def is_real(self) -> bool:
        e = self._e
        return bool(np.all((e <= 0) | (2 * e == self.order)))

    @cached_property
    def table(self) -> np.ndarray:
        """chi(k) for k = 0..q-1, read-only: exactly 0 and +-1 in float64 for a
        real character, else complex128 with one mpmath root of unity per
        exponent value, so quarter turns are exactly +-1 and +-i."""
        e = self._e
        if self.is_real:
            table = np.where(e == 0, 1.0, -1.0)
        else:
            vals, idx = np.unique(e, return_inverse=True)
            table = np.array([complex(mpmath.expjpi(2.0 * v / self.order))
                              for v in vals.tolist()])[idx]
        table[e < 0] = 0
        table.flags.writeable = False
        return table

    @property
    def is_even(self) -> bool:
        return self.parity_a == 0

    def real_value(self, k: int) -> int:
        """chi(k) as an integer in {-1, 0, 1}; requires a real character."""
        if not self.is_real:
            raise ValueError("character is not real")
        return int(self.table[k % self.modulus])

    def value(self, k: int, prec: PrecisionConfig = DEFAULT_PRECISION) -> mpmath.mpc:
        """chi(k) as a big-float complex at the configured precision."""
        e = self.exponents[k % self.modulus]
        if e is None:
            return mpmath.mpc(0)
        return _root_of_unity(e, self.order, prec)

    def __call__(self, k: int) -> complex:
        return complex(self.table[k % self.modulus])

    def __repr__(self):
        kind = "principal" if self.is_principal else ("real" if self.is_real else "complex")
        return (f"DirichletCharacter(q={self.modulus}, label={self.label}, "
                f"conductor={self.conductor}, a={self.parity_a}, {kind})")


def _build_character(q: int, gen_orders, dlog, exp_vec, label) -> DirichletCharacter:
    order = math.lcm(*gen_orders)
    # only q = 1 and 2 have no generators, and their one unit is q - 1
    units = dlog[:, 0] >= 0 if gen_orders else np.arange(q) == q - 1
    e = dlog @ np.array([c * (order // s) for c, s in zip(exp_vec, gen_orders)],
                        dtype=np.int64) % order
    parity_a = 0 if q <= 2 else int(e[q - 1] != 0)
    # the conductor: the least f | q with chi trivial on the units = 1 mod f
    nontrivial = units & (e != 0)
    divisors = np.flatnonzero(q % np.arange(1, q + 1) == 0) + 1
    cond = next(int(f) for f in divisors if not nontrivial[1 % f::f].any())
    return DirichletCharacter(modulus=q, order=order,
                              exponents=tuple(np.where(units, e, None).tolist()),
                              parity_a=parity_a, conductor=cond, label=label)


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first.

    Ordering is deterministic: lexicographic in the exponent vector on the
    CRT generators, which also defines the label.
    """
    if q < 1:
        raise InvalidModulus("modulus must be a positive integer")
    count = math.prod(_group_structure(q)[0])
    return [character_by_label(q, label) for label in range(count)]


def character_by_label(q: int, label: int) -> DirichletCharacter:
    """The character with the given label, built alone: the label is the
    mixed-radix number of the exponent vector, first generator most
    significant (the enumeration order)."""
    if q < 1:
        raise InvalidModulus("modulus must be a positive integer")
    gen_orders, dlog = _group_structure(q)
    count = math.prod(gen_orders)
    if not 0 <= label < count:
        raise LabelOutOfRange(f"label {label} out of range for modulus {q} "
                              f"({count} characters)")
    vec = np.unravel_index(label, gen_orders)
    return _build_character(q, gen_orders, dlog, [int(c) for c in vec], label)


def real_primitive_character(q: int) -> DirichletCharacter:
    """The quadratic character of conductor q (Kronecker symbol of the
    fundamental discriminant d with |d| = q).

    When both +q and -q are fundamental (q = 8, 24, ...), the even character
    (d = +q) is returned.
    """
    if q <= 1:
        raise NoRealPrimitiveCharacter(f"q={q}: need q > 1")
    candidates = [d for d in (q, -q) if is_fundamental_discriminant(d)]
    if not candidates:
        raise NoRealPrimitiveCharacter(
            f"q={q} is not the absolute value of a fundamental discriminant")
    d = candidates[0]
    # The label read off the Kronecker values on the CRT generators: chi = -1
    # on a generator of order s is the exponent s/2 there.
    gen_orders, dlog = _group_structure(q)
    label = 0
    for unit, s in zip(np.eye(len(gen_orders), dtype=np.int64), gen_orders):
        g = int(np.flatnonzero((dlog == unit).all(axis=1))[0])
        label = label * s + (0 if kronecker_symbol(d, g) == 1 else s // 2)
    return character_by_label(q, label)


@dataclass(frozen=True)
class GaussSumValue:
    tau: mpmath.mpc
    root_number_omega: mpmath.mpc


def gauss_sum(chi: DirichletCharacter, prec: PrecisionConfig = DEFAULT_PRECISION) -> GaussSumValue:
    """tau(chi) = sum_m chi(m) e^(2 pi i m / q) by direct summation, plus the
    root number omega = tau / (sqrt(q) i^a).  Requires a primitive character
    (|tau| = sqrt(q) fails otherwise, silently breaking omega)."""
    if not chi.is_primitive:
        raise NotPrimitive(f"gauss_sum needs a primitive character, got conductor "
                           f"{chi.conductor} != modulus {chi.modulus}")
    q = chi.modulus
    with prec.workprec():
        tau = mpmath.mpc(0)
        for m in range(1, q + 1):
            e = chi.exponents[m % q]
            if e is None:
                continue
            # chi(m) e^(2 pi i m/q) as a single root of unity: exact phase sum
            phase = mpmath.mpf(2 * e) / chi.order + mpmath.mpf(2 * m) / q
            tau += mpmath.expjpi(phase)
        omega = tau / (mpmath.sqrt(q) * mpmath.mpc(0, 1) ** chi.parity_a)
        return GaussSumValue(tau=tau, root_number_omega=omega)
