"""Dirichlet characters mod q: construction, enumeration, Gauss sums.

Character values are stored exactly as exponents e with
chi(k) = exp(2*pi*i*e/order), so multiplicativity and orthogonality hold
exactly; conversion to big-float complex happens only at evaluation sites.

The character group is built by CRT over the prime-power factors of q, with
a primitive root generating each odd prime-power component and the
<-1, 5> presentation for powers of two.  Characters are labeled by the
lexicographic index of their exponent vector on those generators, so the
principal character always has label 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .errors import (InvalidModulus, LabelOutOfRange, NoRealPrimitiveCharacter,
                     NotPrimitive)
from .precision import PrecisionConfig, default_precision


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


def _primitive_root_mod_p(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    phi = p - 1
    prime_divs = [f for f, _ in factorize(phi)]
    g = 2
    while True:
        if all(pow(g, phi // f, p) != 1 for f in prime_divs):
            return g
        g += 1


def primitive_root(p: int, e: int) -> int:
    """Primitive root mod p^e for odd prime p."""
    g = _primitive_root_mod_p(p)
    if e == 1:
        return g
    # g lifts to p^e iff g^(p-1) != 1 mod p^2; otherwise g+p does.
    if pow(g, p - 1, p * p) == 1:
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

@lru_cache(maxsize=None)
def _group_structure(q: int):
    """Generators and discrete-log tables for (Z/qZ)*.

    Returns (gen_orders, dlog) where dlog[k] is the exponent vector of the
    unit k on the generators (None for non-units), and gen_orders lists the
    generator orders in a fixed deterministic order.
    """
    comps = factorize(q)
    gen_orders: list[int] = []
    # per-component dlog tables: residue mod p^e -> tuple of exponents
    comp_tables = []
    comp_mods = []
    for p, e in comps:
        pe = p ** e
        if p == 2:
            if e == 1:
                comp_tables.append({1: ()})
                comp_orders = []
            elif e == 2:
                comp_tables.append({1: (0,), 3: (1,)})
                comp_orders = [2]
            else:
                half = pe // 4  # order of 5 mod 2^e
                table = {}
                v = 1
                for j in range(half):
                    table[v] = (0, j)
                    table[(pe - v) % pe] = (1, j)
                    v = (v * 5) % pe
                comp_tables.append(table)
                comp_orders = [2, half]
        else:
            g = primitive_root(p, e)
            phi = pe - p ** (e - 1)
            table = {}
            v = 1
            for j in range(phi):
                table[v] = (j,)
                v = (v * g) % pe
            comp_tables.append(table)
            comp_orders = [phi]
        comp_mods.append(pe)
        gen_orders.extend(comp_orders)
    dlog: list[tuple[int, ...] | None] = [None] * q
    for k in range(q):
        if math.gcd(k, q) != 1:
            continue
        vec: list[int] = []
        for pe, table in zip(comp_mods, comp_tables):
            vec.extend(table[k % pe])
        dlog[k] = tuple(vec)
    return tuple(gen_orders), tuple(dlog)


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

    @property
    def is_principal(self) -> bool:
        return all(e is None or e == 0 for e in self.exponents)

    @property
    def is_real(self) -> bool:
        half = self.order // 2
        return all(e is None or e == 0 or (self.order % 2 == 0 and e == half)
                   for e in self.exponents)

    @property
    def is_even(self) -> bool:
        return self.parity_a == 0

    def real_value(self, k: int) -> int:
        """chi(k) as an integer in {-1, 0, 1}; requires a real character."""
        if not self.is_real:
            raise ValueError("character is not real")
        e = self.exponents[k % self.modulus]
        if e is None:
            return 0
        return 1 if e == 0 else -1

    def value(self, k: int, prec: PrecisionConfig | None = None) -> mpmath.mpc:
        """chi(k) as a big-float complex at the configured precision."""
        e = self.exponents[k % self.modulus]
        if e is None:
            return mpmath.mpc(0)
        prec = prec or default_precision()
        with prec.workprec():
            if e == 0:
                return mpmath.mpc(1)
            if 2 * e == self.order:
                return mpmath.mpc(-1)
            return mpmath.expjpi(mpmath.mpf(2 * e) / self.order)

    def __call__(self, k: int) -> complex:
        e = self.exponents[k % self.modulus]
        if e is None:
            return 0j
        return complex(mpmath.expjpi(2.0 * e / self.order))

    def __repr__(self):
        kind = "principal" if self.is_principal else ("real" if self.is_real else "complex")
        return (f"DirichletCharacter(q={self.modulus}, label={self.label}, "
                f"conductor={self.conductor}, a={self.parity_a}, {kind})")


def _conductor(q: int, exponents) -> int:
    """Smallest f | q with chi trivial on units congruent to 1 mod f."""
    divisors = sorted(d for d in range(1, q + 1) if q % d == 0)
    for f in divisors:
        ok = True
        for k in range(1, q):
            if k % f == 1 % f and math.gcd(k, q) == 1 and exponents[k] != 0:
                ok = False
                break
        if ok:
            return f
    return q  # unreachable: f = q always works


def _build_character(q: int, gen_orders, dlog, exp_vec, label) -> DirichletCharacter:
    order = 1
    for s in gen_orders:
        order = order * s // math.gcd(order, s)
    exponents: list[int | None] = [None] * q
    for k in range(q):
        vec = dlog[k]
        if vec is None:
            continue
        e = 0
        for c, t, s in zip(exp_vec, vec, gen_orders):
            e = (e + c * t * (order // s)) % order
        exponents[k] = e
    if q <= 2:
        parity_a = 0
    else:
        parity_a = 0 if exponents[q - 1] == 0 else 1
    exponents_t = tuple(exponents)
    cond = _conductor(q, exponents_t)
    return DirichletCharacter(modulus=q, order=order, exponents=exponents_t,
                              parity_a=parity_a, conductor=cond, label=label)


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first.

    Ordering is deterministic: lexicographic in the exponent vector on the
    CRT generators, which also defines the label.
    """
    if q < 1:
        raise InvalidModulus("modulus must be a positive integer")
    gen_orders, dlog = _group_structure(q)
    chars = []
    label = 0
    # lexicographic product over exponent ranges
    vecs = [()]
    for s in gen_orders:
        vecs = [v + (c,) for v in vecs for c in range(s)]
    for vec in vecs:
        chars.append(_build_character(q, gen_orders, dlog, vec, label))
        label += 1
    return chars


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
    vec, rest = [], label
    for s in reversed(gen_orders):
        rest, c = divmod(rest, s)
        vec.insert(0, c)
    return _build_character(q, gen_orders, dlog, tuple(vec), label)


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
    for i, s in enumerate(gen_orders):
        unit = tuple(int(j == i) for j in range(len(gen_orders)))
        label = label * s + (0 if kronecker_symbol(d, dlog.index(unit)) == 1 else s // 2)
    return character_by_label(q, label)


@dataclass(frozen=True)
class GaussSumValue:
    tau: mpmath.mpc
    root_number_omega: mpmath.mpc


def gauss_sum(chi: DirichletCharacter, prec: PrecisionConfig | None = None) -> GaussSumValue:
    """tau(chi) = sum_m chi(m) e^(2 pi i m / q) by direct summation, plus the
    root number omega = tau / (sqrt(q) i^a).  Requires a primitive character
    (|tau| = sqrt(q) fails otherwise, silently breaking omega)."""
    if not chi.is_primitive:
        raise NotPrimitive(f"gauss_sum needs a primitive character, got conductor "
                           f"{chi.conductor} != modulus {chi.modulus}")
    prec = prec or default_precision()
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
