"""Character group: enumeration, multiplicativity, orthogonality, Gauss sums."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_li.characters import (character_by_label, enumerate_characters,
                                     gauss_sum, is_fundamental_discriminant,
                                     kronecker_symbol, primitive_root,
                                     real_primitive_character)
from dirichlet_li.errors import (InvalidModulus, LabelOutOfRange,
                                 NoRealPrimitiveCharacter, NotPrimitive)
from dirichlet_li.precision import PrecisionConfig


def euler_phi(q):
    return sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1)


@pytest.mark.parametrize("q,count", [(3, 2), (4, 2), (5, 4), (8, 4), (12, 4),
                                     (15, 8), (16, 8)])
def test_enumeration_counts(q, count):
    chars = enumerate_characters(q)
    assert len(chars) == count == euler_phi(q)
    # labels are 0..count-1 and the principal character is label 0
    assert [c.label for c in chars] == list(range(count))
    assert chars[0].is_principal


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([3, 5, 8, 12, 15, 21]),
       j=st.integers(min_value=0, max_value=500),
       k=st.integers(min_value=0, max_value=500))
def test_exact_multiplicativity(q, j, k):
    for chi in enumerate_characters(q):
        ej = chi.exponents[j % q]
        ek = chi.exponents[k % q]
        ejk = chi.exponents[(j * k) % q]
        if ej is None or ek is None:
            assert ejk is None
        else:
            assert ejk == (ej + ek) % chi.order


@pytest.mark.parametrize("q", [3, 5, 8, 12])
def test_orthogonality(q):
    # sum_k chi(k) over a period is 0 for non-principal chi, phi(q) otherwise
    for chi in enumerate_characters(q):
        s = sum(chi(k) for k in range(q))
        if chi.is_principal:
            assert s == pytest.approx(euler_phi(q), abs=1e-12)
        else:
            assert abs(s) < 1e-12


def test_conductor_and_primitivity():
    # mod 9: principal has conductor 1; the cubic characters are primitive,
    # and the lift of the quadratic... there is none (phi(9)=6, cyclic).
    chars = enumerate_characters(9)
    assert chars[0].conductor == 1 and not chars[0].is_primitive
    conductors = sorted(c.conductor for c in chars)
    assert conductors == [1, 3, 9, 9, 9, 9]
    # mod 12: the two non-principal non-primitive lifts have conductor 3, 4
    chars12 = enumerate_characters(12)
    assert sorted(c.conductor for c in chars12) == [1, 3, 4, 12]


def test_real_primitive_character_examples():
    chi3 = real_primitive_character(3)
    assert chi3.modulus == 3 and chi3.is_real and chi3.is_primitive
    assert chi3.parity_a == 1  # odd: chi(-1) = -1
    assert chi3.real_value(2) == -1

    chi5 = real_primitive_character(5)
    assert chi5.parity_a == 0  # 5 = 1 mod 4, even character
    assert chi5.real_value(2) == -1 and chi5.real_value(4) == 1

    with pytest.raises(NoRealPrimitiveCharacter):
        real_primitive_character(6)  # 6 is not |fundamental discriminant|
    with pytest.raises(NoRealPrimitiveCharacter):
        real_primitive_character(1)


def test_real_primitive_character_q8_prefers_even():
    chi8 = real_primitive_character(8)
    assert chi8.is_even  # +8 discriminant chosen over -8


def test_kronecker_vs_quadratic_residues():
    # for odd prime p, (p*/k) with p* = (-1)^((p-1)/2) p matches Legendre
    for p in (3, 5, 7, 11, 13, 97):
        d = p if p % 4 == 1 else -p
        for k in range(1, p):
            legendre = 1 if pow(k, (p - 1) // 2, p) == 1 else -1
            assert kronecker_symbol(d, k) == legendre
        assert kronecker_symbol(d, p) == 0


def test_fundamental_discriminants():
    fundamentals = [d for d in range(-30, 31) if is_fundamental_discriminant(d)]
    assert fundamentals == [-24, -23, -20, -19, -15, -11, -8, -7, -4, -3,
                            5, 8, 12, 13, 17, 21, 24, 28, 29]


def test_gauss_sum_mod3():
    chi = real_primitive_character(3)
    gs = gauss_sum(chi)
    with mpmath.workprec(110):
        # tau(chi_{-3}) = i sqrt(3), omega = 1
        assert abs(gs.tau - mpmath.mpc(0, 1) * mpmath.sqrt(3)) < 1e-25
        assert abs(gs.root_number_omega - 1) < 1e-25


def test_gauss_sum_mod4():
    chi = real_primitive_character(4)
    gs = gauss_sum(chi)
    with mpmath.workprec(110):
        assert abs(gs.tau - mpmath.mpc(0, 2)) < 1e-25
        assert abs(gs.root_number_omega - 1) < 1e-25


def test_gauss_sum_modulus_mod5():
    for chi in enumerate_characters(5):
        if not chi.is_primitive:
            continue
        gs = gauss_sum(chi)
        with mpmath.workprec(110):
            assert abs(abs(gs.tau) ** 2 - 5) < 1e-25
            assert abs(abs(gs.root_number_omega) - 1) < 1e-25


def test_root_number_of_real_primitive_character_is_one():
    # Gauss: tau(chi) = sqrt(q) i^a for real primitive chi, so omega = 1 and
    # hardy_z needs no rotation
    for q in range(3, 301):
        for chi in enumerate_characters(q):
            if chi.is_real and chi.is_primitive:
                omega = gauss_sum(chi).root_number_omega
                with mpmath.workprec(110):
                    assert abs(omega - 1) < 1e-25, (q, chi.label)


def test_gauss_sum_rejects_imprimitive():
    chi0 = enumerate_characters(9)[0]
    with pytest.raises(NotPrimitive):
        gauss_sum(chi0)


def test_character_by_label_bounds():
    assert character_by_label(5, 1).label == 1
    with pytest.raises(ValueError):
        character_by_label(5, 4)


def test_values_are_roots_of_unity():
    for chi in enumerate_characters(7):
        for k in range(1, 7):
            v = chi(k)
            assert abs(abs(v) - 1) < 1e-12
            assert abs(v ** chi.order - 1) < 1e-10


def test_real_primitive_character_matches_enumeration():
    # the O(q) construction against the whole-group search it replaces
    for q in range(2, 301):
        candidates = [d for d in (q, -q) if is_fundamental_discriminant(d)]
        if not candidates:
            continue
        values = [kronecker_symbol(candidates[0], k) for k in range(q)]
        oracle = [chi for chi in enumerate_characters(q)
                  if chi.is_real and chi.is_primitive
                  and all(chi.real_value(k) == values[k] for k in range(q))]
        assert oracle and real_primitive_character(q) == oracle[0], q


def test_character_by_label_matches_enumeration():
    # the one-character construction against the enumeration order
    for q in range(1, 121):
        chars = enumerate_characters(q)
        for label, chi in enumerate(chars):
            assert character_by_label(q, label) == chi, (q, label)
        with pytest.raises(LabelOutOfRange):
            character_by_label(q, len(chars))
    with pytest.raises(LabelOutOfRange):
        character_by_label(5, -1)
    with pytest.raises(InvalidModulus):
        character_by_label(0, 0)


def test_table_matches_call_and_big_float_value():
    prec = PrecisionConfig(working_bits=128)
    for q in range(1, 61):
        for chi in enumerate_characters(q):
            for k in range(q):
                assert chi.table[k] == chi(k), (q, chi.label, k)
                assert abs(chi.table[k] - complex(chi.value(k, prec))) <= 1e-15


def test_table_exact_values():
    for q in range(1, 61):
        for chi in enumerate_characters(q):
            if chi.is_real:
                assert chi.table.dtype == np.float64
                assert set(chi.table.tolist()) <= {-1.0, 0.0, 1.0}
            else:
                assert chi.table.dtype == np.complex128
    chi = character_by_label(5, 1)
    assert chi.table[2] == 1j and chi.table[3] == -1j and chi.table[4] == -1


def test_table_is_read_only():
    chi = character_by_label(5, 1)
    with pytest.raises(ValueError):
        chi.table[1] = 2


def test_conductor_matches_definition():
    # the least f | q such that chi(k) = 1 for every unit k = 1 mod f
    for q in range(1, 201):
        units = [k for k in range(q) if math.gcd(k, q) == 1]
        for chi in enumerate_characters(q):
            f = next(f for f in range(1, q + 1) if q % f == 0
                     and all(chi.exponents[k] == 0 for k in units if k % f == 1 % f))
            assert chi.conductor == f, (q, chi.label)


def test_primitive_root_generates():
    for p in range(3, 500, 2):
        if any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
            continue
        least = next(g for g in range(2, p)
                     if len({pow(g, j, p) for j in range(p - 1)}) == p - 1)
        # the primes dividing phi(p^e) = p^(e-1) (p - 1)
        primes = {p} | {f for f in range(2, p) if (p - 1) % f == 0
                        and all(f % d for d in range(2, f))}
        for e in (1, 2, 3):
            pe, g = p ** e, primitive_root(p, e)
            phi = pe - pe // p
            # the multiplicative order of g: strip every prime it allows
            order = phi
            for f in primes:
                while order % f == 0 and pow(g, order // f, pe) == 1:
                    order //= f
            assert order == phi, (p, e)
            assert g % p == least, (p, e)


def test_primitive_root_lifts_when_the_least_root_fails_mod_p_squared():
    # 5 is the least primitive root mod p = 40487, but 5^(p-1) = 1 mod p^2,
    # so 5 does not generate mod p^2 and g + p is taken instead
    p = 40487
    assert primitive_root(p, 1) == 5 and pow(5, p - 1, p * p) == 1
    g = primitive_root(p, 2)
    assert g == 40492
    phi = p * (p - 1)
    # the primes dividing phi(p^2) = p (p - 1)
    primes = {p} | {f for f in range(2, p) if (p - 1) % f == 0
                    and all(f % d for d in range(2, math.isqrt(f) + 1))}
    assert primes == {2, 31, 653, p}
    assert all(pow(g, phi // f, p * p) != 1 for f in primes)
    assert any(pow(5, phi // f, p * p) == 1 for f in primes)


def test_real_character_big_float_values_are_exact():
    for q in range(1, 301):
        for chi in enumerate_characters(q):
            if chi.is_real:
                for k in range(q):
                    assert chi.value(k) == chi.real_value(k), (q, chi.label, k)
