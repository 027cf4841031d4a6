"""Segmented sieve of prime powers against a brute-force list."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_li import primes
from dirichlet_li.primes import prime_power_segments, prime_powers


@lru_cache(maxsize=None)
def brute_prime_powers(limit):
    """(k, log p) for every prime power k = p^m <= limit, by trial division."""
    ks, logs = [], []
    for k in range(2, limit + 1):
        p = next(d for d in range(2, k + 1) if k % d == 0)
        m = k
        while m % p == 0:
            m //= p
        if m == 1:
            ks.append(k)
            logs.append(math.log(p))
    return np.array(ks, dtype=np.int64), np.array(logs)


LIMITS = (2, 3, 4, 8, 9, 10 ** 3, 10 ** 4 + 7)


@pytest.mark.parametrize("segment", [7, 64, primes.SEGMENT])
@pytest.mark.parametrize("limit", LIMITS)
def test_segments_concatenate_to_brute_force(monkeypatch, segment, limit):
    # tiny blocks put prime squares and higher powers across block edges
    monkeypatch.setattr(primes, "SEGMENT", segment)
    blocks = list(prime_power_segments(limit))
    ks = np.concatenate([k for k, _ in blocks])
    logs = np.concatenate([lp for _, lp in blocks])
    ref_k, ref_log = brute_prime_powers(limit)
    assert np.array_equal(ks, ref_k)
    assert np.allclose(logs, ref_log, rtol=1e-15, atol=0)
    # strictly ascending within each block and from one block to the next
    assert np.all(np.diff(ks) > 0)
    for (a, _), (b, _) in zip(blocks, blocks[1:]):
        if a.size and b.size:
            assert a[-1] < b[0]
    k2, lp2 = prime_powers(limit)
    assert np.array_equal(k2, ks) and np.array_equal(lp2, logs)


def test_no_prime_powers_below_two():
    assert list(prime_power_segments(1)) == []
    ks, logs = prime_powers(1)
    assert ks.size == 0 and logs.size == 0


# ----------------------------------------------------------------------------
# the odd-only wheel: its primes, their squares and its period on block edges

@lru_cache(maxsize=None)
def _trial_division_list(cap):
    """brute_prime_powers(cap) with trial division stopped at sqrt(k)."""
    ks, logs = [], []
    for k in range(2, cap + 1):
        p = next((d for d in range(2, math.isqrt(k) + 1) if k % d == 0), k)
        m = k
        while m % p == 0:
            m //= p
        if m == 1:
            ks.append(k)
            logs.append(math.log(p))
    return np.array(ks, dtype=np.int64), np.array(logs)


HYPOTHESIS_MAX_LIMIT = 2 * 10 ** 5


def fast_brute_prime_powers(limit):
    ks, logs = _trial_division_list(HYPOTHESIS_MAX_LIMIT)
    cut = np.searchsorted(ks, limit, side="right")
    return ks[:cut], logs[:cut]


def test_trial_division_list_is_brute_force():
    limit = 10 ** 4 + 7
    ks, logs = fast_brute_prime_powers(limit)
    ref_k, ref_log = brute_prime_powers(limit)
    assert np.array_equal(ks, ref_k) and np.array_equal(logs, ref_log)


def assert_blocks_are_brute_force(limit):
    """Every block in value and dtype, one block per SEGMENT integers from 2,
    ascending within each block and from one block to the next."""
    blocks = list(prime_power_segments(limit))
    assert len(blocks) == len(range(2, limit + 1, primes.SEGMENT))
    assert all(k.dtype == np.int64 and lp.dtype == np.float64 and k.shape == lp.shape
               for k, lp in blocks)
    ks, logs = prime_powers(limit)
    assert np.array_equal(ks, np.concatenate([ks[:0]] + [k for k, _ in blocks]))
    assert np.array_equal(logs, np.concatenate([logs[:0]] + [lp for _, lp in blocks]))
    # block j holds only k in [2 + j SEGMENT, 2 + (j + 1) SEGMENT)
    block_of = np.repeat(np.arange(len(blocks)), [k.size for k, _ in blocks])
    assert np.array_equal((ks - 2) // primes.SEGMENT, block_of)
    ref_k, ref_log = fast_brute_prime_powers(limit)  # strictly ascending
    assert np.array_equal(ks, ref_k)
    assert np.allclose(logs, ref_log, rtol=1e-15, atol=0)


# the wheel primes, 13^2 and 17^2 (the first square the loop strikes), and
# one and one and a half wheel periods (15,015 odd numbers, 30,030 integers)
WHEEL_EDGE_LIMITS = (13, 15, 17, 169, 170, 289, 30030, 30031, 45045)


# blocks start at 2 + j * segment, so 3, 5 and 11 put a wheel prime first in a block
@pytest.mark.parametrize("segment", [2, 3, 5, 7, 11, 64])
@pytest.mark.parametrize("limit", WHEEL_EDGE_LIMITS)
def test_wheel_edges_match_brute_force(monkeypatch, segment, limit):
    monkeypatch.setattr(primes, "SEGMENT", segment)
    assert_blocks_are_brute_force(limit)


def assert_blocks_are_exact(limit):
    """The blocks join to the brute-force list: every k, and every log p with
    the bits of numpy's log of p."""
    blocks = list(prime_power_segments(limit))
    ks = np.concatenate([k for k, _ in blocks])
    logs = np.concatenate([lp for _, lp in blocks])
    ref_k, ref_log = brute_prime_powers(limit)
    base = np.rint(np.exp(ref_log))  # p, from log p to an ulp
    assert np.array_equal(ks, ref_k)
    assert np.array_equal(logs, np.log(base))
    return blocks


# odd prime powers: a segment of k - 2 puts k first in the second block, and
# one of k - 1 last in the first
ODD_POWERS = (9, 25, 27, 121, 125, 243, 3 ** 7)


@pytest.mark.parametrize("power", ODD_POWERS)
@pytest.mark.parametrize("place", ["first", "last"])
def test_odd_powers_at_block_edges_match_brute_force(monkeypatch, power, place):
    monkeypatch.setattr(primes, "SEGMENT", power - (2 if place == "first" else 1))
    for limit in (power, 3 * power):
        blocks = assert_blocks_are_exact(limit)
        edge = [k[0 if place == "first" else -1] for k, _ in blocks if k.size]
        assert power in edge


# 2 + 511 * 2 and 2 + 340 * 3 start a block whose only prime power is 1024
@pytest.mark.parametrize("segment", [2, 3])
def test_power_of_two_alone_in_a_block(monkeypatch, segment):
    monkeypatch.setattr(primes, "SEGMENT", segment)
    blocks = assert_blocks_are_exact(1030)
    assert any(k.tolist() == [1024] for k, _ in blocks[1:])


# the block edges of the two tests above: each odd power first or last in a
# block, and 1024 alone in one
STATELESS_CASES = [(power - (2 if place == "first" else 1), 3 * power)
                   for power in ODD_POWERS for place in ("first", "last")]
STATELESS_CASES += [(2, 1030), (3, 1030)]


@pytest.mark.parametrize("segment,limit", STATELESS_CASES)
def test_blocks_depend_only_on_the_plan(monkeypatch, segment, limit):
    monkeypatch.setattr(primes, "SEGMENT", segment)
    blocks = list(prime_power_segments(limit))
    plan = primes.SievePlan(limit)
    alone = [primes.SievePlan(limit).block(lo) for lo in plan.starts]
    backwards = [plan.block(lo) for lo in reversed(plan.starts)][::-1]
    for got in (alone, backwards):
        assert len(got) == len(blocks)
        for (k, lp), (k2, lp2) in zip(blocks, got):
            assert k2.dtype == k.dtype and lp2.dtype == lp.dtype
            assert np.array_equal(k2, k) and np.array_equal(lp2, lp)


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(min_value=0, max_value=HYPOTHESIS_MAX_LIMIT),
       segment=st.integers(min_value=2, max_value=3 * 10 ** 5))
def test_random_limits_and_segments_match_brute_force(limit, segment):
    saved = primes.SEGMENT
    primes.SEGMENT = segment
    try:
        assert_blocks_are_brute_force(limit)
    finally:
        primes.SEGMENT = saved


def test_prime_powers_to_ten_million():
    ks, logs = prime_powers(10 ** 7)
    assert ks.size == 665_134  # 664,579 primes and 555 higher powers
    assert int(np.count_nonzero(np.log(ks) == logs)) == 664_579
    assert ks[-1] == 9_999_991


def test_is_prime_matches_sieve_and_known_values():
    ks, logs = prime_powers(2 * 10 ** 5)
    assert [n for n in range(2 * 10 ** 5 + 1) if primes.is_prime(n)] == \
        ks[np.log(ks) == logs].tolist()
    # 399,165,290,221 * 798,330,580,441: a strong pseudoprime to every base
    # up to 37, which only the 13th base, 41, exposes
    assert not primes.is_prime(318_665_857_834_031_151_167_461)
    assert primes.is_prime(2 ** 61 - 1) and primes.is_prime(2 ** 89 - 1)
