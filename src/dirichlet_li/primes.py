"""Prime sieve, prime powers with von Mangoldt weights, primality testing.

Prime powers come from an odd-only, wheel-presieved segmented sieve that
flags the odd powers p^m, m >= 2, in place and inserts the powers of 2.  It
takes its base primes from its own run to sqrt(limit).  A `SievePlan` holds
what the blocks share, and each block is sieved from the plan alone, so
`arith.kernel_sums` sieves its blocks on a thread pool sized by the CPUs
available to the process while `prime_power_segments` walks them in order."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

# the first 13 primes: deterministic below 3,317,044,064,679,887,385,961,981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3,317,044,064,679,887,385,961,981."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Integers per block of the segmented sieve.  A block holds one bool per odd
# integer in it plus the base primes up to sqrt(limit), whatever the limit.
SEGMENT = 1 << 21

# The wheel pre-sieve: _WHEEL[i] says whether the odd number 2i + 1 is prime
# to 3, 5, 7, 11 and 13; the pattern repeats every 15,015 odd numbers.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = np.gcd(2 * np.arange(15015) + 1, 15015) == 1


class SievePlan:
    """What the blocks of one sieve to `limit` share: the base primes beyond
    the wheel, the proper powers p^m with log p, and the wheel tiled once.
    The methods only read it, so blocks can be sieved in any order or at once.
    """

    def __init__(self, limit: int):
        self.segment = SEGMENT
        self.starts = range(2, limit + 1, self.segment)  # block j is [starts[j], + segment)
        self.end = limit + 1
        # the primes are the k <= sqrt(limit) of weight log k itself: a
        # proper power p^m has log k - log p >= log 2
        ks, logs = prime_powers(math.isqrt(limit))
        base = ks[np.log(ks) - logs < 0.5]
        pk, pbase = [2], [2]
        for p in base.tolist():
            v = p * p
            while v <= limit:
                pk.append(v)
                pbase.append(p)
                v *= p
        order = np.argsort(pk)
        self.powers = np.array(pk, dtype=np.int64)[order]  # and 2, the even prime
        self.power_logs = np.log(np.array(pbase, dtype=np.float64))[order]
        # the powers of 2 are inserted into a block; the odd powers are flagged
        self.twos = self.powers[self.powers % 2 == 0]
        self.odd_powers = self.powers[self.powers % 2 == 1]
        self.beyond = base[base > 13]  # the base primes beyond the wheel
        self.squares = self.beyond * self.beyond
        self.tiled = np.resize(_WHEEL, _WHEEL.size + (min(self.segment, limit) + 1) // 2)

    def block_ks(self, lo: int) -> np.ndarray:
        """The prime powers k in [lo, lo + segment), ascending, for a block
        start lo in `starts`."""
        hi = min(lo + self.segment, self.end)
        first = lo | 1  # flags[i] is the odd number first + 2i
        phase = first // 2 % _WHEEL.size
        flags = self.tiled[phase:phase + (hi - first + 1) // 2].copy()
        if lo <= 13:  # the wheel primes themselves
            flags[[(w - first) // 2 for w in _WHEEL_PRIMES if lo <= w < hi]] = True
        p = self.beyond[:np.searchsorted(self.squares, hi)]
        # the index of the first odd multiple of p that is at least p^2: the
        # odd number first + 2i is one when 2i = -(first + p) mod p
        start = np.maximum((self.squares[:p.size] - first) >> 1, -((first + p) >> 1) % p)
        hit = start < flags.size
        for s, step in zip(start[hit].tolist(), p[hit].tolist()):
            flags[s:: step] = False
        a, b = np.searchsorted(self.odd_powers, (lo, hi)).tolist()
        flags[(self.odd_powers[a:b] - first) // 2] = True
        ks = flags.nonzero()[0].astype(np.int64, copy=False)
        ks *= 2
        ks += first
        a, b = np.searchsorted(self.twos, (lo, hi)).tolist()
        if b > a:
            ks = np.insert(ks, np.searchsorted(ks, self.twos[a:b]), self.twos[a:b])
        return ks

    def set_log_p(self, ks: np.ndarray, logs: np.ndarray) -> np.ndarray:
        """Overwrite log k with log p in `logs` where the ascending prime
        powers `ks` hold a proper power p^m; returns `logs`."""
        if ks.size:
            a, b = np.searchsorted(self.powers, (ks[0], ks[-1] + 1)).tolist()
            logs[np.searchsorted(ks, self.powers[a:b])] = self.power_logs[a:b]
        return logs

    def block(self, lo: int) -> tuple[np.ndarray, np.ndarray]:
        """`block_ks(lo)` with the log p of each k."""
        ks = self.block_ks(lo)
        return ks, self.set_log_p(ks, np.log(ks))


def prime_power_segments(limit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Segmented sieve of Eratosthenes (Bays-Hudson): all prime powers
    k = p^m <= limit with Lambda(k) = log p, as (k, log_p) int64/float64
    arrays in ascending blocks of SEGMENT integers, one `SievePlan.block`
    each, in order.

    A block flags its odd numbers only.  It starts as a slice, at its
    phase, of the wheel pattern tiled once per call, clear of the multiples
    of 3, 5, 7, 11 and 13 (Pritchard), and then loses the odd multiples of
    the other base primes up to sqrt(limit), which this sieve lists first.
    The odd powers p^m, m >= 2, listed once per call, are flagged again
    after the strikes, so they come out in order, and the powers of 2 are
    inserted into the blocks that hold one; a block finds its own powers by
    binary search, and only their log k is replaced by log p.
    """
    if limit < 2:
        return
    plan = SievePlan(limit)
    for lo in plan.starts:
        yield plan.block(lo)


def prime_powers(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """All prime powers k = p^m <= limit with weights Lambda(k) = log p.

    Returns (k, log_p) sorted ascending in k: the blocks of
    `prime_power_segments` joined.
    """
    blocks = list(prime_power_segments(limit))
    if not blocks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return (np.concatenate([k for k, _ in blocks]),
            np.concatenate([lp for _, lp in blocks]))
