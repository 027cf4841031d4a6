"""Spans around the public functions of each `dirichlet_li` module.

Every function is patched where its caller looks the name up: `cli` imports
`find_zeros`, `li_arith`, `read_zeros` and friends by name, `arith` imports
`prime_powers` by name, `tables` imports `enumerate_characters` by name, and
`cli` reaches `zerosum` and `lfunc` reaches `fastzeros` through the module
object.  Spans are kept in memory with their parent, so a span's self time is
its duration minus that of its direct children.  Layer names are the module
names of `src/dirichlet_li/`.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("key", "request", "parent", "start", "end", "child_s")

    def __init__(self, key, request, parent, start):
        self.key, self.request, self.parent, self.start = key, request, parent, start
        self.end = start
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.key.split(".", 1)[0]


class Tracer:
    """Records spans and counts while installed; restores every patch on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._request = 0

    def span(self, key: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(key, self._request, parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()
            if parent is not None:
                parent.child_s += sp.dur

    def request(self, fn, *args):
        """One CLI request: the root span `cli.main`, all its spans share an id."""
        self._request += 1
        return self.span("cli.main", fn, *args)

    def _wrapper(self, key, orig, count):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            out = tracer.span(key, orig, *args, **kwargs)
            if count is not None:
                count(tracer.counts, args, out)
            return out
        return traced

    @contextmanager
    def installed(self, pkg):
        """Patch every lookup site in `SITES` that `pkg` still has, for the
        duration; a site a refactor removed is skipped and its metrics read 0."""
        undo = []
        try:
            for owner_path, attr, key, count in SITES:
                owner = pkg
                for part in owner_path.split("."):
                    owner = getattr(owner, part, None)
                orig = vars(owner).get(attr) if owner is not None else None
                if orig is None:
                    continue
                setattr(owner, attr, self._wrapper(key, orig, count))
                undo.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        c = self.counts
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_s: dict[str, float] = defaultdict(float)
        layer_calls: dict[str, int] = defaultdict(int)
        for sp in self.spans:
            incl[sp.key] += sp.dur
            self_s[sp.key] += sp.dur - sp.child_s
            calls[sp.key] += 1
            # a layer's time is that of its outermost spans, never counted twice
            anc = sp.parent
            while anc is not None and anc.layer != sp.layer:
                anc = anc.parent
            if anc is None:
                layer_s[sp.layer] += sp.dur
                layer_calls[sp.layer] += 1
        finds = calls["fastzeros.find_zeros_fast"]
        zeros_found = c["fastzeros.zeros_found"]
        points = c["fastzeros.z_values.points"] + c["fastzeros.z_grid.points"]
        wall = incl["cli.main"]
        return {
            "characters.s": layer_s["characters"],
            "characters.calls": layer_calls["characters"],
            "fastzeros.z_values.s": incl["fastzeros.z_values"],
            "fastzeros.z_values.calls": calls["fastzeros.z_values"],
            "fastzeros.z_values.points": c["fastzeros.z_values.points"],
            "fastzeros.z_grid.s": incl["fastzeros.z_grid"],
            "fastzeros.z_grid.points": c["fastzeros.z_grid.points"],
            "fastzeros.scans_per_find":
                calls["fastzeros.scan_zeros"] / finds if finds else 0.0,
            "fastzeros.points_per_zero":
                points / zeros_found if zeros_found else 0.0,
            "lfunc.find_zeros.self_s": self_s["lfunc.find_zeros"],
            "lfunc.write_zeros.s": incl["lfunc.write_zeros"],
            "lfunc.write_zeros.bytes": c["lfunc.write_zeros.bytes"],
            "lfunc.read_zeros.s": incl["lfunc.read_zeros"],
            "lfunc.read_zeros.records": c["lfunc.read_zeros.records"],
            "primes.prime_powers.s": incl["primes.prime_powers"],
            "primes.prime_powers.calls": calls["primes.prime_powers"],
            "primes.sieve_limit_sum": c["primes.sieve_limit_sum"],
            "arith.kernel.self_s": self_s["arith.kernel"],
            "arith.kernel.terms": c["arith.kernel.terms"],
            "arith.tau_chi.s": incl["arith.tau_chi"],
            "arith.choose_M.s": incl["arith.choose_M"],
            "zerosum.li_zero_sum.s": incl["zerosum.li_zero_sum"],
            "zerosum.li_zero_sum.calls": calls["zerosum.li_zero_sum"],
            "zerosum.li_zero_sum.terms": c["zerosum.li_zero_sum.terms"],
            "zerosum.zero_sum_values.s": incl["zerosum.zero_sum_values"],
            "cli.self_s": self_s["cli.main"],
            "trace.attributed_frac":
                1.0 - self_s["cli.main"] / wall if wall else 0.0,
        }


# ----------------------------------------------------------------------------
# counters, each called as count(counts, args, result)

def _count_points(name):
    def count(c, args, out):
        c[name] += len(out)
    return count


def _count_find(c, args, out):
    gammas, _h = out
    c["fastzeros.zeros_found"] += len(gammas)


def _count_write(c, args, out):
    c["lfunc.write_zeros.bytes"] += os.path.getsize(args[0])


def _count_read(c, args, out):
    c["lfunc.read_zeros.records"] += len(out)


def _count_prime_powers(c, args, out):
    # the kernel is the only caller: what it gets back is what it sums over
    c["primes.sieve_limit_sum"] += int(args[0])
    c["arith.kernel.terms"] += len(out[0])


def _count_zero_sum(c, args, out):
    c["zerosum.li_zero_sum.terms"] += out.params.N


# (owner, attribute, span key, counter) for every traced lookup site; the
# owner is a module of the package, or a class in one.
SITES = [
    ("cli", "character_by_label", "characters.character_by_label", None),
    ("cli", "real_primitive_character", "characters.real_primitive_character", None),
    ("tables", "enumerate_characters", "characters.enumerate_characters", None),
    ("characters", "enumerate_characters", "characters.enumerate_characters", None),
    # fastzeros imports gauss_sum from the module at call time
    ("characters", "gauss_sum", "characters.gauss_sum", None),
    ("cli", "find_zeros", "lfunc.find_zeros", None),
    ("cli", "find_zeros_upper", "lfunc.find_zeros", None),
    ("cli", "write_zeros", "lfunc.write_zeros", _count_write),
    ("cli", "read_zeros", "lfunc.read_zeros", _count_read),
    ("fastzeros", "find_zeros_fast", "fastzeros.find_zeros_fast", _count_find),
    ("fastzeros", "scan_zeros", "fastzeros.scan_zeros", None),
    ("fastzeros.FastLEvaluator", "z_values", "fastzeros.z_values",
     _count_points("fastzeros.z_values.points")),
    ("fastzeros.FastLEvaluator", "z_grid", "fastzeros.z_grid",
     _count_points("fastzeros.z_grid.points")),
    ("cli", "choose_M", "arith.choose_M", None),
    ("cli", "li_arith", "arith.li_arith", None),
    ("arith", "tau_chi", "arith.tau_chi", None),
    ("arith", "prime_power_kernel_sum", "arith.kernel", None),
    ("arith", "prime_powers", "primes.prime_powers", _count_prime_powers),
    ("zerosum", "li_zero_sum", "zerosum.li_zero_sum", _count_zero_sum),
    ("zerosum", "zero_sum_values", "zerosum.zero_sum_values", None),
]
