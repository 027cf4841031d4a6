"""The three workloads: the CLI requests each one makes and how each output is checked.

Each request is one `dirichlet_li.cli.main(argv)` call.  Its outputs are split
into items (one zero list, or one CSV row); a check returns how many of a
request's items failed, and a request that raises or exits nonzero fails all
of them.  The seed varies only what keeps the cost comparable: the request
order, the scan count K by +-2 %, and which 12 consecutive n in 1..36 the
`zerosum` `li` requests use.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# (q, label, table name) of the four published tables; 5.1 is complex and is
# scanned in the upper half plane, as the table convention needs.
TABLE_CHARACTERS = ((3, 1, "mod3"), (5, 1, "mod5"), (20, 6, "mod20"), (60, 14, "mod60"))

SCAN_COUNT = 1500           # zeros per scan request, before the seed's +-2 %
LI_WINDOW = 12              # n values per zerosum `li` request
LI_N_MAX = 36               # the window lies in 1..LI_N_MAX
# (q, label or None, nu, n_lo, n_hi): label None selects the real primitive
# character, which for q = 997 enumerates the whole group.  3.1 runs only
# n = 8, whose one sieve to 7.2e7 sets the memory peak: that sieve's time
# follows the host's memory traffic, not its core speed, and n = 1..8 made
# it two thirds of the workload's time and most of its run-to-run spread.
ARITH_REQUESTS = ((3, 1, 3, 8, 8), (60, 14, 2, 1, 36), (997, None, 2, 1, 12))
# Kernel sums over fewer prime powers than this take the big-float path,
# whose references are only held to ARITH_MP_TOL.
MP_PATH_MAX_M = 100_000
REL_TOL = 1e-9
ARITH_MP_TOL = 1e-7


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Request:
    name: str
    argv: list[str]
    items: int
    check: Callable[[Outcome], int]  # -> number of failed items


def char_key(q: int, label) -> str:
    return f"{q}.{label}" if label is not None else f"{q}"


def close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def read_zero_file(path) -> tuple[np.ndarray, float]:
    """(ordinates, height) of a zero file, parsed independently of the program."""
    height = None
    gammas = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                for tok in line[1:].split():
                    if tok.startswith("height="):
                        height = float(tok[len("height="):])
            elif line.strip():
                gammas.append(float(line.split()[0]))
    if height is None:
        raise ValueError(f"{path}: no height header")
    return np.array(gammas), height


def csv_rows(text: str) -> dict[int, dict[str, str]]:
    """CSV text from the CLI, keyed by n; empty if it does not parse."""
    try:
        return {int(r["n"]): r for r in csv.DictReader(io.StringIO(text))}
    except (KeyError, ValueError, TypeError, csv.Error):
        return {}


def _failed_rows(rows, ns, column, ok) -> int:
    """Items in `ns` whose `column` is missing, unparsable or fails ok(n, value)."""
    failed = 0
    for n in ns:
        try:
            good = ok(n, float(rows[n][column]))
        except (KeyError, ValueError, TypeError):
            good = False
        failed += not good
    return failed


def arith_argv(q, label, nu, n_lo, n_hi) -> list[str]:
    argv = ["li", "--q", str(q), "--method", "arith", "--nu", str(nu),
            "--n", f"{n_lo}..{n_hi}", "--format", "csv"]
    if label is not None:
        argv[3:3] = ["--label", str(label)]
    return argv


def table_argv(name, zeros, out_csv: Path) -> list[str]:
    """`table` writing its CSV to `out_csv` and its plot script beside it."""
    return ["table", "--name", name, "--zeros", str(zeros), "--out", str(out_csv),
            "--plot-script", str(out_csv.with_name(f"{name}_plot.py"))]


def li_zeros_argv(q, label, lo, hi, zeros) -> list[str]:
    return ["li", "--q", str(q), "--label", str(label), "--method", "zeros",
            "--n", f"{lo}..{hi}", "--zeros", str(zeros), "--format", "csv"]


# ----------------------------------------------------------------------------
# scan: cold zero scans, the write side of zero-file I/O

def scan_requests(rng: random.Random, data, work: Path) -> list[Request]:
    count = round(SCAN_COUNT * rng.uniform(0.98, 1.02))
    reqs = []
    for q, label, _name in TABLE_CHARACTERS:
        key = char_key(q, label)
        out = work / f"scan_{q}_{label}.txt"
        reqs.append(Request(
            name=f"scan {key}",
            argv=["zeros", "--q", str(q), "--label", str(label),
                  "--zeros-count", str(count), "--out", str(out)],
            items=1,
            check=_scan_check(out, data.zeros[key])))
    return reqs


def _scan_check(path: Path, ref: np.ndarray):
    def check(outcome: Outcome) -> int:
        if outcome.code != 0:
            return 1
        try:
            gammas, height = read_zero_file(path)
        except (OSError, ValueError):
            return 1
        if gammas.size == 0 or height > ref[-1]:
            return 1
        # count within the program's completeness tolerance 2 + log T of the
        # reference count below the same height
        expected = int(np.searchsorted(ref, height, side="right"))
        if abs(gammas.size - expected) > 2 + math.log(height):
            return 1
        # each ordinate within one unit of its 12th printed digit of the
        # nearest reference ordinate, plus the finder's 1e-11 bracket width
        idx = np.clip(np.searchsorted(ref, gammas), 1, ref.size - 1)
        nearest = np.where(np.abs(ref[idx] - gammas) < np.abs(ref[idx - 1] - gammas),
                           ref[idx], ref[idx - 1])
        tol = 10.0 ** (np.floor(np.log10(gammas)) - 11) + 2e-11
        return int(not np.all(np.abs(gammas - nearest) <= tol))
    return check


# ----------------------------------------------------------------------------
# arith: the unconditional prime-power route

def arith_requests(rng: random.Random, data, work: Path) -> list[Request]:
    reqs = []
    for q, label, nu, n_lo, n_hi in ARITH_REQUESTS:
        key = char_key(q, label)
        ns = range(n_lo, n_hi + 1)
        reqs.append(Request(
            name=f"arith {key} nu={nu}", argv=arith_argv(q, label, nu, n_lo, n_hi),
            items=len(ns),
            check=_arith_check(ns, data.refs["arith"][f"{key} nu={nu}"])))
    return reqs


def _arith_check(ns, ref: dict):
    def check(outcome: Outcome) -> int:
        if outcome.code != 0:
            return len(ns)
        rows = csv_rows(outcome.stdout)

        def ok(n, value):
            tol = ARITH_MP_TOL if int(rows[n]["M"]) < MP_PATH_MAX_M else REL_TOL
            return close(value, ref[str(n)], tol)
        return _failed_rows(rows, ns, "lambda_arith", ok)
    return check


# ----------------------------------------------------------------------------
# zerosum: table reproduction and zero sums from stored 10^4-zero lists

def zerosum_requests(rng: random.Random, data, work: Path) -> list[Request]:
    reqs = []
    for q, label, name in TABLE_CHARACTERS:
        key = char_key(q, label)
        zeros = str(data.zero_files[key])
        table_csv = work / f"{name}.csv"
        table_ref = data.refs["table"][name]
        published = data.refs["published"].get(name)
        reqs.append(Request(
            name=f"table {name}",
            argv=table_argv(name, zeros, table_csv),
            items=len(table_ref),
            check=_table_check(table_csv, table_ref, published)))
        lo = rng.randint(1, LI_N_MAX - LI_WINDOW + 1)
        ns = range(lo, lo + LI_WINDOW)
        reqs.append(Request(
            name=f"li {key}",
            argv=li_zeros_argv(q, label, ns[0], ns[-1], zeros),
            items=len(ns),
            check=_li_zeros_check(ns, data.refs["li_zeros"][key], table_csv)))
    return reqs


def _published_tol(n: int) -> float:
    """Acceptance criterion 1: 1e-3 for n <= 10, 1e-2 beyond."""
    return 1e-3 if n <= 10 else 1e-2


def _table_rows(path: Path) -> dict[int, dict[str, str]]:
    try:
        return csv_rows(path.read_text(encoding="utf-8"))
    except OSError:
        return {}


def _table_check(path: Path, ref: dict, published: dict | None):
    ns = [int(n) for n in ref]

    def check(outcome: Outcome) -> int:
        if outcome.code != 0:
            return len(ns)

        def ok(n, value):
            if published is not None and abs(value - published[str(n)]) > _published_tol(n):
                return False
            return close(value, ref[str(n)], REL_TOL)
        return _failed_rows(_table_rows(path), ns, "lambda_zeros", ok)
    return check


def _li_zeros_check(ns, ref: dict, table_csv: Path):
    def check(outcome: Outcome) -> int:
        if outcome.code != 0:
            return len(ns)
        table = _table_rows(table_csv)

        def ok(n, value):
            # li_zero_sum (high precision) against zero_sum_values (float64)
            return (close(value, float(table[n]["lambda_zeros"]), REL_TOL)
                    and close(value, ref[str(n)], REL_TOL))
        return _failed_rows(csv_rows(outcome.stdout), ns, "lambda_zeros", ok)
    return check


WORKLOADS = {
    "scan": scan_requests,
    "arith": arith_requests,
    "zerosum": zerosum_requests,
}


def requests_for(workload: str, seed: int, data, work: Path) -> list[Request]:
    rng = random.Random(seed)
    reqs = WORKLOADS[workload](rng, data, work)
    rng.shuffle(reqs)
    return reqs
