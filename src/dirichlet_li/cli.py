"""Command-line surface: character listing, zero computation, Li coefficients
by either method, cross-method comparison, and reference-table reproduction.

Characters are addressed as q.label (`--q 3 --label 1`); with only --q the
quadratic (real primitive) character is selected.  CSV output is
comma-separated in columns n, lambda_arith, bound_arith, M, lambda_zeros,
bound_zeros, N, T, positive with 12 significant digits.  Exit status: 1 from
`li` when an error estimate is infinite and from `compare` on a FAIL verdict,
2 on a usage or input error, else 0 (always 0 for `characters`, `zeros` and
`table`).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import zerosum
from .arith import li_arith_sweep
from .characters import (DirichletCharacter, character_by_label,
                         enumerate_characters, real_primitive_character)
from .errors import DirichletLiError, InsufficientZeros
from .lfunc import (ZeroList, find_zeros_merged, find_zeros_upper, height_for_count,
                    n_formula, read_zeros, write_zeros)
from .tables import TABLES

CSV_COLUMNS = ("n", "lambda_arith", "bound_arith", "M",
               "lambda_zeros", "bound_zeros", "N", "T", "positive")

# On-the-fly zero lists are capped at this many ordinates; beyond it the
# user should compute a zero file once and pass --zeros.
_MAX_ONTHEFLY_ZEROS = 20_000


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _parse_n_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if hi < lo or lo < 0:
        raise argparse.ArgumentTypeError(f"bad n range {text!r}")
    return list(range(lo, hi + 1))


def _at_least(kind, lo):
    """argparse type: a finite `kind` number no smaller than `lo`."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= lo):
            raise argparse.ArgumentTypeError(f"must be a finite number >= {lo}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def _select_character(q: int, label: int | None) -> DirichletCharacter:
    if label is not None:
        return character_by_label(q, label)
    return real_primitive_character(q)


def _zero_source(args, chi: DirichletCharacter, n_max: int) -> ZeroList:
    """Zero list from --zeros, or scanned at the height `choose_T0` picks and
    rescanned at twice the list's height, up to the cap, while the tail estimate
    for n_max at the last ordinate found, below that height, misses 3*10^-k.
    A complex chi is scanned in both half planes, the cap applying to each."""
    if args.zeros:
        zl = read_zeros(args.zeros, chi_id=(chi.modulus, chi.label))
        if zl.symmetric and not chi.is_real:
            print(f"note: complex character {chi.modulus}.{chi.label}; the factor-2 sum "
                  "over a one-sided zero file is not Re lambda", file=sys.stderr)
        return zl
    T_cap = height_for_count(chi.modulus, _MAX_ONTHEFLY_ZEROS)
    T = zerosum.choose_T0(n_max, args.k, chi.modulus)
    if T > T_cap:
        print(f"note: capping zero scan at T={T_cap:.0f} "
              f"(the 10^-{args.k} tail target wanted T={T:.0f}); "
              "pass --zeros FILE for longer lists", file=sys.stderr)
    if not chi.is_real:
        print(f"note: complex character {chi.modulus}.{chi.label}; scanning both half "
              "planes and summing each zero there once", file=sys.stderr)
    while True:
        zl = (find_zeros_upper if chi.is_real else find_zeros_merged)(chi, min(T, T_cap))
        if zl.height >= T_cap or len(zl) and zerosum.tail_bound(
                n_max, zerosum._truncation(zl).T, chi.modulus) <= 3 * 10.0 ** -args.k:
            return zl
        T = 2 * zl.height


def _emit_rows(rows: list[dict], fmt: str, out_path: str | None) -> None:
    if fmt == "csv" or out_path:
        lines = [",".join(CSV_COLUMNS)]
        for r in rows:
            lines.append(",".join(_fmt(r.get(c)) for c in CSV_COLUMNS))
        text = "\n".join(lines) + "\n"
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        if fmt == "csv":
            sys.stdout.write(text)
    if fmt == "table":
        widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) if rows else len(c)
                  for c in CSV_COLUMNS}
        print("  ".join(c.rjust(widths[c]) for c in CSV_COLUMNS))
        for r in rows:
            print("  ".join(_fmt(r.get(c)).rjust(widths[c]) for c in CSV_COLUMNS))


# ----------------------------------------------------------------------------
# subcommands

def cmd_characters(args) -> int:
    print(f"{'label':>5}  {'order':>5}  {'parity':>6}  {'conductor':>9}  "
          f"{'primitive':>9}  {'real':>4}")
    for chi in enumerate_characters(args.q):
        g = math.gcd(chi.order, *(e for e in chi.exponents if e))
        char_order = chi.order // g
        print(f"{chi.label:>5}  {char_order:>5}  "
              f"{'odd' if chi.parity_a else 'even':>6}  {chi.conductor:>9}  "
              f"{'yes' if chi.is_primitive else 'no':>9}  "
              f"{'yes' if chi.is_real else 'no':>4}")
    return 0


def cmd_zeros(args) -> int:
    chi = _select_character(args.q, args.label)
    if args.tmax is not None:
        T = args.tmax
    elif args.zeros_count is not None:
        T = height_for_count(chi.modulus, args.zeros_count)
    else:
        print("error: need --tmax or --zeros-count", file=sys.stderr)
        return 2
    zl = find_zeros_upper(chi, T)
    expected = n_formula(T, chi.modulus)
    print(f"found {len(zl)} zeros of L(s, chi_{chi.modulus}.{chi.label}) with "
          f"0 < gamma <= {T:g} (counting formula: {expected:.2f})")
    if len(zl) == 0:
        print("warning: no zeros below the requested height", file=sys.stderr)
    if args.out:
        write_zeros(args.out, zl)
        print(f"wrote {args.out}")
    return 0


def _li_rows(args, chi, ns, methods, zl=None, N=None):
    """Rows keyed by CSV_COLUMNS for each n in ns by the requested methods
    ("arith", "zeros"), the zero list summed (read or scanned here when zl is
    None, before the sieve runs) and the seconds each route took.  Each route
    is one sweep of `LiResult`s, whose params fill the M, or N and T, columns;
    the zero sum runs over the first N ordinates (all when N is None)."""
    positive_ns = [n for n in ns if n > 0]
    if "zeros" in methods and positive_ns and zl is None:
        zl = _zero_source(args, chi, max(positive_ns))
    rows = {n: dict.fromkeys(CSV_COLUMNS) | {"n": n} for n in ns}
    if 0 in rows:
        # empty power sum over zeros: lambda(0) = 0 identically
        for m in methods:
            rows[0][f"lambda_{m}"] = rows[0][f"bound_{m}"] = 0.0
    seconds = {}
    for m in methods:
        t0 = time.perf_counter()
        if positive_ns:
            sweep = (li_arith_sweep(positive_ns, chi, args.nu) if m == "arith"
                     else zerosum.li_zero_sum_sweep(positive_ns, zl, N))
            for r in sweep:
                rows[r.n] |= {k: v for k, v in vars(r.params).items() if k in CSV_COLUMNS}
                rows[r.n] |= {f"lambda_{m}": r.value, f"bound_{m}": r.error_bound}
        seconds[m] = time.perf_counter() - t0
    for row in rows.values():
        row["positive"] = all(row[f"lambda_{m}"] >= 0 for m in methods)
    return list(rows.values()), zl, seconds


def cmd_li(args) -> int:
    chi = _select_character(args.q, args.label)
    methods = ("arith", "zeros") if args.method == "both" else (args.method,)
    rows, _, _ = _li_rows(args, chi, args.n, methods)
    if args.pair and not chi.is_real:
        for r in rows:
            if r["M"] is not None:
                print(f"# n={r['n']}: conjugate-paired sum "
                      f"lambda_chi + lambda_chibar = {_fmt(2 * r['lambda_arith'])}")
    _emit_rows(rows, args.format, args.out)
    bounds = [r[c] for r in rows for c in ("bound_arith", "bound_zeros")]
    return 0 if all(math.isfinite(b) for b in bounds if b is not None) else 1


def cmd_compare(args) -> int:
    chi = _select_character(args.q, args.label)
    ns = [n for n in args.n if n >= 1]
    if not ns:
        print("error: compare needs some n >= 1", file=sys.stderr)
        return 2
    rows, zl, seconds = _li_rows(args, chi, ns, ("arith", "zeros"))
    print(f"character {chi.modulus}.{chi.label}; zero list of {len(zl)} "
          f"ordinates to T={zl.height:g}")
    print(f"timing: arithmetic {seconds['arith']:.2f}s, zero-sum {seconds['zeros']:.2f}s")
    print(f"{'n':>3}  {'arith':>16}  {'zero_sum':>16}  {'|delta|':>10}  "
          f"{'budget':>10}  verdict")
    all_ok = True
    for r in rows:
        delta = abs(r["lambda_arith"] - r["lambda_zeros"])
        budget = r["bound_arith"] + r["bound_zeros"]
        ok = delta <= budget
        all_ok = all_ok and ok
        print(f"{r['n']:>3}  {r['lambda_arith']:>16.9f}  {r['lambda_zeros']:>16.9f}  "
              f"{delta:>10.3e}  {budget:>10.3e}  {'PASS' if ok else 'FAIL'}")
    if not all_ok:
        print("note: the truncation estimates are the published closed forms; "
              "the arithmetic-side estimate is exceeded by the true remainder "
              "for some n (see README)")
    return 0 if all_ok else 1


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot computed Li coefficients from the CSV produced alongside.\"\"\"
import csv
import sys

import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else {csv_path!r}
ns, lam = [], []
with open(path, newline="") as fh:
    for row in csv.DictReader(fh):
        if row["lambda_zeros"]:
            ns.append(int(row["n"]))
            lam.append(float(row["lambda_zeros"]))
plt.plot(ns, lam, "o-", markersize=3)
plt.xlabel("n")
plt.ylabel("lambda(n, N)")
plt.title({title!r})
plt.tight_layout()
plt.savefig({png_path!r}, dpi=150)
print("wrote", {png_path!r})
"""


def cmd_table(args) -> int:
    spec = TABLES[args.name]
    chi = spec.character()
    if args.zeros:
        zl = read_zeros(args.zeros, chi_id=(chi.modulus, chi.label))
    else:
        T = height_for_count(chi.modulus, args.zeros_count)
        zl = find_zeros_upper(chi, T)
    if len(zl) < 10 ** 4:
        raise InsufficientZeros(
            f"table reproduction needs >= 10^4 zeros, got {len(zl)}")
    print(f"table {spec.name}: character {chi.modulus}.{chi.label}")
    print(f"assumption: {spec.assumption}")
    rows, _, _ = _li_rows(args, chi, sorted(spec.rows), ("zeros",), zl, N=10 ** 4)
    deltas = [abs(r["lambda_zeros"] - spec.rows[r["n"]][1]) for r in rows]
    print(f"{'n':>3}  {'published':>12}  {'computed':>12}  {'|delta|':>10}")
    for r, delta in zip(rows, deltas):
        print(f"{r['n']:>3}  {spec.rows[r['n']][1]:>12.6f}  "
              f"{r['lambda_zeros']:>12.6f}  {delta:>10.2e}")
    print(f"largest deviation: {max(deltas):.2e}")
    out_csv = args.out or f"{spec.name}_table.csv"
    _emit_rows(rows, "csv" if args.format == "csv" else "none", out_csv)
    script_path = args.plot_script or f"{spec.name}_plot.py"
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write(_PLOT_SCRIPT.format(csv_path=out_csv,
                                     title=f"Li coefficients, {spec.name}",
                                     png_path=f"{spec.name}.png"))
    print(f"wrote {out_csv} and {script_path}")
    return 0


# ----------------------------------------------------------------------------

def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command's parser, or only `command`'s; the usage names all five."""
    p = argparse.ArgumentParser(
        prog="dirichlet-li",
        description="Li coefficients of Dirichlet L-functions by the "
                    "arithmetic and zero-sum formulas")
    names = ("characters", "zeros", "li", "compare", "table")
    build = (command,) if command in names else names
    sub = p.add_subparsers(dest="command", required=True,
                           metavar=None if build == names else "{%s}" % ",".join(names))

    def add_parser(name, help):  # None for a command not built
        return sub.add_parser(name, help=help) if name in build else None

    if pc := add_parser("characters", "list the character group mod q"):
        pc.add_argument("--q", type=int, required=True)
        pc.set_defaults(func=cmd_characters)

    if pz := add_parser("zeros", "compute critical-line zeros"):
        pz.add_argument("--q", type=int, required=True)
        pz.add_argument("--label", type=int)
        height = pz.add_mutually_exclusive_group()
        height.add_argument("--tmax", type=_at_least(float, 1))
        height.add_argument("--zeros-count", type=_at_least(int, 1))
        pz.add_argument("--out")
        pz.set_defaults(func=cmd_zeros)

    def add_common(sp):
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--label", type=int)
        sp.add_argument("--n", type=_parse_n_range, required=True,
                        help="single n or range A..B")
        sp.add_argument("--nu", type=_at_least(int, 1), default=3,
                        help="arithmetic cutoff M = 9 n 10^(2 nu); its printed "
                             "estimate is not a bound")
        sp.add_argument("--k", type=_at_least(int, 0), default=3,
                        help="zero-sum tail target 10^-k")
        sp.add_argument("--zeros", help="zero file (lfunc format)")

    if pl := add_parser("li", "compute Li coefficients"):
        add_common(pl)
        pl.add_argument("--method", choices=("arith", "zeros", "both"),
                        default="both")
        pl.add_argument("--out")
        pl.add_argument("--format", choices=("table", "csv"), default="table")
        pl.add_argument("--pair", action="store_true",
                        help="for complex characters also print the "
                             "conjugate-paired sum")
        pl.set_defaults(func=cmd_li)

    if pcmp := add_parser("compare", "cross-method comparison report"):
        add_common(pcmp)
        pcmp.set_defaults(func=cmd_compare)

    if pt := add_parser("table", "reproduce a published table"):
        pt.add_argument("--name", choices=sorted(TABLES), required=True)
        pt.add_argument("--zeros")
        pt.add_argument("--zeros-count", type=_at_least(int, 1), default=10 ** 4)
        pt.add_argument("--out")
        pt.add_argument("--plot-script")
        pt.add_argument("--format", choices=("table", "csv"), default="table")
        pt.set_defaults(func=cmd_table)
    return p


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else argv
    args = _build_parser(words[0] if words else None).parse_args(words)
    try:
        code = args.func(args)
    except DirichletLiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        code = 2
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
