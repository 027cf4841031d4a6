"""Write perfbench/data/refs.json from this checkout's code.

    python3 perfbench/make_refs.py --commit <hash of the checked-out commit>

References cover every value a seed can pick: the three `arith` requests in
full, each `table`, and `li --method zeros` for n = 1..36 on each stored zero
list.  The published zero-sum columns of mod3 and mod5 are copied so the
`zerosum` check does not depend on the program's own copy of the tables.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads as wl


def _column(outcome, text: str, column: str) -> dict[str, float]:
    if outcome.code != 0:
        raise SystemExit(f"request failed ({outcome.code}):\n{outcome.stderr}")
    return {str(n): float(r[column]) for n, r in wl.csv_rows(text).items()}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--commit", required=True)
    args = p.parse_args()
    pkg = run.load_package()
    refs = {"commit": args.commit, "arith": {}, "table": {}, "li_zeros": {},
            "published": {}}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for q, label, nu, n_lo, n_hi in wl.ARITH_REQUESTS:
            out = run.call(pkg.cli.main, wl.arith_argv(q, label, nu, n_lo, n_hi), None)
            refs["arith"][f"{wl.char_key(q, label)} nu={nu}"] = _column(
                out, out.stdout, "lambda_arith")
        for q, label, name in wl.TABLE_CHARACTERS:
            zeros = run.DATA / f"zeros_{q}_{label}.txt"
            table_csv = work / f"{name}.csv"
            out = run.call(pkg.cli.main, wl.table_argv(name, zeros, table_csv), None)
            refs["table"][name] = _column(
                out, table_csv.read_text(encoding="utf-8"), "lambda_zeros")
            argv = wl.li_zeros_argv(q, label, 1, wl.LI_N_MAX, zeros)
            out = run.call(pkg.cli.main, argv, None)
            refs["li_zeros"][wl.char_key(q, label)] = _column(out, out.stdout, "lambda_zeros")
        for name in ("mod3", "mod5"):
            rows = pkg.tables.TABLES[name].rows
            refs["published"][name] = {str(n): zs for n, (_, zs) in sorted(rows.items())}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.DATA / "refs.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
