"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def loaded():
    return run.setup()


def _table_rep(pkg, data, work, name="mod3"):
    """One repetition of the zerosum workload's `table <name>` request alone."""
    reqs = [r for r in wl.requests_for("zerosum", 0, data, work)
            if r.name == f"table {name}"]
    return run.run_rep(pkg, reqs, run.package_caches(pkg))


def test_table_request_passes_against_stored_references(loaded, tmp_path):
    pkg, data = loaded
    rep = _table_rep(pkg, data, tmp_path)
    assert rep["attempted"] == 36 and rep["failed"] == {}


def test_corrupted_reference_lowers_pass_frac(loaded, tmp_path):
    pkg, data = loaded
    refs = json.loads(json.dumps(data.refs))
    refs["table"]["mod3"]["5"] += 1e-6
    bad = SimpleNamespace(**{**vars(data), "refs": refs})
    rep = _table_rep(pkg, bad, tmp_path)
    assert rep["failed"] == {"table mod3": 1}
    e2e = run.end_to_end([rep], setup_s=1.0)
    assert e2e["pass_frac"]["value"] == pytest.approx(35 / 36)


def test_wall_divides_out_the_calibration_speed():
    slow = {"wall_s": 9.0, "cal_s": [2 * run.CAL_REF_S] * 5}
    fast = {"wall_s": 3.0, "cal_s": [run.CAL_REF_S] * 3}
    # mean repetition 6 s; the 8 chunks took 13/8 of the reference time
    assert run.wall([slow, fast]) == pytest.approx(6.0 / (13 / 8))
    assert run.wall([fast]) == pytest.approx(3.0)


def test_failed_request_fails_all_its_items(loaded, tmp_path):
    pkg, data = loaded
    missing = SimpleNamespace(**{**vars(data), "zero_files": {
        k: tmp_path / "absent.txt" for k in data.zero_files}})
    rep = _table_rep(pkg, missing, tmp_path)
    assert {name: o.code for name, o in rep["errors"].items()} == {"table mod3": 2}
    assert rep["failed"] == {"table mod3": 36}


def test_scan_check_rejects_shifted_ordinate(loaded, tmp_path):
    _pkg, data = loaded
    ref = data.zeros["3.1"]
    path = tmp_path / "z.txt"
    good = "".join(f"{g:.12g}\n" for g in ref[:50])
    height = f"# q=3 label=1 height={ref[49]:.12g}\n"
    ok = wl.Outcome(code=0, stdout="", stderr="", seconds=0.0)
    check = wl._scan_check(path, ref)
    path.write_text(height + good)
    assert check(ok) == 0
    path.write_text(height + good.replace(f"{ref[7]:.12g}", f"{ref[7] + 1e-8:.12g}"))
    assert check(ok) == 1


def test_seed_varies_only_order_count_and_window(loaded, tmp_path):
    _pkg, data = loaded
    for workload in wl.WORKLOADS:
        a = wl.requests_for(workload, 3, data, tmp_path)
        b = wl.requests_for(workload, 3, data, tmp_path)
        assert [r.argv for r in a] == [r.argv for r in b]
    for seed in range(20):
        scan = wl.requests_for("scan", seed, data, tmp_path)
        counts = {int(r.argv[r.argv.index("--zeros-count") + 1]) for r in scan}
        assert len(counts) == 1
        assert abs(counts.pop() / wl.SCAN_COUNT - 1) <= 0.02
        for r in wl.requests_for("zerosum", seed, data, tmp_path):
            if r.argv[0] == "li":
                lo, hi = map(int, r.argv[r.argv.index("--n") + 1].split(".."))
                assert 1 <= lo and hi <= wl.LI_N_MAX and hi - lo + 1 == wl.LI_WINDOW


def test_references_cover_every_value_a_seed_can_pick(loaded):
    _pkg, data = loaded
    for q, label, _name in wl.TABLE_CHARACTERS:
        li = data.refs["li_zeros"][wl.char_key(q, label)]
        assert set(li) == {str(n) for n in range(1, wl.LI_N_MAX + 1)}
    for q, label, nu, n_lo, n_hi in wl.ARITH_REQUESTS:
        arith = data.refs["arith"][f"{wl.char_key(q, label)} nu={nu}"]
        assert set(arith) >= {str(n) for n in range(n_lo, n_hi + 1)}


def _result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zerosum", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_declared(trace, section):
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
