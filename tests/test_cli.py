"""Command-line interface: flags, CSV contract, exit codes."""

import math

import pytest

from dirichlet_li.arith import choose_M, kernel_sums, li_arith
from dirichlet_li.characters import character_by_label
from dirichlet_li.cli import CSV_COLUMNS, _fmt, _parse_n_range, main
from dirichlet_li.lfunc import write_zeros

from conftest import CACHE_DIR, binomial_term_oracle


@pytest.fixture()
def q3_zero_file(zeros_q3):
    # the session cache written by the zeros_q3 fixture, in lfunc format
    return str(CACHE_DIR / "zeros_3_1.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------------------
# argument plumbing

def test_parse_n_range():
    assert _parse_n_range("5") == [5]
    assert _parse_n_range("2..6") == [2, 3, 4, 5, 6]
    with pytest.raises(Exception):
        _parse_n_range("6..2")


def test_characters_listing(capsys):
    code, out, _ = run(capsys, "characters", "--q", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 characters
    # principal character: order 1, even, conductor 1, imprimitive
    assert lines[1].split() == ["0", "1", "even", "1", "no", "yes"]
    # label 2 is the quadratic character: order 2, even, primitive, real
    assert lines[3].split() == ["2", "2", "even", "5", "yes", "yes"]


def test_characters_rejects_nonpositive_modulus(capsys):
    code, _, err = run(capsys, "characters", "--q", "0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, code", [(("characters", "--q", "5"), 0),
                                        (("li", "--q", "6", "--n", "1", "--method", "arith"), 2)])
def test_module_entry_point_exits_with_the_command_status(argv, code):
    # main(argv=None) reads sys.argv and ends in sys.exit, in a fresh process
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    out = subprocess.run([sys.executable, "-m", "dirichlet_li.cli", *argv],
                         env=env, capture_output=True, text=True)
    assert out.returncode == code
    if code:
        assert out.stdout == "" and out.stderr.startswith("error: ")
        assert out.stderr.count("\n") == 1
    else:
        assert out.stdout.splitlines()[0].split()[0] == "label" and out.stderr == ""


def test_cli_defers_the_thread_pool_to_the_sieve(q3_zero_file, tmp_path):
    # `kernel_sums` imports concurrent.futures, which loads logging, only
    # when it sieves: the commands that never sieve load neither
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    runs = [["zeros", "--q", "3", "--tmax", "40", "--out", str(tmp_path / "z.txt")],
            ["table", "--name", "mod3", "--zeros", q3_zero_file, "--out",
             str(tmp_path / "mod3.csv"), "--plot-script", str(tmp_path / "plot.py")],
            ["li", "--q", "3", "--label", "1", "--method", "zeros", "--n", "1..4",
             "--zeros", q3_zero_file, "--format", "csv"],
            ["li", "--q", "3", "--label", "1", "--method", "arith", "--nu", "1",
             "--n", "1..2", "--format", "csv"]]
    out = subprocess.run(
        [sys.executable, "-c", "import sys\n"
         "from dirichlet_li.cli import main\n"
         f"for argv in {runs!r}:\n"
         "    assert main(argv) == 0\n"
         "    print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)), file=sys.stderr)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stderr.splitlines() == ["[]", "[]", "[]", "['concurrent.futures', 'logging']"]


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus"], ["--q", "3"],
    *([command, "--help"] for command in ("characters", "zeros", "li", "compare", "table")),
    ["characters"], ["zeros", "--tmax", "9"], ["li", "--q", "3"], ["compare", "--n", "1"],
    ["table"], ["li", "--q", "3", "--n", "1", "--method", "bogus"], ["table", "--name", "bogus"],
    ["table", "--name", "mod3", "--bogus"], ["li", "--q", "3", "--n", "1", "extra"],
])
def test_help_usage_and_errors_match_the_parser_of_every_command(argv, capsys):
    # main builds only the named command's parser; what argparse prints and
    # its exit status are those of the parser that builds all five
    from dirichlet_li.cli import _build_parser

    def text(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    code, out, err = expected = text(_build_parser().parse_args)
    assert text(main) == expected
    assert (err if code else out).startswith("usage: dirichlet-li")


# ----------------------------------------------------------------------------
# zeros command

def test_zeros_command(tmp_path, capsys):
    out_path = tmp_path / "z.txt"
    code, out, _ = run(capsys, "zeros", "--q", "3", "--tmax", "100",
                       "--out", str(out_path))
    assert code == 0
    assert "found 46 zeros" in out
    assert out_path.exists()
    header = out_path.read_text().splitlines()[0]
    assert header.startswith("# q=3 label=1 height=100")


def test_zeros_empty_warning(capsys):
    code, out, err = run(capsys, "zeros", "--q", "3", "--tmax", "5")
    assert code == 0
    assert "found 0 zeros" in out
    assert "no zeros below" in err


def test_zeros_needs_height(capsys):
    code, _, err = run(capsys, "zeros", "--q", "3")
    assert code == 2
    assert "need --tmax or --zeros-count" in err


def test_zeros_rejects_tmax_with_zeros_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--q", "3", "--tmax", "20", "--zeros-count", "5"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# li command

def test_li_csv_columns_and_exit(q3_zero_file, tmp_path, capsys):
    out_path = tmp_path / "li.csv"
    code, out, _ = run(capsys, "li", "--q", "3", "--n", "0..3",
                       "--method", "zeros", "--zeros", q3_zero_file,
                       "--format", "csv", "--out", str(out_path))
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5  # header + n = 0..3
    # n=0 row: lambda(0) = 0 by convention
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[4] == "0"
    # q=3 at T ~ 8.6e3 the tail form is applicable: finite bounds, exit 0
    assert code == 0
    assert out_path.read_text() == out


def test_li_infinite_bound_exits_nonzero(tmp_path, capsys):
    # a short list (T = 100, q = 3) sits where the tail form is inapplicable
    short = tmp_path / "short.txt"
    code, _, _ = run(capsys, "zeros", "--q", "3", "--tmax", "100",
                     "--out", str(short))
    assert code == 0
    code, out, _ = run(capsys, "li", "--q", "3", "--n", "1..2",
                       "--method", "zeros", "--zeros", str(short),
                       "--format", "csv")
    assert code == 1
    for line in out.strip().splitlines()[1:]:
        fields = dict(zip(CSV_COLUMNS, line.split(",")))
        assert fields["bound_zeros"] == "inf"


def test_li_finite_bounds_exit_zero(q3_zero_file, capsys):
    # arithmetic method always has a finite bound for nu >= 1
    code, out, _ = run(capsys, "li", "--q", "3", "--n", "1..2",
                       "--method", "arith", "--nu", "1", "--format", "csv")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        fields = dict(zip(CSV_COLUMNS, line.split(",")))
        assert math.isfinite(float(fields["bound_arith"]))
        assert fields["lambda_zeros"] == ""
        assert fields["positive"] == "yes"


def test_li_arith_sweep_rows_match_per_n(capsys):
    # one sweep for n = 1..12 gives the rows twelve separate li_arith calls give
    code, out, _ = run(capsys, "li", "--q", "60", "--label", "14", "--nu", "1",
                       "--n", "1..12", "--method", "arith", "--format", "csv")
    assert code == 0
    chi = character_by_label(60, 14)
    expected = []
    for n in range(1, 13):
        params = choose_M(n, 1)
        r = li_arith(n, chi, params)
        expected.append(",".join(_fmt(v) for v in (
            n, r.value, r.error_bound, params.M, None, None, None, None, r.positive)))
    assert out.strip().splitlines()[1:] == expected


def test_li_csv_deterministic(q3_zero_file, capsys):
    args = ("li", "--q", "3", "--n", "1..5", "--method", "zeros",
            "--zeros", q3_zero_file, "--format", "csv")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_li_zero_sum_columns_come_from_the_sweep(q3_zero_file, capsys):
    from dirichlet_li.lfunc import read_zeros
    from dirichlet_li.zerosum import li_zero_sum_sweep
    code, out, _ = run(capsys, "li", "--q", "3", "--n", "1..6",
                       "--method", "zeros", "--zeros", q3_zero_file,
                       "--format", "csv")
    assert code == 0
    swept = li_zero_sum_sweep(range(1, 7), read_zeros(q3_zero_file, chi_id=(3, 1)))
    for line, r in zip(out.strip().splitlines()[1:], swept, strict=True):
        fields = dict(zip(CSV_COLUMNS, line.split(",")))
        assert fields["N"] == _fmt(r.params.N)
        assert fields["T"] == _fmt(r.params.T)
        assert fields["bound_zeros"] == _fmt(r.error_bound)
        assert fields["lambda_zeros"] == _fmt(r.value)


ONTHEFLY_ARGS = ("li", "--method", "zeros", "--n", "2", "--k", "0", "--format", "csv")


def test_li_without_zero_file_scans_to_the_chosen_height(capsys):
    from dirichlet_li.lfunc import find_zeros_upper
    from dirichlet_li.zerosum import choose_T0, li_zero_sum_sweep
    code, out, err = run(capsys, *ONTHEFLY_ARGS, "--q", "5", "--label", "2")
    assert code == 0 and "note:" not in err
    zl = find_zeros_upper(character_by_label(5, 2), choose_T0(2, 0, 5))
    [r] = li_zero_sum_sweep([2], zl)
    row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert [row[c] for c in ("lambda_zeros", "bound_zeros", "N", "T")] == [
        _fmt(r.value), _fmt(r.error_bound), _fmt(r.params.N), _fmt(r.params.T)]


def test_li_without_zero_file_notes_a_complex_character(capsys):
    code, out, err = run(capsys, *ONTHEFLY_ARGS, "--q", "5", "--label", "1")
    assert code == 0
    assert "note: complex character 5.1" in err
    assert out.strip().splitlines()[1].startswith("2,")


def test_li_without_zero_file_sums_both_half_planes_of_a_complex_character(capsys):
    # each zero of 5.1 in either half plane enters once, not the upper ones twice
    from dirichlet_li.lfunc import find_zeros_merged
    from dirichlet_li.zerosum import choose_T0, li_zero_sum_sweep
    code, out, err = run(capsys, *ONTHEFLY_ARGS, "--q", "5", "--label", "1")
    assert code == 0 and "both half planes" in err
    zl = find_zeros_merged(character_by_label(5, 1), choose_T0(2, 0, 5))
    [r] = li_zero_sum_sweep([2], zl)
    row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert [row[c] for c in ("lambda_zeros", "bound_zeros", "N", "T")] == [
        _fmt(r.value), _fmt(r.error_bound), _fmt(r.params.N), _fmt(r.params.T)]


def test_li_with_a_one_sided_zero_file_notes_a_complex_character(zeros_q5_complex, capsys):
    # the file's upper-half-plane zeros keep the factor-2 sum on stdout
    from dirichlet_li.lfunc import read_zeros
    from dirichlet_li.zerosum import li_zero_sum_sweep
    path = CACHE_DIR / "zeros_5_1.txt"
    code, out, err = run(capsys, "li", "--q", "5", "--label", "1", "--method", "zeros",
                         "--n", "2", "--zeros", str(path), "--format", "csv")
    assert code == 0 and "not Re lambda" in err
    [r] = li_zero_sum_sweep([2], read_zeros(path, chi_id=(5, 1)))
    row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert row["lambda_zeros"] == _fmt(r.value)


def test_li_without_zero_file_notes_the_cap(capsys, monkeypatch):
    from dirichlet_li import cli
    monkeypatch.setattr(cli, "_MAX_ONTHEFLY_ZEROS", 50)
    _, out, err = run(capsys, *ONTHEFLY_ARGS, "--q", "5", "--label", "2")
    assert "note: capping zero scan" in err
    row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert int(row["N"]) <= 60


@pytest.mark.parametrize("n, T0, N", [(1, 3.0, "3"), (2, 3.896, "4")])
def test_li_without_zero_file_scans_on_until_the_bound_meets_its_target(n, T0, N, capsys,
                                                                       monkeypatch):
    # The chooser's height T0 holds one ordinate of 60.14, 1.88, below
    # max(n, 3), where the tail estimate does not apply; one doubling gives a
    # bound within the 3 * 10^0 target.  For n = 1, (log T)/T <= 4 pi / 9 at
    # every T >= e, so T0 = max(n, 3) instead of the 20,000-zero cap
    from dirichlet_li import cli
    heights = []
    scan = cli.find_zeros_upper
    monkeypatch.setattr(cli, "find_zeros_upper",
                        lambda chi, T: heights.append(T) or scan(chi, T))
    code, out, err = run(capsys, "li", "--q", "60", "--label", "14", "--method", "zeros",
                         "--n", str(n), "--k", "0", "--format", "csv")
    assert heights == [pytest.approx(T0, abs=1e-3), 2 * heights[0]] and "note:" not in err
    row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert row["N"] == N and 0 < float(row["bound_zeros"]) <= 3
    assert code == 0


@pytest.mark.parametrize("command", ["li", "compare"])
@pytest.mark.parametrize("k", [160, 310, 400])
def test_unreachable_tail_target_exits_2_before_any_scan(command, k, capsys, monkeypatch):
    # no finite height meets 3 * 10^-k: from k = 152 the tail estimate reads
    # inf (2 T^2 overflows), and from k = 324 10^-k is 0
    from dirichlet_li import cli

    def no_scan(chi, T):
        raise AssertionError("scanned zeros for an unreachable target")
    monkeypatch.setattr(cli, "find_zeros_upper", no_scan)
    code, out, err = run(capsys, command, "--q", "60", "--label", "14", "--n", "1",
                         "--k", str(k), *(("--method", "zeros") if command == "li" else ()))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("nu", [9, 200])
def test_li_nu_past_the_int64_sieve_exits_2(nu, capsys):
    code, out, err = run(capsys, "li", "--q", "3", "--n", "1", "--method", "arith",
                         "--nu", str(nu))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "2^62" in err


def test_li_zeros_n_past_float64_exits_2(capsys):
    # 9 n^2 no longer converts to a float above n = 1.3e154
    code, out, err = run(capsys, "li", "--q", "3", "--method", "zeros", "--n", "1" + "0" * 160)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_li_arith_past_n_36_matches_binomial_oracle(capsys):
    # the route end to end at n = 300 (M = 270,001): kernel sum plus the
    # paper's binomial term, to the 12 printed digits
    code, out, _ = run(capsys, "li", "--q", "3", "--method", "arith", "--nu", "1",
                       "--n", "300..300", "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
    chi = character_by_label(3, 1)
    M = int(row["M"])
    assert M == choose_M(300, 1).M
    ref = kernel_sums([300], chi, [M])[0].real + binomial_term_oracle(300, 3, chi.parity_a)
    assert abs(float(row["lambda_arith"]) - ref) <= 1e-12 * abs(ref)


def test_li_csv_round_trip(q3_zero_file, capsys):
    # re-parsing the CSV at 12 significant digits reproduces the fields
    code, out, _ = run(capsys, "li", "--q", "3", "--n", "1..4",
                       "--method", "zeros", "--zeros", q3_zero_file,
                       "--format", "csv")
    lines = out.strip().splitlines()
    for line in lines[1:]:
        fields = dict(zip(CSV_COLUMNS, line.split(",")))
        lam = float(fields["lambda_zeros"])
        assert f"{lam:.12g}" == fields["lambda_zeros"]


def test_li_rejects_wrong_zero_file(q3_zero_file, capsys):
    code, _, err = run(capsys, "li", "--q", "5", "--n", "1",
                       "--method", "zeros", "--zeros", q3_zero_file)
    assert code == 2
    assert "error:" in err


def test_li_missing_zero_file(capsys, tmp_path):
    code, _, err = run(capsys, "li", "--q", "3", "--n", "1",
                       "--method", "zeros",
                       "--zeros", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error" in err.lower()


def test_li_label_out_of_range(capsys):
    code, _, err = run(capsys, "li", "--q", "5", "--label", "7", "--n", "1",
                       "--method", "arith")
    assert code == 2
    assert "error:" in err


def test_li_malformed_zero_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# q=3 label=1 height=16\n8.0\ninf\n")
    code, _, err = run(capsys, "li", "--q", "3", "--label", "1", "--n", "1",
                       "--method", "zeros", "--zeros", str(path))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("argv", [
    ("li", "--q", "3", "--n", "1", "--method", "arith", "--nu", "0"),
    ("li", "--q", "3", "--n", "1", "--method", "arith", "--nu", "-1"),
    ("li", "--q", "3", "--n", "1", "--method", "zeros", "--k", "-1"),
    ("compare", "--q", "3", "--n", "1", "--nu", "0"),
    ("zeros", "--q", "3", "--tmax", "0.5"),
    ("zeros", "--q", "3", "--zeros-count", "-5"),
    ("table", "--name", "mod3", "--zeros-count", "0"),
    ("table", "--name", "mod3", "--zeros-count", "-5"),
])
def test_numeric_flag_lower_bounds(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be a finite number >=" in capsys.readouterr().err


def test_zeros_count_for_large_modulus(capsys, tmp_path):
    # the smooth main term reaches one zero below T = 1 for this modulus
    out_path = tmp_path / "z.txt"
    code, out, _ = run(capsys, "zeros", "--q", "9151", "--zeros-count", "1",
                       "--out", str(out_path))
    assert code == 0
    assert out.startswith("found ")
    assert out_path.exists()


# ----------------------------------------------------------------------------
# compare command

def test_compare_smoke(q3_zero_file, capsys):
    code, out, _ = run(capsys, "compare", "--q", "3", "--n", "1..2",
                       "--nu", "2", "--zeros", q3_zero_file)
    lines = out.strip().splitlines()
    assert any("timing:" in l for l in lines)
    verdicts = [l for l in lines if l.endswith("PASS") or l.endswith("FAIL")]
    assert len(verdicts) == 2
    assert code in (0, 1)  # per-n verdicts decide; both surfaces are exercised
    if code == 1:
        assert any("note:" in l for l in lines)


def test_compare_fail_verdict_exits_one_with_note(q3_zero_file, capsys):
    # at n = 4, nu = 3 the two routes differ by about 3.5e-2, far outside
    # the budget of about 1.1e-3
    code, out, _ = run(capsys, "compare", "--q", "3", "--n", "4..4", "--nu", "3",
                       "--zeros", q3_zero_file)
    lines = out.strip().splitlines()
    assert code == 1
    assert [l.split()[0] for l in lines if l.endswith("FAIL")] == ["4"]
    assert any(l.startswith("note: the truncation estimates") for l in lines)


def test_compare_columns_match_li_rows(q3_zero_file, capsys):
    # compare reports the values `li --method both` writes, from the same rows
    common = ("--q", "3", "--label", "1", "--n", "1..4", "--nu", "2",
              "--zeros", q3_zero_file)
    _, out, _ = run(capsys, "compare", *common)
    reported = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[-1] in ("PASS", "FAIL"):
            reported[int(parts[0])] = (parts[1], parts[2])
    code, out, _ = run(capsys, "li", *common, "--method", "both", "--format", "csv")
    assert code == 0
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in out.splitlines()[1:]]
    assert {int(r["n"]): (f"{float(r['lambda_arith']):.9f}",
                          f"{float(r['lambda_zeros']):.9f}") for r in rows} == reported
    assert sorted(reported) == [1, 2, 3, 4]


def test_compare_needs_positive_n(q3_zero_file, capsys):
    code, _, err = run(capsys, "compare", "--q", "3", "--n", "0",
                       "--zeros", q3_zero_file)
    assert code == 2
    assert "error:" in err


def test_compare_has_no_out_option(q3_zero_file, tmp_path, capsys):
    # compare writes no file, so it takes no --out to ignore
    path = tmp_path / "compare.csv"
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--q", "3", "--n", "1", "--nu", "2", "--zeros", q3_zero_file,
              "--out", str(path)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not path.exists()


# ----------------------------------------------------------------------------
# table command

def test_table_mod3(q3_zero_file, tmp_path, capsys):
    csv_path = tmp_path / "mod3.csv"
    script_path = tmp_path / "plot.py"
    code, out, _ = run(capsys, "table", "--name", "mod3",
                       "--zeros", q3_zero_file, "--out", str(csv_path),
                       "--plot-script", str(script_path))
    assert code == 0
    assert "assumption:" in out
    assert "largest deviation" in out
    assert csv_path.exists() and script_path.exists()
    assert "matplotlib" in script_path.read_text()
    # published column reproduced to table precision for the first rows
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "1":
            assert abs(float(parts[3])) < 1e-3


def test_table_without_zero_file_scans_the_same_list(q3_zero_file, tmp_path, capsys,
                                                     monkeypatch):
    from dirichlet_li import cli
    from dirichlet_li.lfunc import height_for_count, read_zeros
    heights = []

    def fake_scan(chi, T):
        heights.append(T)
        return read_zeros(q3_zero_file, chi_id=(chi.modulus, chi.label))

    monkeypatch.setattr(cli, "find_zeros_upper", fake_scan)
    common = ("table", "--name", "mod3", "--plot-script", str(tmp_path / "plot.py"))
    assert run(capsys, *common, "--out", str(tmp_path / "scan.csv"))[0] == 0
    assert heights == [height_for_count(3, 10 ** 4)]
    assert run(capsys, *common, "--zeros", q3_zero_file,
               "--out", str(tmp_path / "file.csv"))[0] == 0
    assert heights == [height_for_count(3, 10 ** 4)]
    assert (tmp_path / "scan.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


def test_table_csv_positive_column_reads_yes_or_no(q3_zero_file, tmp_path, capsys):
    code, out, _ = run(capsys, "table", "--name", "mod3", "--zeros", q3_zero_file,
                       "--out", str(tmp_path / "mod3.csv"),
                       "--plot-script", str(tmp_path / "plot.py"), "--format", "csv")
    assert code == 0
    csv_lines = [l for l in out.splitlines() if l.count(",") == len(CSV_COLUMNS) - 1]
    assert csv_lines[0] == ",".join(CSV_COLUMNS)
    positive = {dict(zip(CSV_COLUMNS, l.split(",")))["positive"] for l in csv_lines[1:]}
    assert positive and positive <= {"yes", "no"}


def test_table_insufficient_zeros(tmp_path, capsys):
    from dirichlet_li.lfunc import ZeroList, ZeroRecord
    short = ZeroList(chi_id=(3, 1),
                     records=(ZeroRecord(gamma=8.04), ZeroRecord(gamma=11.25)),
                     height=12.0, provenance="computed")
    path = tmp_path / "short.txt"
    write_zeros(path, short)
    code, _, err = run(capsys, "table", "--name", "mod3",
                       "--zeros", str(path))
    assert code == 2
    assert "10^4" in err


def test_li_bad_symmetric_header_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# q=3 label=1 height=16\n# symmetric=no\n8.0\n")
    code, _, err = run(capsys, "li", "--q", "3", "--label", "1", "--n", "1",
                       "--method", "zeros", "--zeros", str(path))
    assert code == 2
    assert "line 2" in err


def test_li_pair_prints_twice_the_arithmetic_value(capsys):
    from dirichlet_li.arith import li_arith_sweep
    code, out, _ = run(capsys, "li", "--q", "5", "--label", "1", "--method", "arith",
                       "--nu", "1", "--n", "1..2", "--pair")
    assert code == 0
    values = [r.value for r in li_arith_sweep([1, 2], character_by_label(5, 1), 1)]
    pair_lines = [l for l in out.splitlines() if l.startswith("#")]
    assert pair_lines == [f"# n={n}: conjugate-paired sum lambda_chi + lambda_chibar = "
                          f"{_fmt(2 * v)}" for n, v in zip((1, 2), values)]
