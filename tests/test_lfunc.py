"""L-values, the completed function, the zero finder and zero-file I/O."""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dirichlet_li import fastzeros
from dirichlet_li.characters import (character_by_label, enumerate_characters,
                                     gauss_sum, real_primitive_character)
from dirichlet_li.errors import (ComplexCharacterUnsupported, ModulusMismatch,
                                 NotPrimitive, ParseError, PrincipalCharacter)
from dirichlet_li.lfunc import (ZERO_DTYPE, ZeroList, ZeroRecord, completeness_tolerance,
                                find_zeros, find_zeros_merged,
                                find_zeros_upper, hardy_z, height_for_count,
                                l_value, n_formula, read_zeros, write_zeros,
                                xi_value)
from dirichlet_li.precision import PrecisionConfig

PREC = PrecisionConfig(working_bits=128)
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "data"


# ----------------------------------------------------------------------------
# values

def test_l_value_catalan():
    # L(2, chi_4) = Catalan's constant
    chi4 = real_primitive_character(4)
    with mpmath.workprec(140):
        catalan = mpmath.mpf(
            "0.91596559417721901505460351493238411077414937428167")
        assert abs(l_value(2, chi4, PREC) - catalan) < 1e-35


def test_l_value_at_one_mod3():
    # L(1, chi_{-3}) = pi / (3 sqrt 3)
    chi3 = real_primitive_character(3)
    with mpmath.workprec(140):
        ref = mpmath.pi / (3 * mpmath.sqrt(3))
        assert abs(l_value(1, chi3, PREC) - ref) < 1e-35


def test_l_value_dirichlet_series():
    # direct series at s = 3 converges fast enough for a 1e-12 cross-check
    chi5 = real_primitive_character(5)
    with mpmath.workprec(140):
        direct = mpmath.fsum(chi5.real_value(k) / mpmath.mpf(k) ** 3
                             for k in range(1, 20000))
        assert abs(l_value(3, chi5, PREC) - direct) < 1e-12


def test_l_value_conjugate_reflection():
    # L(conj(s), conj(chi)) = conj(L(s, chi))
    chi = character_by_label(5, 1)
    chibar = next(c for c in enumerate_characters(5)
                  if all((e is None) == (f is None) and
                         (e is None or (e + f) % c.order == 0)
                         for e, f in zip(c.exponents, chi.exponents))
                  and c.order == chi.order)
    s = mpmath.mpc(0.7, 3.2)
    with mpmath.workprec(140):
        lhs = l_value(mpmath.conj(s), chibar, PREC)
        rhs = mpmath.conj(l_value(s, chi, PREC))
        assert abs(lhs - rhs) < 1e-30


def test_l_value_rejects_principal():
    chi0 = enumerate_characters(5)[0]
    with pytest.raises(PrincipalCharacter):
        l_value(2, chi0, PREC)


def test_functional_equation():
    # xi(s, chi) = omega xi(1 - s, conj chi); real chi so conj chi = chi
    chi3 = real_primitive_character(3)
    s = mpmath.mpc(0.3, 2)
    with mpmath.workprec(140):
        omega = gauss_sum(chi3, PREC).root_number_omega
        lhs = xi_value(s, chi3, PREC)
        rhs = omega * xi_value(1 - s, chi3, PREC)
        assert abs(lhs - rhs) <= 1e-15 * max(1, abs(lhs))


def test_hardy_z_real_and_sign_change():
    chi3 = real_primitive_character(3)
    za = hardy_z(8.0, chi3, PREC)
    zb = hardy_z(8.1, chi3, PREC)
    assert isinstance(za, mpmath.mpf)  # rotation produced a real value
    assert float(za) * float(zb) < 0  # first zero sits inside [8.0, 8.1]


def test_hardy_z_rejects_complex_character():
    with pytest.raises(ComplexCharacterUnsupported):
        hardy_z(5.0, character_by_label(5, 1), PREC)


# ----------------------------------------------------------------------------
# counting formula

def test_n_formula_examples():
    # q = 3, T = 100: (1/2pi) T log T + c1 T
    c1 = (math.log(3) - math.log(2 * math.pi) - 1) / (2 * math.pi)
    assert n_formula(100, 3) == pytest.approx(
        100 * math.log(100) / (2 * math.pi) + c1 * 100)
    chi3 = real_primitive_character(3)
    assert n_formula(50, chi3) == n_formula(50, 3)
    with pytest.raises(ValueError):
        n_formula(0.5, 3)


def test_height_for_count_inverts_n_formula():
    for q, count in [(3, 100), (5, 10 ** 4), (60, 500)]:
        T = height_for_count(q, count)
        assert n_formula(T, q) == pytest.approx(count, abs=1e-6)


# ----------------------------------------------------------------------------
# zero finder

def bisect_first_zero_oracle():
    """Low-tech bisection of the rotated completed function on [8.0, 8.1]
    at elevated precision, independent of the grid scanner."""
    chi3 = real_primitive_character(3)
    prec = PrecisionConfig(working_bits=160)
    lo, hi = mpmath.mpf("8.0"), mpmath.mpf("8.1")
    flo = hardy_z(lo, chi3, prec)
    for _ in range(40):
        mid = (lo + hi) / 2
        fmid = hardy_z(mid, chi3, prec)
        if mpmath.sign(fmid) == mpmath.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return float((lo + hi) / 2)


def test_first_zero_mod3(zeros_q3):
    oracle = bisect_first_zero_oracle()
    assert abs(oracle - 8.0397) < 5e-4  # the published 4-digit value
    assert abs(zeros_q3.records[0].gamma - oracle) <= 1e-6


@pytest.mark.parametrize("T", [20, 50, 100])
def test_zero_counts_against_formula(T, zeros_q3):
    count = zeros_q3.count_below(T)
    assert abs(count - n_formula(T, 3)) <= completeness_tolerance(T)


@pytest.mark.parametrize("q", [9151, 100003])
@pytest.mark.parametrize("count", [1, 2])
def test_height_for_count_stays_at_one(q, count):
    # a large modulus reaches a small count below T = 1, where the smooth
    # main term is undefined; the height is clamped at 1
    assert height_for_count(q, count) >= 1


def test_height_for_count_is_exact_inverse():
    checked = 0
    for q in (3, 4, 5, 8, 20, 60, 97, 997, 9151, 100003):
        for count in (2, 5, 10, 100, 500, 1500, 10 ** 4, 10 ** 5):
            T = height_for_count(q, count)
            if T > 1:
                assert n_formula(T, q) == pytest.approx(count, rel=1e-12), (q, count)
                checked += 1
    assert checked > 70
    assert height_for_count(9151, 1) == 1.0


def test_zero_certificates(zeros_q3):
    # each of the first few reported ordinates is certified by a sign change
    # of the rotated function across [gamma - h, gamma + h]
    chi3 = real_primitive_character(3)
    prec = PrecisionConfig(working_bits=96)
    h = 1e-6
    for rec in zeros_q3.records[:8]:
        a = float(hardy_z(rec.gamma - h, chi3, prec))
        b = float(hardy_z(rec.gamma + h, chi3, prec))
        assert a * b < 0, rec.gamma


def test_zero_certificate_at_top_of_list(zeros_q3):
    # the oracle brackets the last of the 10^4 ordinates (t near 8585); xi is
    # about 1e-2930 there, so the signs are read in big floats, not floats
    chi3 = real_primitive_character(3)
    prec = PrecisionConfig(working_bits=96)
    gamma = zeros_q3.records[-1].gamma
    assert gamma > 8000
    a = hardy_z(gamma - 1e-6, chi3, prec)
    b = hardy_z(gamma + 1e-6, chi3, prec)
    assert mpmath.sign(a) * mpmath.sign(b) == -1, (gamma, a, b)


def test_find_zeros_rejects_complex_and_principal():
    with pytest.raises(ComplexCharacterUnsupported):
        find_zeros(character_by_label(5, 1), 30)
    with pytest.raises(PrincipalCharacter):
        find_zeros(enumerate_characters(5)[0], 30)


def test_find_zeros_rejects_imprimitive():
    # 12.1 is real with conductor 3; a scan mod 12 returns spurious
    # ordinates beside the zeros of its primitive character 3.1
    chi = character_by_label(12, 1)
    assert chi.is_real and not chi.is_primitive
    with pytest.raises(NotPrimitive):
        find_zeros(chi, 30)


def test_find_zeros_upper_matches_find_zeros_for_real():
    chi3 = real_primitive_character(3)
    a = find_zeros(chi3, 40)
    b = find_zeros_upper(chi3, 40)
    assert len(a) == len(b)
    for ra, rb in zip(a.records, b.records):
        assert ra.gamma == pytest.approx(rb.gamma, abs=1e-9)


def test_find_zeros_merged_counts():
    # complex character: both half planes, roughly twice the one-sided count
    chi = character_by_label(5, 1)
    up = find_zeros_upper(chi, 40)
    merged = find_zeros_merged(chi, 40)
    assert not merged.symmetric
    assert abs(len(merged) - 2 * len(up)) <= 2
    # the merged ordinates are not the one-sided ones duplicated
    assert len({round(r.gamma, 6) for r in merged.records}) == len(merged)


def test_find_zeros_merged_merges_coinciding_scans(monkeypatch):
    # each fake half-plane scan passes the count check at T = 10 (n_formula
    # 1.7, tolerance 4.3); the 1e-12 pair becomes one record of alpha 2
    found = {1: np.array([1.0, 2.0]), -1: np.array([2.0 + 1e-12, 3.0])}

    def fake_scan(chi, t_max, refine_factor=1, side=1):
        return found[side]

    monkeypatch.setattr(fastzeros, "scan_zeros", fake_scan)
    merged = find_zeros_merged(character_by_label(5, 1), 10.0)
    assert merged.gammas().tolist() == [1.0, 2.0, 3.0]
    assert merged.alphas().tolist() == [1, 2, 1]
    assert not merged.symmetric


# ----------------------------------------------------------------------------
# zero files

def test_zero_file_round_trip(tmp_path):
    records = tuple(ZeroRecord(gamma=g) for g in (8.039737, 11.249201, 15.704618))
    zl = ZeroList(chi_id=(3, 1), records=records, height=16.0,
                  provenance="computed")
    path = tmp_path / "zeros.txt"
    write_zeros(path, zl)
    back = read_zeros(path, chi_id=(3, 1))
    assert back.chi_id == (3, 1)
    assert back.height == 16.0
    assert back.symmetric
    for r0, r1 in zip(zl.records, back.records):
        assert r0.gamma == r1.gamma  # 12 significant digits round-trip floats here


def test_zero_file_asymmetric_round_trip(tmp_path):
    records = tuple(ZeroRecord(gamma=g) for g in (2.5, 3.75))
    zl = ZeroList(chi_id=(5, 1), records=records, height=4.0,
                  provenance="computed", symmetric=False)
    path = tmp_path / "zeros.txt"
    write_zeros(path, zl)
    assert not read_zeros(path).symmetric


@pytest.mark.parametrize("name", ["3_1", "5_1", "20_6", "60_14"])
def test_zero_file_rewrite_is_byte_identical(tmp_path, name):
    source = REFERENCE_DIR / f"zeros_{name}.txt"
    path = tmp_path / "zeros.txt"
    write_zeros(path, read_zeros(source))
    assert path.read_bytes() == source.read_bytes()


def test_zero_file_multiplicities_round_trip(tmp_path):
    records = (ZeroRecord(2.5), ZeroRecord(3.75, alpha=2), ZeroRecord(4.0, alpha=3))
    zl = ZeroList(chi_id=(5, 1), records=records, height=5.0,
                  provenance="imported", symmetric=False)
    assert zl.alphas().tolist() == [1, 2, 3]
    path = tmp_path / "zeros.txt"
    write_zeros(path, zl)
    assert path.read_text().splitlines()[-2:] == ["3.75 2", "4 3"]
    back = read_zeros(path)
    assert back.gammas().tolist() == [2.5, 3.75, 4.0]
    assert back.alphas().tolist() == [1, 2, 3]
    assert back.count_below(3.9) == 3


def test_zero_list_columns_are_views():
    zl = read_zeros(REFERENCE_DIR / "zeros_3_1.txt")
    assert np.shares_memory(zl.gammas(), zl.records)
    assert np.shares_memory(zl.alphas(), zl.records)
    assert zl.gammas().dtype == np.float64 and zl.alphas().dtype == np.int64


def test_zero_file_modulus_mismatch(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("# q=3 label=1 height=16\n8.04\n")
    with pytest.raises(ModulusMismatch):
        read_zeros(path, chi_id=(5, 1))


@pytest.mark.parametrize("body,msg", [
    ("# q=3 label=1 height=16\n9.0\n8.0\n", "ascending"),
    ("# q=3 label=1 height=16\n8.0 2 junk\n", "too many"),
    ("# q=3 label=1 height=16\nnot-a-number\n", "bad record"),
    ("8.0\n", "missing header"),
    ("# q=3 label=1 height=16\n-4.0\n", "positive"),
    ("# q=three label=1 height=16\n8.0\n", "line 1: bad header field q"),
    ("# q=3\n# label=1.5 height=16\n8.0\n", "line 2: bad header field label"),
    ("# q=3 label=1 height=high\n8.0\n", "line 1: bad header field height"),
    ("# q=3 label=1 height=16\n8.0\n9.0 0\n", "line 3: multiplicity"),
    # a form feed or vertical tab separates fields but does not end a line
    ("# q=3 label=1 height=16\n9.0\f2\v\n8.0\n", "line 3: .*ascending"),
    ("# q=3 label=1 height=16\n8.0\nnan\n", "line 3: .*finite"),
    ("# q=3 label=1 height=16\n8.0\ninf\n", "line 3: .*finite"),
    ("# q=3 label=1 height=nan\n8.0\n", "line 1: height must be finite"),
    ("# q=3 label=1 height=16\n# provenance=measured\n8.0\n", "line 2: bad provenance"),
])
def test_zero_file_parse_errors(tmp_path, body, msg):
    path = tmp_path / "zeros.txt"
    path.write_text(body)
    with pytest.raises(ParseError, match=msg):
        read_zeros(path)


def test_zero_file_blank_lines_spaces_and_late_header(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("\n  8.04  \n\n\t11.25 2\n   \n# q=3 label=1 height=16\n"
                    "  # provenance=computed\n")
    zl = read_zeros(path, chi_id=(3, 1))
    assert zl.gammas().tolist() == [8.04, 11.25]
    assert zl.alphas().tolist() == [1, 2]
    assert (zl.height, zl.provenance, zl.symmetric) == (16.0, "computed", True)


def test_zero_file_header_only_reads_as_empty_list(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("# q=3 label=1 height=16\n")
    zl = read_zeros(path)
    assert len(zl) == 0 and zl.records.dtype == ZERO_DTYPE
    assert zl.count_below(100.0) == 0


@pytest.mark.parametrize("body,msg", [
    ("# q=3 label=1 height=16\n8.0\n7.0\n9.0 0\n", "line 3: .*ascending"),
    ("# q=3 label=1 height=16\n8.0\n\nnan\n-1.0\n", "line 4: .*finite"),
    ("# q=3 label=1 height=16\n-2.0\n-1.0 0\n", "line 2: .*positive"),
    # record rules are checked before the height and provenance rules
    ("# q=3 label=1 height=-1\n# provenance=measured\n8.0\n7.0\n", "line 4: .*ascending"),
    ("# q=3 label=1 height=-1\n# provenance=measured\n8.0\n", "line 1: height must be"),
    # parse faults are reported in file order, whatever their kind
    ("# q=3 label=1 height=16\n8.0 2 junk\nnot-a-number\n", "line 2: too many fields"),
    ("# q=3 label=1 height=16\nnot-a-number\n8.0 2 junk\n", "line 2: bad record"),
    # the whole file is parsed before any rule is checked
    ("# q=3 label=1 height=16\n9.0\n8.0\n# symmetric=no\n", "line 4: bad symmetric"),
])
def test_zero_file_with_two_faults_reports_the_first(tmp_path, body, msg):
    path = tmp_path / "zeros.txt"
    path.write_text(body)
    with pytest.raises(ParseError, match=msg):
        read_zeros(path)


def _read_line_by_line(path):
    """Reference reader: each line of the file classified on its own, lines
    ending at \\n, \\r\\n or \\r.  Returns (ordinates, multiplicities, header
    fields), or (fault kind, line number) for the first fault."""
    text = path.read_bytes().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    gammas, alphas, numbers, header = [], [], [], {}
    for n, line in enumerate((raw.strip() for raw in text.split("\n")), 1):
        if not line or line[0] == "#":
            header.update(tok.split("=", 1) for tok in line[1:].split() if "=" in tok)
            continue
        parts = line.split()
        try:
            gammas.append(float(parts[0]))
            alphas.append(int(parts[1]) if len(parts) > 1 else 1)
        except ValueError:
            return "bad record", n
        if len(parts) > 2:
            return "too many fields", n
        numbers.append(n)
    for g0, g1, n in zip(gammas, gammas[1:], numbers[1:]):
        if g1 <= g0:
            return "ascending", n
    return gammas, alphas, header


@pytest.mark.parametrize("seed", range(4))
def test_zero_file_reader_routes_agree(tmp_path, seed):
    # files in every layout: a header block or headers among the records,
    # blank and space-only lines, \f and \v around and between fields, a
    # multiplicity column, \r\n or \r line ends, and at most one fault; the
    # usual layout (header block, bare ordinates) is read in one pass, any
    # other line by line, and both must agree with the reference reader
    rng = np.random.default_rng(seed)
    path = tmp_path / "zeros.txt"
    seen = set()
    for _ in range(150):
        lines = [f"{g:.12g}" for g in np.cumsum(rng.uniform(0.01, 2.0, rng.integers(0, 30)))]
        interleave, blanks, mult, padded, fault = rng.random(5) < 0.3
        if mult:
            for i in rng.integers(0, len(lines), 3) if lines else ():
                lines[i] += rng.choice([" 2", "\f3", "\v2\v", "\t1"])
        if padded:
            lines = [rng.choice(["", " ", "\f", "\v", "\t"]) + line + rng.choice(["", " ", "\v"])
                     for line in lines]
        if fault and lines:
            i = int(rng.integers(len(lines)))
            kind = rng.integers(3)
            if kind == 2 and i + 1 < len(lines):
                lines[i], lines[i + 1] = lines[i + 1], lines[i]
            else:
                lines[i] = ["not-a-number", lines[i].strip() + " 2 junk"][kind % 2]
        extra = [rng.choice(["# provenance=computed", "# symmetric=false", "# symmetric=True"])]
        if interleave:
            lines.insert(int(rng.integers(len(lines) + 1)), extra.pop())
        if blanks:
            for _ in range(3):
                lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", "  ", "\t \f"]))
        head = [" "] * int(rng.integers(2)) + ["# q=3 label=1 height=100"] + extra
        eol = rng.choice(["\n", "\r\n", "\r"])
        body = eol.join(head + lines) + rng.choice(["", eol, eol + " " + eol])
        path.write_bytes(body.encode("utf-8"))
        expected = _read_line_by_line(path)
        seen.add((bool(interleave or blanks or mult), expected[0] if len(expected) == 2 else "read"))
        if len(expected) == 2:
            kind, line_number = expected
            with pytest.raises(ParseError, match=kind) as exc:
                read_zeros(path)
            assert exc.value.line_number == line_number, body
            continue
        gammas, alphas, header = expected
        zl = read_zeros(path, chi_id=(3, 1))
        assert zl.gammas().tobytes() == np.array(gammas, np.float64).tobytes(), body
        assert zl.alphas().tolist() == alphas, body
        assert zl.height == float(header["height"]) == 100.0
        assert zl.provenance == header.get("provenance", "imported")
        assert zl.symmetric == (header.get("symmetric", "true").lower() == "true")
    # both layouts read, and each kind of fault found in both
    assert seen == {(other, kind) for other in (False, True)
                    for kind in ("read", "bad record", "too many fields", "ascending")}


def test_zero_list_from_structured_array_is_a_read_only_copy():
    pairs = [(2.5, 1), (3.75, 2), (4.0, 1)]
    raw = np.array(pairs, dtype=ZERO_DTYPE)
    kw = dict(chi_id=(5, 1), height=5.0, provenance="computed")
    from_array = ZeroList(records=raw, **kw)
    from_pairs = ZeroList(records=[ZeroRecord(g, a) for g, a in pairs], **kw)
    for zl in (from_array, ZeroList(records=from_pairs.records, **kw)):
        assert zl.records.dtype == from_pairs.records.dtype
        assert zl.gammas().tolist() == from_pairs.gammas().tolist()
        assert zl.alphas().tolist() == from_pairs.alphas().tolist()
        assert not zl.records.flags.writeable
    assert not np.shares_memory(from_array.records, raw)
    assert not np.shares_memory(from_pairs.records,
                                ZeroList(records=from_pairs.records, **kw).records)
    raw["gamma"][0] = 1.0
    assert from_array.gammas()[0] == 2.5


@pytest.mark.parametrize("height", [math.nan, math.inf, 0.0, -1.0])
def test_zero_list_rejects_bad_height(height):
    with pytest.raises(ValueError, match="height must be finite"):
        ZeroList(chi_id=(3, 1), records=(ZeroRecord(8.0),), height=height,
                 provenance="computed")


def test_zero_list_rejects_bad_provenance():
    with pytest.raises(ValueError, match="bad provenance"):
        ZeroList(chi_id=(3, 1), records=(ZeroRecord(8.0),), height=10.0,
                 provenance="measured")


def test_zero_list_validation():
    with pytest.raises(ValueError):
        ZeroList(chi_id=(3, 1),
                 records=(ZeroRecord(gamma=9.0), ZeroRecord(gamma=8.0)),
                 height=10.0, provenance="computed")
    with pytest.raises(ValueError):
        ZeroRecord(gamma=-1.0)
    with pytest.raises(ValueError):
        ZeroRecord(gamma=1.0, alpha=0)


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_zero_list_rejects_non_finite_ordinates(gamma):
    from dirichlet_li.lfunc import ZERO_DTYPE
    with pytest.raises(ValueError, match="finite"):
        ZeroRecord(gamma=gamma)
    raw = np.array([(8.0, 1), (gamma, 1)], dtype=ZERO_DTYPE)
    with pytest.raises(ValueError, match="finite"):
        ZeroList(chi_id=(3, 1), records=raw, height=10.0, provenance="computed")


@pytest.mark.parametrize("value", ["no", "yes", "0", ""])
def test_zero_file_rejects_bad_symmetric_header(tmp_path, value):
    path = tmp_path / "zeros.txt"
    path.write_text(f"# q=3 label=1 height=16\n# symmetric={value}\n8.0\n")
    with pytest.raises(ParseError, match="line 2: bad symmetric"):
        read_zeros(path)
    for ok, symmetric in (("TRUE", True), ("False", False)):
        path.write_text(f"# q=3 label=1 height=16\n# symmetric={ok}\n8.0\n")
        assert read_zeros(path).symmetric is symmetric
