"""The double-precision zero finder: its Z' and the brackets behind each ordinate."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dirichlet_li import fastzeros
from dirichlet_li.characters import character_by_label, gauss_sum
from dirichlet_li.errors import CompletenessCheckFailed
from dirichlet_li.fastzeros import (FastLEvaluator, _bernoulli_coeffs,
                                   _brackets_from_grid, _newton)
from dirichlet_li.lfunc import (find_zeros_upper, hardy_z, height_for_count,
                                l_value, read_zeros, xi_value)

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def tail_sum_by_class(ev, t, N):
    """The Euler-Maclaurin tail summed class by class, each Bernoulli term
    from the one before (reference for the one-matrix-product form)."""
    s = 0.5 + 1j * t
    b = _bernoulli_coeffs()
    out = np.zeros(t.shape, dtype=np.complex128)
    for a, w in zip(ev.residues, ev.res_values):
        na = N + a / ev.q
        na_ms = np.exp(-s * math.log(na))
        term = b[0] * s * na_ms / na
        tail = na_ms * na / (s - 1) + na_ms / 2 + term
        for r in range(1, len(b)):
            term = term * (b[r] / b[r - 1]) * (s + 2 * r - 1) * (s + 2 * r) / (na * na)
            tail = tail + term
            if np.max(np.abs(term)) < 1e-18:
                break
        out += w * tail
    return out * np.exp(-s * math.log(ev.q))


def _cell_expansions(ev, t0, h, count, brackets):
    """The expansions of `count` grid cells of width h from t0, one per cell
    around its midpoint as a scan builds its spans', and each bracket's cell's
    (centre, coef), the expansion `_newton` reads for it."""
    centres = t0 + (np.arange(count) + 0.5) * h
    coef = ev.leading_sum_taylor(centres, 0.5 * h, h)
    j = np.clip(((0.5 * (brackets[0] + brackets[1]) - t0) // h).astype(np.intp), 0, count - 1)
    return centres[j], coef[j]


def _no_direct_evaluation(ev, monkeypatch):
    """Make building an expansion or evaluating Z directly raise on ev."""
    def direct(*args, **kwargs):
        raise AssertionError("direct evaluation inside the refinement")

    monkeypatch.setattr(ev, "leading_sum_taylor", direct)
    monkeypatch.setattr(ev, "z_and_derivative", direct)


@pytest.mark.parametrize("q, label", [(3, 1), (5, 1), (60, 14)])
def test_tail_matches_class_by_class_sum(q, label):
    ev = FastLEvaluator(character_by_label(q, label))
    for T in (20.0, 500.0, 8600.0):
        t = np.linspace(T - 5, T, 64)
        N = ev._em_n(T)
        # float64 sums of ~40 terms below 1 in another order
        np.testing.assert_allclose(ev._tail_sum(t, N)[0],
                                   tail_sum_by_class(ev, t, N), rtol=0, atol=1e-14)


@pytest.mark.parametrize("q, label", [(3, 1), (5, 1)])
def test_z_derivative_matches_central_difference(q, label):
    ev = FastLEvaluator(character_by_label(q, label))
    t = np.array([5.3, 14.2, 100.7, 1234.5, 5000.1, -37.2])
    z, dz = ev.z_and_derivative(t)
    assert np.array_equal(z, ev.z_values(t))
    h = 1e-5
    central = (ev.z_values(t + h) - ev.z_values(t - h)) / (2 * h)
    assert np.all(np.abs(dz - central) <= 1e-6 * np.abs(dz))


@pytest.mark.parametrize("q, label", [(3, 1), (5, 1)])
def test_ordinates_sit_in_sign_change_brackets(q, label):
    chi = character_by_label(q, label)
    gammas = find_zeros_upper(chi, height_for_count(q, 230)).gammas()[:200]
    assert gammas.size == 200
    ev = FastLEvaluator(chi)
    assert np.all(ev.z_values(gammas - 1e-11) * ev.z_values(gammas + 1e-11) < 0)


@pytest.mark.parametrize("q, label", [(3, 1), (5, 1), (20, 6), (60, 14)])
def test_first_zeros_match_stored_lists(q, label):
    ref = read_zeros(REFERENCE_DIR / f"zeros_{q}_{label}.txt",
                     chi_id=(q, label)).gammas()[:500]
    chi = character_by_label(q, label)
    gammas = find_zeros_upper(chi, height_for_count(q, 530)).gammas()[:500]
    assert gammas.size == ref.size == 500
    # one unit of the 12th printed digit of the stored list, plus the
    # finder's 1e-11 bracket width
    tol = 10.0 ** (np.floor(np.log10(gammas)) - 11) + 2e-11
    assert np.all(np.abs(gammas - ref) <= tol)


@pytest.mark.parametrize("fixture, q, label", [("zeros_q3", 3, 1), ("zeros_q5_complex", 5, 1),
                                               ("zeros_q20", 20, 6), ("zeros_q60", 60, 14)])
def test_fixture_lists_match_stored_lists(fixture, q, label, request):
    # every ordinate of the session's 10^4-zero lists, which are scanned
    # anyway, at the tolerance of test_first_zeros_match_stored_lists
    ref = read_zeros(REFERENCE_DIR / f"zeros_{q}_{label}.txt", chi_id=(q, label)).gammas()
    gammas = request.getfixturevalue(fixture).gammas()[:ref.size]
    assert gammas.size == ref.size == 10 ** 4
    tol = 10.0 ** (np.floor(np.log10(gammas)) - 11) + 2e-11
    assert np.all(np.abs(gammas - ref) <= tol)


@pytest.mark.parametrize("q, label", [(3, 1), (60, 14)])
def test_refinement_evaluates_few_points_per_zero(q, label, monkeypatch):
    points = []
    evaluate = FastLEvaluator.z_from_taylor

    def counted(self, t, centres, coef, derivative=True):
        points.append(np.size(t))
        return evaluate(self, t, centres, coef, derivative)

    monkeypatch.setattr(FastLEvaluator, "z_from_taylor", counted)
    zeros = find_zeros_upper(character_by_label(q, label), height_for_count(q, 500))
    # every point the scan evaluates (grid, rescue sub-grids and Newton steps):
    # about 11.1 per zero for 3.1 and 9.0 for 60.14, most of them on the grid
    assert sum(points) <= 12 * len(zeros)


def test_refinement_closes_where_float_spacing_exceeds_tol(monkeypatch):
    # above t = 2^16 adjacent floats are 1.46e-11 apart, wider than the 1e-11
    # target: brackets close at two spacings instead of running to the
    # iteration cap, all 5 reading their cell's expansion, built beforehand
    # (the passes are counted in test_expansion_passes_close_where_...)
    ev = FastLEvaluator(character_by_label(3, 1))
    t = 70000 + np.arange(40) * 0.1
    brackets = _brackets_from_grid(t, ev.z_values(t))
    expansion = _cell_expansions(ev, 70000.0, 0.1, 39, brackets)
    _no_direct_evaluation(ev, monkeypatch)
    gammas = _newton(ev, brackets, *expansion)
    assert gammas.size == 5


def test_root_number_angle_matches_big_float_gauss_sum():
    # the float64 Gauss sum's angle against mpmath's, for every primitive
    # character with q <= 100; exactly 0 for the real ones (omega = 1)
    import mpmath

    from dirichlet_li.characters import enumerate_characters, gauss_sum
    for q in range(3, 101):
        for chi in enumerate_characters(q):
            if not chi.is_primitive:
                continue
            angle = FastLEvaluator(chi).omega_angle
            if chi.is_real:
                assert angle == 0.0
                continue
            ref = float(mpmath.arg(gauss_sum(chi).root_number_omega))
            diff = (angle - ref + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) <= 1e-14, (q, chi.label)


@pytest.mark.parametrize("q, label", [(3, 1), (5, 1), (60, 14)])
def test_taylor_expansion_matches_direct_evaluator(q, label):
    ev = FastLEvaluator(character_by_label(q, label))
    for T in (20.0, 1500.0, 8600.0):
        # the scan's grid step at height T; brackets are at most one step wide
        radius = min(0.2, math.pi / math.log(q * T)) / 2
        centres = T + np.arange(40) * 2 * radius
        coef = ev.leading_sum_taylor(centres, radius, step=2 * radius)
        j = np.repeat(np.arange(centres.size), 9)
        t = centres[j] + np.tile(np.linspace(-radius, radius, 9), centres.size)
        z, dz = ev.z_from_taylor(t, centres[j], coef[j])
        z_ref, dz_ref = ev.z_and_derivative(t)
        assert np.all(np.abs(z - z_ref) <= 1e-6 * np.abs(z_ref) + 1e-12), (q, T)
        assert np.all(np.abs(dz - dz_ref) <= 1e-6 * np.abs(dz_ref)), (q, T)


def test_newton_on_no_brackets_returns_empty():
    ev = FastLEvaluator(character_by_label(3, 1))
    empty = np.zeros(0)
    brackets = (empty, empty, empty, empty)
    gammas = _newton(ev, brackets, *_cell_expansions(ev, 0.0, 0.1, 1, brackets))
    assert gammas.shape == (0,)


def test_newton_builds_one_expansion_per_bracket(monkeypatch):
    # every Newton step of every bracket reads the one expansion passed in
    # for it, that of the bracket's grid cell; no expansion is built and the
    # direct evaluator is not called
    ev = FastLEvaluator(character_by_label(60, 14))
    t = 1000 + np.arange(200) * 0.05
    brackets = _brackets_from_grid(t, ev.z_values(t))
    expansion = _cell_expansions(ev, 1000.0, 0.05, 199, brackets)
    _no_direct_evaluation(ev, monkeypatch)
    gammas = _newton(ev, brackets, *expansion)
    assert gammas.size == brackets[0].size > 10
    assert np.all((gammas >= brackets[0]) & (gammas <= brackets[1]))


@pytest.mark.parametrize("q, label", [(3, 1), (60, 14)])
def test_refinement_reads_the_expansion_few_times_per_zero(q, label, monkeypatch):
    points = []
    evaluate = FastLEvaluator.z_from_taylor

    def counted(self, t, centres, coef, derivative=True):
        if derivative:
            points.append(np.size(t))
        return evaluate(self, t, centres, coef, derivative)

    monkeypatch.setattr(FastLEvaluator, "z_from_taylor", counted)
    zeros = find_zeros_upper(character_by_label(q, label), height_for_count(q, 500))
    # the Newton passes of the scan, the reads with Z': about 4.6 points per zero
    assert len(zeros) < sum(points) <= 5 * len(zeros)


def test_expansion_passes_close_where_float_spacing_exceeds_tol(monkeypatch):
    # the brackets of test_refinement_closes_where_float_spacing_exceeds_tol,
    # counted on the expansion the Newton passes read
    ev = FastLEvaluator(character_by_label(3, 1))
    t = 70000 + np.arange(40) * 0.1
    brackets = _brackets_from_grid(t, ev.z_values(t))
    expansion = _cell_expansions(ev, 70000.0, 0.1, 39, brackets)
    passes = []
    evaluate = ev.z_from_taylor

    def counted(p, *expansion):
        passes.append(len(p))
        return evaluate(p, *expansion)

    monkeypatch.setattr(ev, "z_from_taylor", counted)
    gammas = _newton(ev, brackets, *expansion)
    assert gammas.size == 5
    assert 1 <= len(passes) <= 8


@pytest.mark.parametrize("q, label", [(3, 1), (5, 1)])
def test_l_values_match_big_float_l_value(q, label):
    # unrotated L against the mpmath Hurwitz sum, within the phases' rounding
    # (about one ulp of t log m each), and dL/dt against a central difference
    import mpmath

    chi = character_by_label(q, label)
    ev = FastLEvaluator(chi)
    t = np.array([5.3, -37.2, 100.7, 1500.2])
    L, dL = ev.l_values(t)
    ref = np.array([complex(l_value(mpmath.mpc(0.5, tj), chi)) for tj in t])
    assert np.all(np.abs(L - ref) <= 5e-15 * np.abs(t) + 1e-13), np.abs(L - ref)
    h = 1e-5
    central = (ev.l_values(t + h)[0] - ev.l_values(t - h)[0]) / (2 * h)
    assert np.all(np.abs(dL - central) <= 1e-6 * np.abs(dL))


@pytest.mark.parametrize("q, label", [(3, 1), (5, 1), (60, 14)])
def test_z_matches_big_float_completed_function(q, label):
    # Z(t) = e^(-i omega/2) xi(1/2 + it) / |(q/pi)^((s+a)/2) Gamma((s+a)/2)|,
    # with omega = 1 for the real characters, where xi is `hardy_z`
    import mpmath

    chi = character_by_label(q, label)
    t = np.array([5.3, 100.7, 1500.2, 8600.4])
    z = FastLEvaluator(chi).z_values(t)
    for tj, zj in zip(t, z):
        s = mpmath.mpc(0.5, tj)
        half = (s + chi.parity_a) / 2
        scale = mpmath.exp(mpmath.re(half * mpmath.log(mpmath.mpf(q) / mpmath.pi)
                                     + mpmath.loggamma(half)))
        if chi.is_real:
            ref = hardy_z(tj, chi) / scale
        else:
            omega = gauss_sum(chi).root_number_omega
            ref = mpmath.exp(-0.5j * mpmath.arg(omega)) * xi_value(s, chi) / scale
        # float64 phases t log m carry about one ulp each: 5.8e-12 at t = 8600
        assert abs(ref - zj) <= 2e-11, (q, label, tj)


def test_scan_refines_once_then_raises(monkeypatch):
    # no scan can match a count of -1000: `lfunc._scan` tries the default
    # grid, one 4x refined grid, then raises CompletenessCheckFailed
    refines = []
    scan = fastzeros.scan_zeros

    def recorded(chi, t_max, refine_factor=1, side=1):
        refines.append(refine_factor)
        return scan(chi, t_max, refine_factor=refine_factor, side=side)

    monkeypatch.setattr("dirichlet_li.lfunc.n_formula", lambda T, chi: -1000.0)
    monkeypatch.setattr(fastzeros, "scan_zeros", recorded)
    with pytest.raises(CompletenessCheckFailed, match=r"up to T=100\.0 but the counting "
                       r"formula predicts -1000\.00 \(tolerance 6\.61\)"):
        find_zeros_upper(character_by_label(3, 1), 100.0)
    assert refines == [1, 4]


@pytest.mark.parametrize("a", [0, 1])
def test_im_log_gamma_matches_big_float(a):
    # theta's Im log Gamma((1/2 + a)/2 + it/2) against mpmath.loggamma for t
    # in [0, 1e5]: within 4 ulp of the value at t >= 16; below, the value
    # crosses zero (near t = 6 for a = 0 and 4.6 for a = 1) and the shifted
    # series' terms reach about 16, so the bound there is 4 ulp of 16
    import mpmath

    from dirichlet_li.fastzeros import _im_log_gamma
    x = (0.5 + a) / 2
    t = np.concatenate([[0.0], np.linspace(0, 16, 321)[1:], np.geomspace(1e-3, 1e5, 600)])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.loggamma(mpmath.mpc(x, tj / 2)).imag) for tj in t])
    err = np.abs(_im_log_gamma(x, t / 2) - ref)
    assert err[0] == 0.0
    tol = 4 * np.spacing(np.where(t >= 16, np.abs(ref), 16.0))
    assert np.all(err <= tol), t[np.argmax(err / tol)]


def test_im_log_gamma_shifts_only_near_the_axis():
    # the eight arg terms are computed only where |y| < 8; the result is bit
    # for bit the formula that computes them at every height and then drops
    # them, for scalar x and for x shaped like y (the Gamma-factor terms' use)
    from dirichlet_li.fastzeros import _im_log_gamma

    def every_height(x, y):
        near = np.abs(y) < 8
        w = x + 8 * near + 1j * y
        c = _bernoulli_coeffs()[7::-1] * [math.factorial(k) for k in range(14, -1, -2)]
        shift = np.arctan2(y[..., None], np.asarray(x)[..., None] + np.arange(8)).sum(axis=-1)
        lg = ((w.real - 0.5) * np.angle(w) + y * (np.log(np.abs(w)) - 1)
              + (np.polyval(c, 1 / (w * w)) / w).imag)
        return lg - np.where(near, shift, 0.0)

    rng = np.random.default_rng(29)
    for x in (0.25, 0.75):
        for y in (np.linspace(-30, 1660, 8300), np.linspace(-20, 20, 5000),
                  np.array(3.0), np.array(30.0)):
            out = _im_log_gamma(x, y)
            assert out.shape == y.shape and np.array_equal(out, every_height(x, y))
    x, y = rng.uniform(0.2, 3.0, (7, 300)), rng.uniform(-20.0, 20.0, (7, 300))
    assert np.array_equal(_im_log_gamma(x, y), every_height(x, y))


def test_cli_import_leaves_scipy_unloaded():
    import os
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dirichlet_li.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_defers_numpy_polynomial_to_the_scan():
    import os
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    # numpy before 2.0 loads numpy.polynomial itself; only what the package
    # adds to a bare `import numpy` is its own
    out = subprocess.run(
        [sys.executable, "-c", "import sys, numpy\n"
         "polynomial = lambda: {m for m in sys.modules if m.startswith('numpy.polynomial')}\n"
         "bare = polynomial()\n"
         "import dirichlet_li.cli\n"
         "print(sorted(polynomial() - bare))\n"
         "from dirichlet_li.characters import character_by_label\n"
         "from dirichlet_li.fastzeros import scan_zeros\n"
         "scan_zeros(character_by_label(3, 1), 30.0)\n"
         "print('numpy.polynomial.chebyshev' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "True"]


@pytest.mark.parametrize("q, label", [(3, 1), (5, 1), (60, 14)])
@pytest.mark.parametrize("side", [1, -1])
def test_cell_expansions_give_direct_z_on_the_grid(q, label, side):
    # the scan's expansions over 300 grid cells, one per `span` cells (1, and
    # the scan's _SPAN), built on equally spaced midpoints with `step` and
    # read at 9 points across each, the ends included (d in [-H/2, H/2]);
    # both spans read points of one h/8 lattice, whose direct Z is computed
    # once.  The spans are looped over, not parametrized, so that this test
    # keeps its ids
    ev = FastLEvaluator(character_by_label(q, label))
    for T in (30.0, 1500.0, 4000.0, 8600.0):
        h = min(0.2, math.pi / math.log(q * T))
        t0 = side * T - (300 * h if side > 0 else 0.0)
        t = t0 + np.arange(8 * 300 + 1) * (h / 8)
        direct = ev.z_values(t)
        for span in (1, fastzeros._SPAN):
            centres = t0 + (np.arange(300 // span) + 0.5) * (span * h)
            coef = ev.leading_sum_taylor(centres, 0.5 * span * h, step=span * h)
            j = np.repeat(np.arange(centres.size), 9)
            i = 8 * span * j + span * np.tile(np.arange(9), centres.size)
            z = ev.z_from_taylor(t[i], centres[j], coef[j])[0]
            # phases t log m round to about one ulp each: 3.8e-11 at t = 8600
            assert np.all(np.abs(z - direct[i]) <= 5e-15 * T + 1e-13), (span, T, side)


@pytest.mark.parametrize("slab", [7, 4099])
def test_leading_sums_do_not_depend_on_slab_size(slab, monkeypatch):
    # the phase product summed over slabs of 7 or 4099 terms m (the last one
    # partial; M >= 6128 from t = 1500 up), on a scan's spans (two runs) and in
    # `l_values` (300 heights, two runs; L and dL/dt as coefficients 0 and 1),
    # against the default: only the order of the m-sum changes, so
    # coefficient k may move by rounding of sum_m |w[m, k]|
    ev = FastLEvaluator(character_by_label(60, 14))
    T, H = 1500.0, fastzeros._SPAN * min(0.2, math.pi / math.log(60 * 1500.0))
    c, t = T + (np.arange(600) + 0.5) * H, np.linspace(T - 30, T, 300)

    def sums():
        return ev.leading_sum_taylor(c, 0.5 * H, step=H), ev.l_values(t).T

    default = sums()
    monkeypatch.setattr(fastzeros, "_SLAB", slab)
    (coef, rows), (coef_ref, rows_ref) = sums(), default
    # the expansions' weights are centred on their frame's lam, the last
    # column, which does not move; those of `l_values` are not centred
    lam = coef_ref[0, -1].real
    assert np.all(coef[:, -1] == coef_ref[:, -1])
    for new, ref, top, centre in ((coef[:, :-1], coef_ref[:, :-1], c[-1] + 0.5 * H, lam),
                                  (rows, rows_ref, T, 0.0)):
        logm, amp = ev._flat_coeffs(ev._em_n(top))
        k = np.arange(new.shape[1])
        size = np.abs(amp) @ (np.abs(logm[:, None] - centre) ** k / [math.factorial(j) for j in k])
        assert np.all(np.abs(new - ref) <= 1e-13 * size), (slab, k.size)


def test_leading_sum_memory_does_not_grow_with_the_sum():
    # traced peak of one scan's expansion call for 60.14 at its 1500-zero
    # height (M = 4672, K = 35, r nb = 468 centres a run): the output, the
    # (M, K) weights twice at most, and 4 MiB of per-run phase factors and
    # slabs, where one (r + nb K) M block took 24 MiB; and of direct Z at 256
    # heights there, where one (256 x M) phase block took 18 MiB
    ev = FastLEvaluator(character_by_label(60, 14))
    T = height_for_count(60, 1500)
    h = min(0.2, math.pi / math.log(60 * T))
    H = fastzeros._SPAN * h  # the scan's spans and their midpoints
    centres = (np.arange(-(-math.ceil(T / h) // fastzeros._SPAN)) + 0.5) * H
    t = T - 10 + np.arange(256) * 0.03
    ev.z_values(t[:2])  # imports and caches outside the trace
    tracemalloc.start()
    try:
        coef = ev.leading_sum_taylor(centres, 0.5 * H, step=H)
        expansion_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ev.z_values(t)
        direct_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # K coefficients, then the frame's lam
    M, K = ev.residues.size * ev._em_n(centres[-1] + 0.5 * H), coef.shape[1] - 1
    assert expansion_peak <= coef.nbytes + 2 * M * K * 16 + 4 * 2 ** 20, (expansion_peak, M, K)
    assert direct_peak <= 8 * 2 ** 20, direct_peak


def test_lower_half_plane_scan_ordinates_sit_in_sign_change_brackets():
    from dirichlet_li.lfunc import n_formula
    chi = character_by_label(5, 1)
    T = height_for_count(5, 1000)
    gammas = fastzeros.scan_zeros(chi, T, side=-1)
    assert abs(gammas.size - n_formula(T, chi)) <= 2 + math.log(T)
    ev = FastLEvaluator(chi)
    assert np.all(ev.z_values(-gammas - 1e-11) * ev.z_values(-gammas + 1e-11) < 0)


@pytest.mark.parametrize("q, label", [(3, 1), (60, 14)])
def test_scan_reads_one_expansion_set_centred_on_its_spans(q, label, monkeypatch):
    # one scan builds every expansion in one `leading_sum_taylor` call on the
    # midpoints of spans of _SPAN cells, evaluates its grid from them (equal
    # to direct Z), never calls the direct evaluator, and refines with few
    # expansion reads
    built, grids, points = [], [], []
    expand, bracket, read = (FastLEvaluator.leading_sum_taylor, fastzeros._brackets_from_grid,
                             FastLEvaluator.z_from_taylor)

    def counted_expand(self, centres, radius, step):
        built.append((np.array(centres), radius, step))
        return expand(self, centres, radius, step=step)

    def recorded_bracket(t, z):
        grids.append((t, z))
        return bracket(t, z)

    def counted_read(self, t, centres, coef, derivative=True):
        if derivative:  # the Newton passes
            points.append(np.size(t))
        return read(self, t, centres, coef, derivative)

    def direct(self, t):
        raise AssertionError("direct evaluation inside the scan")

    monkeypatch.setattr(FastLEvaluator, "leading_sum_taylor", counted_expand)
    monkeypatch.setattr(fastzeros, "_brackets_from_grid", recorded_bracket)
    monkeypatch.setattr(FastLEvaluator, "z_from_taylor", counted_read)
    monkeypatch.setattr(FastLEvaluator, "z_and_derivative", direct)
    chi = character_by_label(q, label)
    T = height_for_count(q, 500)
    zeros = find_zeros_upper(chi, T)
    h = min(0.2, math.pi / math.log(q * T))
    assert len(built) == 1
    centres, radius, step = built[0]
    H = fastzeros._SPAN * h
    assert step == H and radius == H / 2
    assert np.allclose(centres, (np.arange(centres.size) + 0.5) * H, rtol=0, atol=1e-12)
    assert centres[-1] + H / 2 >= T
    assert 0 < sum(points) <= 5 * len(zeros)
    t, z = grids[0]
    monkeypatch.undo()
    assert np.allclose(t, np.arange(t.size) * h, rtol=0, atol=1e-12)
    assert np.all(np.abs(z - FastLEvaluator(chi).z_values(t)) <= 5e-15 * T + 1e-13)


@pytest.mark.parametrize("q, label, side", [(3, 1, 1), (5, 1, 1), (5, 1, -1), (60, 14, 1)])
def test_scan_expansions_give_direct_z_at_low_heights(q, label, side, monkeypatch):
    # whole scans to low T, whose tail runs are far narrower than N (an
    # interpolant only 2 wide missed Z by up to 3e6 at T = 2 for 60.14): each
    # grid, and each span's expansion read at 17 points across it, against
    # direct Z
    built, grids = [], []
    expand, bracket = FastLEvaluator.leading_sum_taylor, fastzeros._brackets_from_grid

    def recorded_expand(self, centres, radius, step):
        built.append((centres, radius, expand(self, centres, radius, step=step)))
        return built[-1][2]

    def recorded_bracket(t, z):
        grids.append((t, z))
        return bracket(t, z)

    monkeypatch.setattr(FastLEvaluator, "leading_sum_taylor", recorded_expand)
    monkeypatch.setattr(fastzeros, "_brackets_from_grid", recorded_bracket)
    chi = character_by_label(q, label)
    ev = FastLEvaluator(chi)
    for T in (2.0, 3.896, 5.0, 7.792, 12.0):
        built.clear()
        grids.clear()
        fastzeros.scan_zeros(chi, T, side=side)
        (centres, radius, coef), (t, z) = built[0], grids[0]
        budget = 5e-15 * T + 1e-13
        assert np.all(np.abs(z - ev.z_values(t)) <= budget), (T, "grid")
        j = np.repeat(np.arange(centres.size), 17)
        x = centres[j] + np.tile(np.linspace(-radius, radius, 17), centres.size)
        z = ev.z_from_taylor(x, centres[j], coef[j], derivative=False)[0]
        assert np.all(np.abs(z - ev.z_values(x)) <= budget), (T, "spans")


def test_scan_finds_no_spurious_zero_at_low_heights():
    # 60.14 below its second zero, and just above it, against the stored list
    chi = character_by_label(60, 14)
    ref = read_zeros(REFERENCE_DIR / "zeros_60_14.txt", chi_id=(60, 14)).gammas()[:2]
    below = fastzeros.scan_zeros(chi, 3.896)
    assert below.size == 1 and abs(below[0] - 1.88060641688) <= 1e-10
    above = fastzeros.scan_zeros(chi, 5.0)
    assert above.size == 2 and np.all(np.abs(above - ref) <= 1e-10)


@pytest.mark.parametrize("side", [1, -1])
def test_scan_expansions_carry_little_phase_rounding_at_high_heights(side, monkeypatch):
    # the last 40 spans of a scan of 5.1 to T = 8600, read at their 9 grid
    # points each, against the leading sum with each phase t log m corrected
    # for its rounding (plus the tail): the expansions are built and read at
    # the same exact centres, so they stay within a tenth of the grid's
    # 5e-15 T + 1e-13 budget, most of which direct Z spends on its own
    # rounding (an expansion read about its rounded centre missed by 1.2 of it)
    built = []
    expand = FastLEvaluator.leading_sum_taylor

    def recorded_expand(self, centres, radius, step):
        built.append((centres, radius, expand(self, centres, radius, step=step)))
        return built[-1][2]

    monkeypatch.setattr(FastLEvaluator, "leading_sum_taylor", recorded_expand)
    chi, T = character_by_label(5, 1), 8600.0
    fastzeros.scan_zeros(chi, T, side=side)
    centres, radius, coef = built[0]
    span = slice(-40, None) if side > 0 else slice(0, 40)
    centres, coef = centres[span, None], coef[span, None]
    t = centres + np.linspace(-radius, radius, 9)
    ev = FastLEvaluator(chi)
    N = ev._em_n(T + radius)
    logm, amp = ev._flat_coeffs(N)
    L = fastzeros._phase_factors(t.reshape(-1, 1), logm) @ amp + ev._tail_sum(t.ravel(), N)[0]
    z = np.real(np.exp(1j * ev.theta(t.ravel())) * L).reshape(t.shape)
    err = np.abs(ev.z_from_taylor(t, centres, coef, derivative=False)[0] - z)
    assert np.all(err <= 0.1 * (5e-15 * T + 1e-13)), err.max()

def _record_tail_runs(ev, monkeypatch):
    """Wrap ev._tail_taylor; returns the list of (centres, radius, N, output)
    of every run it is called for."""
    runs = []
    interpolate = ev._tail_taylor

    def recorded(centres, radius, K, N):
        out = interpolate(centres, radius, K, N)
        runs.append((centres, radius, N, out))
        return out

    monkeypatch.setattr(ev, "_tail_taylor", recorded)
    return runs


def _check_tail_runs(ev, runs, where):
    """Read the tail part of each run's expansions by Horner at 9 points
    across every expansion, against the tail evaluated at those heights."""
    for centres, radius, N, tail in runs:
        j = np.repeat(np.arange(centres.size), 9)
        d = np.tile(np.linspace(-radius, radius, 9), centres.size)
        value, slope = tail[j, -1], 0
        for k in range(tail.shape[1] - 2, -1, -1):
            slope = slope * d + value
            value = value * d + tail[j, k]
        ref, dref = ev._tail_sum(centres[j] + d, N)
        # the sampled phases t log(qN + a) round to about 1e-11 at t = 8600;
        # 50 times below the 5e-15 T + 1e-13 budget of the grid's Z
        T = np.max(np.abs(centres))
        assert np.all(np.abs(value - ref) <= 1e-16 * T + 1e-14), (*where, T)
        assert np.all(np.abs(slope - dref) <= 1e-15 * T + 1e-13), (*where, T)


@pytest.mark.parametrize("q, label, side", [(3, 1, 1), (5, 1, 1), (5, 1, -1), (60, 14, 1)])
def test_tail_interpolant_matches_tail_sum(q, label, side, monkeypatch):
    # the tail part of each cell expansion, read by Horner at 9 points across
    # every cell, against the tail evaluated at those heights; at T = 0 the
    # run starts at t = 0 (ends there, below the axis)
    ev = FastLEvaluator(character_by_label(q, label))
    runs = _record_tail_runs(ev, monkeypatch)
    for T in (0.0, 30.0, 1500.0, 8600.0):
        h = min(0.2, math.pi / math.log(q * max(T, 3.0)))
        t0 = side * T - (300 * h if side < 0 else 0.0)
        ev.leading_sum_taylor(t0 + (np.arange(300) + 0.5) * h, 0.5 * h, step=h)
    assert len(runs) == 4
    _check_tail_runs(ev, runs, (q, label))


@pytest.mark.parametrize("q, label, side", [(3, 1, 1), (5, 1, 1), (5, 1, -1), (60, 14, 1)])
def test_tail_interpolant_matches_tail_sum_across_scan_spans(q, label, side, monkeypatch):
    # as above, in a scan's own geometry: one expansion per span of _SPAN
    # cells, to radius H/2 (K = 29-39 here), over 600 spans, which
    # `leading_sum_taylor` cuts into runs of 65536 / (4 K) centres and a rest
    ev = FastLEvaluator(character_by_label(q, label))
    runs = _record_tail_runs(ev, monkeypatch)
    for T in (0.0, 30.0, 1500.0, 8600.0):
        H = fastzeros._SPAN * min(0.2, math.pi / math.log(q * max(T, 3.0)))
        t0 = side * T - (600 * H if side < 0 else 0.0)
        ev.leading_sum_taylor(t0 + (np.arange(600) + 0.5) * H, 0.5 * H, step=H)
    assert len(runs) == 8 and max(centres.size for centres, *_ in runs) >= 468
    _check_tail_runs(ev, runs, (q, label))


@pytest.mark.parametrize("t", [0.0, 14.1, -222.5, 8600.4])
def test_single_height_z_reads_the_tail_at_that_height(t):
    # the tail's interpolant on a run of zero width (one centre, radius 0),
    # which `_tail_taylor` widens to half-width N as it does a scan's short runs:
    # its two coefficients are the tail and its derivative at that height
    ev = FastLEvaluator(character_by_label(5, 1))
    N = ev._em_n(abs(t))
    tail = ev._tail_taylor(np.array([t]), 0.0, 2, N)
    assert tail.shape == (1, 2)
    ref, dref = ev._tail_sum(np.array([t]), N)
    assert abs(tail[0, 0] - ref[0]) <= 1e-16 * abs(t) + 1e-14
    assert abs(tail[0, 1] - dref[0]) <= 1e-15 * abs(t) + 1e-13


@pytest.mark.parametrize("q, label", [(3, 1), (5, 1), (60, 14)])
@pytest.mark.parametrize("T", [40.0, 1500.0, 8600.0])
def test_wide_direct_run_reads_the_tail_at_each_height(q, label, T):
    # the tail's interpolant at radius 0 on 41 heights spanning [-T, T], one
    # run up to 8 N wide, as a scan's low-height runs are many N wide; it
    # needs degree 32 from T = 1500 on
    ev = FastLEvaluator(character_by_label(q, label))
    centres, N = np.linspace(-T, T, 41), ev._em_n(T)
    tail = ev._tail_taylor(centres, 0.0, 2, N)
    ref, dref = ev._tail_sum(centres, N)
    assert np.all(np.abs(tail[:, 0] - ref) <= 1e-16 * T + 1e-14)
    assert np.all(np.abs(tail[:, 1] - dref) <= 1e-15 * T + 1e-13)


@pytest.mark.parametrize("q, label", [(3, 1), (60, 14)])
def test_scan_samples_the_tail_at_few_heights(q, label, monkeypatch):
    # the tail is sampled only at each run's interpolation nodes (at most 65
    # where its carrier is divided out), not at each grid, rescue and Newton
    # point, of which a scan has about 11 per zero
    sampled, runs = [], []
    tail, interpolate = FastLEvaluator._tail_sum, FastLEvaluator._tail_taylor

    def counted_tail(self, t, N):
        sampled.append(len(t))
        return tail(self, t, N)

    def counted_run(self, centres, radius, K, N):
        before = len(sampled)
        out = interpolate(self, centres, radius, K, N)
        runs.append(sum(sampled[before:]))
        return out

    monkeypatch.setattr(FastLEvaluator, "_tail_sum", counted_tail)
    monkeypatch.setattr(FastLEvaluator, "_tail_taylor", counted_run)
    zeros = find_zeros_upper(character_by_label(q, label), height_for_count(q, 500))
    assert len(zeros) >= 500 and runs
    assert sum(sampled) == sum(runs) <= 65 * len(runs)
    assert max(runs) <= 65 and sum(sampled) < len(zeros) / 2
