"""Outside-in benchmark of the dirichlet-li command line.

    python3 perfbench/run.py --workload {scan,arith,zerosum} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from the checkout's
`src/`; each workload's requests go through `dirichlet_li.cli.main(argv)` in
this one process, repeated until `--seconds` is spent, and every output is
checked against the references in `perfbench/data/`.  The last line of
standard output is one JSON object: with `--trace 0` the end-to-end metrics
(`wall_s` scaled to a reference host speed by a calibration loop timed
between requests), with `--trace 1` the per-layer metrics of a
traced run, whose repetitions alternate with untraced ones to give the
tracing overhead.  Without the package under `src/` it exits with code 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_PROBES = 7
CAL_LOOPS = 100_000     # steps of one calibration chunk
CAL_REF_S = 0.02        # a chunk's time on the reference host
CAL_SHARE = 0.1         # calibration after a request, as a share of its time


# ----------------------------------------------------------------------------
# set-up: package import and the inputs and references

def load_package():
    """Import dirichlet_li from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dirichlet_li" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dirichlet_li package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("dirichlet_li.cli")
    if Path(cli.__file__).resolve().parent != (src / "dirichlet_li").resolve():
        raise SystemExit(f"perfbench: dirichlet_li imported from {cli.__file__}")
    # every module the command line loads, by its name in src/dirichlet_li/
    return SimpleNamespace(**{name.rsplit(".", 1)[1]: mod
                              for name, mod in list(sys.modules.items())
                              if name.startswith("dirichlet_li.")})


def load_data():
    refs = json.loads((DATA / "refs.json").read_text(encoding="utf-8"))
    zero_files, zeros = {}, {}
    for q, label, _name in workloads.TABLE_CHARACTERS:
        key = workloads.char_key(q, label)
        zero_files[key] = DATA / f"zeros_{q}_{label}.txt"
        zeros[key], _height = workloads.read_zero_file(zero_files[key])
    return SimpleNamespace(refs=refs, zero_files=zero_files, zeros=zeros)


def setup():
    return load_package(), load_data()


def measure_setup() -> float:
    """Median wall time of fresh processes that start, import and load."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only"],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def package_caches(pkg) -> list:
    """cache_clear of every lru_cache in the package, so that each request
    starts as cold as a fresh command-line process would."""
    clears = {}
    for mod in vars(pkg).values():
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clears[id(obj)] = clear
    return list(clears.values())


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": _blas_threads(numpy),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def _blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ----------------------------------------------------------------------------
# requests and repetitions

def call(main, argv, tracer: Tracer | None) -> workloads.Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = tracer.request(main, argv) if tracer else main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails the request's items, not the run
        code = -1
        err.write(traceback.format_exc())
    return workloads.Outcome(code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                             seconds=time.perf_counter() - t0)


def calibrate(seconds: float) -> list[float]:
    """Times of chunks of a fixed loop of 128-bit integer arithmetic in the
    interpreter, run until `seconds` are spent (at least one chunk).  The
    loop does not touch the package: its times track the host's speed."""
    chunks = []
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        x = 1
        for i in range(CAL_LOOPS):
            x = (x * 0x5851F42D4C957F2D + i) & 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF
        t1 = time.perf_counter()
        chunks.append(t1 - t0)
        if t1 >= end:
            return chunks


def run_rep(pkg, requests, caches, tracer: Tracer | None = None) -> dict:
    """One pass over the requests.  After each request the calibration loop
    runs for CAL_SHARE of the request's time, and for one chunk at least."""
    outcomes = {}
    cal = []
    cpu = 0.0
    for req in requests:
        for clear in caches:
            clear()
        c0 = time.process_time()
        outcomes[req.name] = call(pkg.cli.main, req.argv, tracer)
        cpu += time.process_time() - c0
        cal.extend(calibrate(CAL_SHARE * outcomes[req.name].seconds))
    failed = {}
    for req in requests:
        n = min(req.items, req.check(outcomes[req.name]))
        if n:
            failed[req.name] = n
    return {
        "traced": tracer is not None,
        "wall_s": sum(o.seconds for o in outcomes.values()),
        "request_s": {name: o.seconds for name, o in outcomes.items()},
        "cpu_s": cpu,
        "cal_s": cal,
        "attempted": sum(req.items for req in requests),
        "failed": failed,
        "errors": {name: o for name, o in outcomes.items() if o.code != 0},
        "layers": tracer.metrics() if tracer is not None else None,
    }


def run_workload(pkg, data, args, work: Path) -> list[dict]:
    """Repetitions until --seconds is spent; with tracing they alternate
    untraced and traced, and at least one of each runs."""
    requests = workloads.requests_for(args.workload, args.seed, data, work)
    caches = package_caches(pkg)
    modes = (False, True) if args.trace else (False,)
    reps = []
    start = time.perf_counter()
    while True:
        traced = modes[len(reps) % len(modes)]
        for stale in work.iterdir():  # outputs are checked from this repetition only
            stale.unlink()
        t0 = time.perf_counter()
        if traced:
            tracer = Tracer()
            with tracer.installed(pkg):
                reps.append(run_rep(pkg, requests, caches, tracer))
        else:
            reps.append(run_rep(pkg, requests, caches))
        last = time.perf_counter() - t0
        # stop when one more repetition would overrun the measuring time
        if len(reps) >= len(modes) and time.perf_counter() - start + last > args.seconds:
            return reps


def metric(value, unit):
    return {"value": value, "unit": unit}


def calibration_s(reps) -> float:
    return statistics.fmean(c for r in reps for c in r["cal_s"])


def wall(reps) -> float:
    """Mean time of a repetition on a host whose calibration chunk takes
    CAL_REF_S.  The chunks fill a fixed share of each request's time, so
    their mean is the host's speed averaged over the run like the requests'
    time is: a host that runs slower for a stretch slows both alike."""
    return statistics.fmean(r["wall_s"] for r in reps) * CAL_REF_S / calibration_s(reps)


def totals(reps) -> tuple[int, int]:
    """(items attempted, items failed) over all repetitions."""
    return (sum(r["attempted"] for r in reps),
            sum(sum(r["failed"].values()) for r in reps))


def end_to_end(reps, setup_s) -> dict:
    attempted, failed = totals(reps)
    return {
        "wall_s": metric(wall(reps), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_frac": metric(1.0 - failed / attempted, "frac"),
        "setup_s": metric(setup_s, "s"),
    }


LAYER_UNITS = {"s": "s", "self_s": "s", "calls": "count", "points": "count",
               "terms": "count", "records": "count", "bytes": "B",
               "sieve_limit_sum": "count", "scans_per_find": "ratio",
               "points_per_zero": "ratio", "attributed_frac": "frac",
               "overhead_frac": "frac", "cpu_s": "s", "calibration_s": "s"}


def per_layer(reps) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        out[name] = statistics.median(r["layers"][name] for r in traced)
    out["cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    out["trace.overhead_frac"] = wall(traced) / wall(plain) - 1.0
    out["host.calibration_s"] = calibration_s(plain)
    return {name: metric(v, LAYER_UNITS[name.rsplit(".", 1)[-1]])
            for name, v in out.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and load, then exit (the set-up time probe)")
    args = p.parse_args(argv)
    if args.setup_only:
        setup()
        return 0
    if args.workload is None:
        p.error("--workload is required")

    pkg, data = setup()
    setup_s = None if args.trace else measure_setup()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        reps = run_workload(pkg, data, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in reps:
        for name, o in r["errors"].items():
            print(f"perfbench: {name} exited {o.code}\n{o.stderr}", file=sys.stderr)
    attempted, failed = totals(reps)
    print(json.dumps({"env": environment()}))
    keep = ("traced", "wall_s", "request_s", "cal_s", "cpu_s", "failed")
    print(json.dumps({"reps": [{k: r[k] for k in keep} for r in reps]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer(reps) if args.trace else end_to_end(reps, setup_s),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
