"""Benchmark of the oddgirth package: one seeded workload per run.

    python3 perfbench/run.py --workload {sweep7,verify_ladder,corpus_mixed}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory, in one process, with BLAS pinned to one thread (closed
loop: each pass starts when the previous one has finished).

--trace 0 repeats the workload's call while another pass still fits in S
seconds and reports the median pass as ``pass_s``.  On a host shared with
other tenants the speed of a core swings by up to 2.3x in episodes of
seconds to minutes, so every time of --trace 0 is rescaled to a fixed host
speed, measured by a reference kernel interleaved with the timed code (see
refclock.py); the wall times are printed and kept in perfbench/out/ too.
``setup_s`` is the median import of numpy and the package in a fresh
interpreter plus the median set-up of the inputs (generation and one warm-up
call), from samples spread over the whole run: five before the first pass,
one before every later pass and five after the last one.
--trace 1 makes untraced passes for half of S, then one traced set-up and
pass, and reports the per-layer metrics from its spans (see spans.py) plus
``trace.overhead_frac``; its times are plain wall seconds.

Every pass is checked against the known answers; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}, and the
exit code is 1 when any check failed.  The environment, all figures and (with
--trace 1) the spans go to perfbench/out/.  ``--flip K`` inverts the expected
verdict of item K, so that the checks can be seen to fail (selftest.py).
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
               "import numpy, oddgirth, oddgirth.scan; print(time.perf_counter() - t0)")
# spelled out here because workloads.py imports numpy, which setup_s times
WORKLOAD_NAMES = ("sweep7", "verify_ladder", "corpus_mixed")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--flip", type=int, default=None, help="invert the expected verdict of item K")
    return p.parse_args(argv)


def import_program():
    """Import numpy and the package from ROOT/src; returns (module, seconds)."""
    if not (ROOT / "src" / "oddgirth" / "__init__.py").is_file():
        sys.exit("perfbench: no src/oddgirth under %s; run from a source checkout" % ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import oddgirth
    import oddgirth.scan  # noqa: F401
    return oddgirth, time.perf_counter() - t0


def fresh_import():
    """Import time of numpy and the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# environment record


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    # the ceiling keeps git from taking the commit of a repository above ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(og, args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(np),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "backend": og.scan.BACKEND,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
    }


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Compares each pass's verdicts with the workload's expected ones."""

    def __init__(self, expected, flip):
        self.expected = dict(expected)
        if flip is not None:
            key = sorted(self.expected)[flip % len(self.expected)]
            self.expected[key] = "flipped" if self.expected[key] is None else None
        self.attempted = 0
        self.failed = 0
        self.bad = []

    def check(self, observed, totals_ok):
        keys = set(self.expected) | set(observed)
        bad = [k for k in keys if self.expected.get(k) != observed.get(k)]
        self.attempted += len(keys)
        self.failed += min(len(keys), len(bad) + (0 if totals_ok else 1))
        self.bad.extend(repr(k) for k in bad[:5])
        if not totals_ok:
            self.bad.append("summary totals")

    def raised(self):
        self.attempted += len(self.expected)
        self.failed += len(self.expected)
        self.bad.append("pass raised")


def run_passes(workload, clock, checker, budget, tracer=None, between=None):
    """Timed passes while another one fits in the budget (at least one).

    Returns the wall and rescaled seconds of each pass, its per-rung wall
    times, and the peak RSS in MB up to the end of the first pass, which does
    not depend on how many passes fit.  ``between``, if given, is called before
    every pass after the first.
    """
    walls, scaled, extras = [], [], []
    peak_mb = None
    start = time.perf_counter()
    while True:
        if between is not None and walls:
            between()
        pass_start = time.perf_counter()
        try:
            observed, totals_ok, extra = workload.run_pass(clock, tracer)
        except Exception:
            traceback.print_exc()
            checker.raised()
            break
        wall, rescaled = clock.take()
        checker.check(observed, totals_ok)
        walls.append(wall)
        scaled.append(rescaled)
        extras.append(extra)
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if tracer is not None or now - start + (now - pass_start) > budget:
            break
    return walls, scaled, extras, peak_mb


def setup_once(workload, clock):
    with clock:
        workload.generate()
        workload.warmup()
    return clock.take()


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass


def layer_metrics(tr, untraced_walls, traced_wall, rung_times):
    import numpy as np
    from spans import EIGVALSH

    missing = {m.rsplit(".", 1)[1] for m in tr.missing}
    out = {}

    def put(name, unit, needs, value):
        if not missing.intersection(needs):
            out[name] = metric(value, unit)

    def eig(under):
        return sum(s.count for s in tr.under(under, EIGVALSH))

    scan_eig = eig("screen_range")
    screen_ok = {"screen_range"}
    put("scan.screen_range_s", "s", screen_ok, tr.total("screen_range"))
    put("scan.masks_screened", "count", screen_ok, tr.screen["masks"])
    put("scan.connected", "count", screen_ok, tr.screen["connected"])
    put("scan.hits", "count", screen_ok, tr.screen["hits"])
    put("scan.eigensolves", "count", screen_ok, scan_eig)
    put("scan.eigensolve_yield", "ratio", screen_ok,
        tr.screen["hits"] / scan_eig if scan_eig else 0.0)
    put("scan.verify_hits_s", "s", {"scan_enumerated", "verify_theorem"},
        sum(s.end - s.start for s in tr.under("scan_enumerated", "verify_theorem")))

    for fn in ("distance_data", "odd_girth", "parse_graph6"):
        put("graphs.%s_s" % fn, "s", {fn}, tr.total(fn))
        put("graphs.%s_calls" % fn, "count", {fn}, tr.calls(fn))
    for fn in ("graph_from_mask", "encode_graph6", "generate_family"):
        put("graphs.%s_s" % fn, "s", {fn}, tr.total(fn))

    put("spectral.spectrum_self_s", "s", {"spectrum"}, tr.self_time("spectrum"))
    put("spectral.spectrum_calls", "count", {"spectrum"}, tr.calls("spectrum"))
    put("spectral.eigensolves", "count", {"spectrum"}, eig("spectrum"))
    for fn in ("idempotents", "local_multiplicities"):
        put("spectral.%s_s" % fn, "s", {fn}, tr.total(fn))

    for fn in ("predistance_polynomials", "check_parity"):
        put("predistance.%s_s" % fn, "s", {fn}, tr.total(fn))

    vt = {"verify_theorem"}
    durations = tr.durations("verify_theorem")
    put("verify.verify_theorem_self_s", "s", vt, tr.self_time("verify_theorem"))
    put("verify.verify_theorem_calls", "count", vt, len(durations))
    for q in (50, 95):
        put("verify.verify_theorem_p%d_ms" % q, "ms", vt,
            float(np.percentile(durations, q)) * 1e3 if durations else 0.0)
    for rung in ("petersen", "odd_5"):
        put("verify.verify_theorem_s.%s" % rung, "s", vt,
            sum(s.end - s.start for s in tr.spans if s.name == "verify_theorem" and s.item == rung))
    for fn in ("intersection_array", "distance_matrices", "check_distance_polynomial",
               "check_hoffman", "vandermonde_certificate"):
        put("verify.%s_s" % fn, "s", {fn}, tr.total(fn))
    met = sum(1 for ok, _ in tr.reports if ok)
    put("verify.met_ratio", "ratio", vt, met / len(tr.reports) if tr.reports else 0.0)
    heads = [min(max(h, -300.0), 300.0) for _, hs in tr.reports for h in hs]
    put("verify.min_headroom", "log10", vt, min(heads) if heads else 0.0)

    for rung in ("folded_cube_9", "odd_6"):
        times = [x[rung] for x in rung_times if rung in x]
        out["verify_s.%s" % rung] = metric(min(times) if times else 0.0, "s")
    out["trace.overhead_frac"] = metric(traced_wall / min(untraced_walls) - 1.0, "ratio")
    return out


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    og, import_s = import_program()
    from refclock import Clock
    from spans import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    env = environment(og, args)
    workload = WORKLOADS[args.workload](og, args.seed, OUT)
    record = {"env": env, "import_s": import_s}

    if args.trace == 0:
        clock = Clock()
        imports, setups, setup_walls = [], [], []

        def sample():
            imports.append(clock.measure(fresh_import))
            wall, scaled = setup_once(workload, clock)
            setup_walls.append(wall)
            setups.append(scaled)

        for _ in range(SETUP_REPEATS):
            sample()
        checker = Checker(workload.expected, args.flip)
        walls, scaled, extras, peak_mb = run_passes(workload, clock, checker, args.seconds,
                                                    between=sample)
        for _ in range(SETUP_REPEATS):
            sample()
        metrics = {"setup_s": metric(statistics.median(imports) + statistics.median(setups), "s")}
        if walls:
            metrics["pass_s"] = metric(statistics.median(scaled), "s")
            metrics["peak_rss_mb"] = metric(peak_mb, "MB")
            print("wall time of the median pass %.6g s, median set-up %.6g s (not rescaled)"
                  % (statistics.median(walls), statistics.median(setup_walls)))
        record.update(imports_scaled_s=imports, setups_scaled_s=setups,
                      setups_wall_s=setup_walls, passes_scaled_s=scaled, walls_s=walls,
                      per_rung_s=extras)
    else:
        clock = Clock(sample=False)
        setup_once(workload, clock)
        checker = Checker(workload.expected, args.flip)
        walls, _, extras, _ = run_passes(workload, clock, checker, args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            workload.generate()
            traced, _, _, _ = run_passes(workload, clock, checker, 0.0, tracer)
        finally:
            tracer.uninstall()
        metrics = {}
        if walls and traced:
            metrics = layer_metrics(tracer, walls, traced[0], extras)
        record.update(walls_s=walls, traced_wall_s=traced, missing=tracer.missing)
        spans_path = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        spans_path.write_text(json.dumps(tracer.to_records()))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        if tracer.missing:
            print("missing (not traced, metrics omitted): %s" % ", ".join(tracer.missing))

    correct = checker.failed == 0
    result = {
        "correct": correct,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": metrics,
    }
    record.update(result=result, failed_items=checker.bad[:50],
                  fail_rate=checker.failed / max(1, checker.attempted))
    (OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, default=str))

    print("env: %s" % json.dumps(env))
    for name, m in metrics.items():
        value = m["value"]
        print("%-40s %16s %s" % (name, value if isinstance(value, int) else "%.6g" % value,
                                 m["unit"]))
    print("fail_rate %.6g (%d of %d items)" % (record["fail_rate"], checker.failed,
                                                checker.attempted))
    if not correct:
        print("FAILED items: %s" % ", ".join(checker.bad[:10]))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
