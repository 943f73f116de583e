"""resppain benchmark: one workload in this fresh process.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its `src/` directory.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`, where metrics are
the end-to-end metrics with `--trace 0` and the per-layer metrics of a
traced unit with `--trace 1`.  Lines before it record the machine and
the per-unit details.  `--tiny` shrinks every workload for the
self-test.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_PROBES = 2          # extra fresh processes timed for setup_s
clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["desk_train", "paper_eval", "paper_train"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up alone and print it (used for the setup_s probes)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine

def _openblas():
    """numpy's bundled OpenBLAS, or None."""
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        return ctypes.CDLL(str(lib))
    return None


def _blas_call(lib, suffix: str):
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", "_64_", ""):
            fn = getattr(lib, f"{prefix}{suffix}{tail}", None) if lib is not None else None
            if fn is not None:
                return fn
    return None


def cap_blas_threads(nproc: int) -> int | None:
    """Keep BLAS threads at or below nproc; returns the thread count."""
    lib = _openblas()
    get, set_ = _blas_call(lib, "get_num_threads"), _blas_call(lib, "set_num_threads")
    if get is None:
        return None
    if get() > nproc and set_ is not None:
        set_.argtypes = [ctypes.c_int]
        set_(nproc)
    return int(get())


def machine_info(nproc: int, blas_threads: int | None, loadavg: tuple) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = _blas_call(_openblas(), "get_config")
    if config is not None:
        config.restype = ctypes.c_char_p
    return {
        "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_config": config().decode() if config is not None else None,
        "blas_threads": blas_threads, "loadavg_start": [round(x, 2) for x in loadavg],
    }


# ---------------------------------------------------------------------------
# measurement

def setup_probe(args) -> float:
    """Set-up time of one more fresh process running this workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), capture_output=True,
                          text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def timed_unit(wl):
    t, cpu = clock(), time.process_time()
    result = wl.unit()
    result.wall, result.cpu = clock() - t, time.process_time() - cpu
    return result


def run_units(wl, seconds: float, min_units: int) -> list:
    """Repeat the unit until another would end past `seconds`."""
    results, t0 = [], clock()
    while True:
        results.append(timed_unit(wl))
        elapsed = clock() - t0
        if len(results) >= min_units and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))

    t_import = clock()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import resppain
    except ImportError as e:
        print(f"perfbench: cannot import resppain from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if not Path(resppain.__file__).resolve().is_relative_to(ROOT / "src"):
        # an installed copy would be measured instead of this checkout
        print(f"perfbench: resppain imported from {resppain.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import_s = clock() - t_import
    blas_threads = cap_blas_threads(nproc)

    import layers
    import tracer
    import workloads
    modules = [getattr(resppain, m) for m in
               ("numerics", "signal", "augment", "encoder", "fusion", "training", "cost", "cli")]

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        t = clock()
        wl.prepare()
        setup_s = import_s + clock() - t
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        probes = 0 if args.trace else 1 if args.tiny else SETUP_PROBES
        setups = [setup_s] + [setup_probe(args) for _ in range(probes)]
        print("machine " + json.dumps(machine_info(nproc, blas_threads, loadavg)), flush=True)

        problems = []
        if tracer.installed_wrappers(modules):
            problems.append("tracing wrappers installed in an untraced run")
        # a traced run needs one untraced unit, the base of its overhead
        results = [timed_unit(wl)] if args.trace else run_units(wl, args.seconds, wl.min_units)
        lat = [x for r in results for x in r.latencies_ms]
        if args.trace:
            tr = tracer.Tracer(modules)
            tr.install()
            try:
                with tr.root():
                    wl.prepare()
                with tr.root():
                    results.append(timed_unit(wl))
            finally:
                tr.uninstall()
            if tracer.installed_wrappers(modules):
                problems.append("tracing wrappers left installed after the traced unit")
            cost = resppain.cost
            analytic = cost.count_flops(wl.enc_cfg, wl.prep.pad_len, wl.prep.n_windows,
                                        variant=wl.variant).flops_forward
            lm = layers.layer_metrics(tr, results[0].wall, results[-1].wall, analytic,
                                      lambda n: cost.encode_flops(wl.enc_cfg, n))
            coverage = lm["trace.self_coverage"][0]
            if abs(coverage - 1.0) > 0.10:
                problems.append(f"traced self times cover {coverage:.3f} of the root wall")
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in lm.items()}
        else:
            # The mean, not the median: see "Why a mean latency" in README.md.
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "samples_per_s": {"value": statistics.median(r.samples_per_s for r in results),
                                  "unit": "1/s"},
                "infer_ms_mean": {"value": statistics.fmean(lat), "unit": "ms"},
                "infer_ms_p90": {"value": percentile(lat, 90), "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }

        mismatch = len({r.digest for r in results}) != 1
        if mismatch:
            problems.append("repeated units of one seed gave different outputs"
                            + (" (traced vs untraced)" if args.trace else ""))
        problems += [p for r in results for p in r.problems]
        attempted = sum(r.attempted for r in results)
        failed = attempted if mismatch else sum(r.failed for r in results)
        detail = {"workload": args.workload, "seed": args.seed, "units": len(results),
                  "setup_s_samples": setups, "import_s": import_s,
                  "unit_wall_s": [r.wall for r in results],
                  "unit_cpu_s": [r.cpu for r in results],
                  "samples_per_s": [r.samples_per_s for r in results],
                  "latency_samples": len(lat), "infer_ms_p50": statistics.median(lat),
                  "info": [r.info for r in results], "problems": problems}
        print("detail " + json.dumps(detail), flush=True)
        print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
