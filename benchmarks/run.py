#!/usr/bin/env python3
"""aclab benchmark: one seeded workload, end to end or traced per layer.

    python3 benchmarks/run.py --workload {gate,steady_survey,basin_map} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; aclab is imported from ``src/`` next to this
directory.  Passes of the workload repeat until ``--seconds`` have elapsed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
give the environment and a readable summary.  The exit code is 0 only if
every output check passed.  Full results, and with ``--trace 1`` every span,
go to ``benchmarks/.out/``.
"""

import os

# One BLAS thread: the workloads run single-threaded Python that calls small
# dense kernels, where a second BLAS thread on 2 cores only adds jitter.
# Set before numpy loads; setup-probe children inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_PROBES = 12  # measured fresh processes per run, paced through the timed passes
WORKLOADS = ("gate", "steady_survey", "basin_map")


def _median_quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def _openblas_threads():
    """Thread counts reported by each loaded OpenBLAS, by library file name."""
    counts = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return counts
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def environment(versions):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "openblas_threads": _openblas_threads(),
        "AC_LAB_THREADS": os.environ.get("AC_LAB_THREADS", "unset"),
    }


def setup_probe(workload, seed):
    """Seconds from spawning a fresh interpreter until it is ready to run.

    Ready means aclab and its dependencies imported and the seeded inputs
    generated (``probe.py``).  Bytecode caching is left on so the first,
    unmeasured probe fills ``__pycache__`` as an installed package would have.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {code} after {line!r}")
    return elapsed


def warm_up(workload, inputs):
    """One untimed pass, so lazy imports and mpmath's node caches are filled."""
    from workloads import PASSES

    return PASSES[workload](inputs)


def timed_run(workload, inputs, seconds, seed):
    """Untraced passes until ``seconds`` elapse; end-to-end metrics.

    The set-up probes run between the passes, as many after each pass as keep
    them level with the clock, so they sample the same stretches of the
    machine as the passes do.
    """
    from tracing import Recorder, instrument
    from workloads import PASSES

    setup_probe(workload, seed)  # fills __pycache__; not measured
    rec = Recorder(spans=False)
    with instrument(rec):
        res = warm_up(workload, inputs)
        attempted, failed, failures = res.attempted, res.failed, list(res.failures)
        passes, setup_samples = [], []
        start = time.perf_counter()
        while True:
            rec.begin_request(len(passes))
            gc.collect()
            t0 = time.perf_counter()
            res = PASSES[workload](inputs)
            wall = time.perf_counter() - t0
            passes.append((wall, res, list(rec.residuals), list(rec.terminal_errors)))
            share = min(1.0, (time.perf_counter() - start) / seconds)
            while len(setup_samples) < math.ceil(SETUP_PROBES * share):
                setup_samples.append(setup_probe(workload, seed))
            if share >= 1.0:
                break
    walls = [p[0] for p in passes]
    med, q1, q3 = _median_quartiles(walls)
    residuals = [r for p in passes for r in p[2]]
    # a workload that selects its own comparisons (basin_map: the runs judged
    # inside the basin) reports them; otherwise every comparison counts
    errs = [p[1].terminal_err_max for p in passes if p[1].terminal_err_max is not None]
    errs = errs or [e for p in passes for e in p[3]]
    attempted += sum(p[1].attempted for p in passes)
    failed += sum(p[1].failed for p in passes)
    failures += [f for p in passes for f in p[1].failures]
    setup_s = statistics.median(setup_samples)
    metrics = {
        "wall_s": {"value": med, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    if errs:  # steady_survey runs no evolution
        metrics["terminal_err_max"] = {"value": max(errs), "unit": "1"}
    summary = {
        "wall_s": {"median": med, "q1": q1, "q3": q3, "n": len(walls), "samples": walls},
        "setup_s": {"median": setup_s, "samples": setup_samples},
        "peak_rss_mb": metrics["peak_rss_mb"]["value"],
        "fail_ratio": failed / attempted,
        "residual_max": max(residuals, default=None),
        "terminal_err_max": max(errs) if errs else None,
        "detail": passes[-1][1].detail,
    }
    return attempted, failed, failures, metrics, summary


def traced_run(workload, inputs, seconds, seed):
    """Alternating untraced and traced passes; per-layer metrics and overhead."""
    from tracing import LAYER_FUNCTIONS, Recorder, instrument
    from workloads import PASSES
    from aclab.verify import ALL_CHECK_NAMES

    rec = Recorder(spans=True)
    untraced, traced, check_s = [], [], []
    res = warm_up(workload, inputs)
    attempted, failed, failures = res.attempted, res.failed, list(res.failures)
    deadline = time.perf_counter() + seconds
    while True:
        with instrument(Recorder(spans=False)):
            gc.collect()
            t0 = time.perf_counter()
            res = PASSES[workload](inputs)
            untraced.append(time.perf_counter() - t0)
        check_s.append(res.detail.get("check_s", {}))
        attempted += res.attempted
        failed += res.failed
        failures += res.failures
        with instrument(rec):
            rec.begin_request(len(traced))
            gc.collect()
            t0 = time.perf_counter()
            res = PASSES[workload](inputs)
            traced.append(time.perf_counter() - t0)
        attempted += res.attempted
        failed += res.failed
        failures += res.failures
        if time.perf_counter() >= deadline:
            break

    per_request = rec.per_request()
    requests = range(len(traced))
    metrics = {}
    calls_repeat = True
    for mod, fn in LAYER_FUNCTIONS:
        name = f"{mod}.{fn}"
        calls = [per_request.get(r, {}).get(name, (0, 0.0))[0] for r in requests]
        self_s = [per_request.get(r, {}).get(name, (0, 0.0))[1] for r in requests]
        calls_repeat = calls_repeat and len(set(calls)) == 1
        metrics[f"{name}.calls"] = {"value": calls[0], "unit": "count"}
        metrics[f"{name}.s"] = {"value": statistics.median(self_s), "unit": "s"}
    steps = [rec.steps.get(r, 0) for r in requests]
    evolve_s = [per_request.get(r, {}).get("evolution.evolve", (0, 0.0))[1] for r in requests]
    metrics["evolution.steps"] = {"value": steps[0], "unit": "count"}
    metrics["evolution.snapshots"] = {"value": rec.snapshots.get(0, 0), "unit": "count"}
    metrics["evolution.s_per_step"] = {
        "value": statistics.median(s / n for s, n in zip(evolve_s, steps)) if steps[0] else 0.0,
        "unit": "s",
    }
    for name in ALL_CHECK_NAMES:
        vals = [c[name] for c in check_s if name in c]
        metrics[f"verify.{name}.s"] = {
            "value": statistics.median(vals) if vals else 0.0,
            "unit": "s",
        }
    # tracing overhead: median traced pass minus median untraced pass
    med_t, med_u = statistics.median(traced), statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": med_t - med_u, "unit": "s"}

    rec.write(OUT / f"trace-{workload}-seed{seed}.csv.gz")
    summary = {
        "traced_passes": traced,
        "untraced_passes": untraced,
        "overhead_ratio": (med_t - med_u) / med_u,
        "calls_repeat": calls_repeat,
    }
    if not calls_repeat:
        failures.append("per-layer call counts differ between traced passes")
    return attempted, failed, failures, metrics, summary


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "aclab" / "__init__.py").is_file():
        print(f"error: aclab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if Path(workloads.aclab.__file__).resolve().parent != SRC / "aclab":
        print(f"error: imported aclab from {workloads.aclab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, OUT)
    env = environment(workloads.versions())
    print(json.dumps({"environment": env}))
    run = traced_run if args.trace else timed_run
    attempted, failed, failures, metrics, summary = run(
        args.workload, inputs, args.seconds, args.seed
    )
    for msg in failures[:20]:
        print(f"FAIL {msg}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "summary": summary}))
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<58} {m['value']!r:>24} {m['unit']}")
    else:
        w = summary["wall_s"]
        terr = summary["terminal_err_max"]
        print(f"wall_s            {w['median']!r} s  (quartiles {w['q1']!r} .. {w['q3']!r}, "
              f"{w['n']} passes)")
        print(f"setup_s           {summary['setup_s']['median']!r} s  "
              f"(median of {len(summary['setup_s']['samples'])} fresh processes)")
        print(f"peak_rss_mb       {summary['peak_rss_mb']!r} MB")
        print(f"fail_ratio        {summary['fail_ratio']!r} 1  ({failed}/{attempted} operations)")
        print(f"residual_max      {summary['residual_max']!r} 1")
        print(f"terminal_err_max  {terr!r} 1" if terr is not None
              else "terminal_err_max  n/a  (no evolution in this workload)")
    correct = failed == 0 and not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"environment": env, "summary": summary, "failures": failures, **result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
