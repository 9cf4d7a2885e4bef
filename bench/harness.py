"""One benchmark run: repeated fixed-horizon solves of one workload.

A run warms up (one set-up and one step, untimed), then repeats a cycle
while the next one still fits in the time budget: ``SETUPS_PER_SOLVE`` bare
set-ups, timed, and one full solve (set-up, every step of the horizon,
diagnostics.csv).  Set-up samples are thus spread over the run like the
solves, so a slow spell of a shared machine weighs on both alike.  It is a
closed loop: one solve at a time in one process.

Untraced runs give the end-to-end metrics.  Traced runs alternate untraced
and traced solves, so the per-layer metrics come from the traced ones and
the tracing overhead is their step-time median over the untraced one.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import time
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

SETUPS_PER_SOLVE = 2
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def tail(samples):
    """(percentile, value) of the highest listed percentile that has at
    least TAIL_BEYOND samples above it, or None."""
    x = np.asarray(samples)
    for p in TAIL_PERCENTILES:
        v = float(np.percentile(x, p)) if x.size else 0.0
        if np.count_nonzero(x > v) >= TAIL_BEYOND:
            return p, v
    return None


def _release_memory():
    """Free garbage and hand freed heap pages back to the OS, so every
    solve starts from the same memory state and peak RSS repeats."""
    gc.collect()
    _malloc_trim(0)


_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)


def _median(values):
    return float(np.median(values))


def _traced(trace, solve_index):
    """Traced runs trace every second solve, starting with the second."""
    return trace and solve_index % 2 == 1


def run(name, seed, seconds, trace, out_dir, nx=None):
    """Run workload ``name`` for about ``seconds``; returns a result dict
    with ``metrics`` (name -> (value, unit, samples)), ``absent``
    (name -> reason), ``attempted``, ``failed`` and ``problems``."""
    t_begin = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make_workload(name, seed, nx=nx)
    csv_path = out_dir / f"{name}-diagnostics.csv"
    tracer = spans.Tracer() if trace else None

    stepper = wl.setup(wl.sources)
    stepper.bootstrap_first_step()
    del stepper

    setup_s = []    # bare set-ups
    solves = []     # (traced, Solve)
    cycle_s = {}    # traced -> length of the last cycle of that kind
    while True:
        t_cycle = time.perf_counter()
        for _ in range(SETUPS_PER_SOLVE):
            _release_memory()
            t0 = time.perf_counter()
            stepper = wl.setup(wl.sources)
            setup_s.append(time.perf_counter() - t0)
            del stepper
        traced = _traced(trace, len(solves))
        _release_memory()
        if traced:
            tracer.run_id = len(solves)
            tracer.install()
            try:
                res = workloads.solve(wl, csv_path,
                                      sources=tracer.wrap_sources(wl.sources),
                                      span=tracer.span)
            finally:
                tracer.uninstall()
        else:
            res = workloads.solve(wl, csv_path)
        solves.append((traced, res))
        now = time.perf_counter()
        cycle_s[traced] = now - t_cycle
        # the next cycle is estimated from the last one of its own kind,
        # since traced cycles run longer than untraced ones
        following = _traced(trace, len(solves))
        if len(solves) >= (2 if trace else 1) \
                and (now - t_begin) + cycle_s[following] > seconds:
            break

    plain_steps = [s for tr, r in solves if not tr for s in r.step_s]
    metrics, absent = {}, {}
    if not trace:
        every = setup_s + [r.setup_s for _, r in solves]
        steps = [s for _, r in solves for s in r.step_s]
        metrics["setup_s"] = (_median(every), "s", len(every))
        metrics["step_ms_p50"] = (1e3 * _median(steps), "ms", len(steps))
        metrics["wall_s"] = (_median([r.wall_s for _, r in solves]), "s",
                             len(solves))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1)
    else:
        metrics, absent = spans.layer_metrics(tracer.spans,
                                              set(tracer.absent))
        traced_steps = [s for tr, r in solves if tr for s in r.step_s]
        metrics["trace.overhead_ratio"] = (
            _median(traced_steps) / _median(plain_steps) - 1.0, "ratio",
            len(traced_steps))
    t = tail(plain_steps)
    tail_info = {"samples": len(plain_steps)}
    if t is not None:
        tail_info.update(percentile=t[0], value_ms=1e3 * t[1])

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "horizon": wl.horizon, "reference_checked": wl.reference is not None,
        "attempted": sum(r.attempted for _, r in solves),
        "failed": sum(r.failed for _, r in solves),
        "problems": [p for _, r in solves for p in r.problems],
        "metrics": metrics, "absent": absent, "step_ms_tail": tail_info,
        "solves": [{"traced": tr, "setup_s": r.setup_s, "step_s": r.step_s,
                    "csv_s": r.csv_s, "wall_s": r.wall_s, "failed": r.failed}
                   for tr, r in solves],
        "bare_setup_s": setup_s,
        "environment": environment(),
    }
    stem = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        result["missing_entry_points"] = tracer.missing
        result["lu_nnz_by_size"] = spans.lu_nnz_by_size(tracer.spans)
        tracer.dump(f"{stem}-spans.jsonl")
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def report_lines(result):
    """Human-readable lines: every metric with unit and sample count."""
    env = result["environment"]
    yield (f"# spnpflow bench {result['workload']} seed={result['seed']} "
           f"trace={int(result['trace'])} horizon={result['horizon']} "
           f"reference={'checked' if result['reference_checked'] else 'n/a'}")
    yield ("# env " + " ".join(f"{k}={v}" for k, v in env.items()
                                if k != "threads")
           + " " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for name, (value, unit, n) in sorted(result["metrics"].items()):
        yield f"{name} = {value:.6g} {unit} (n={n})"
    for name, why in sorted(result["absent"].items()):
        yield f"{name} = absent ({why})"
    t = result["step_ms_tail"]
    if "percentile" in t:
        yield (f"step_ms_tail = {t['value_ms']:.6g} ms at p{t['percentile']:g}"
               f" of untraced steps (n={t['samples']})")
    else:
        yield (f"step_ms_tail = absent ({t['samples']} untraced steps; a "
               f"tail needs {TAIL_BEYOND} beyond it)")
    for size, (nnz, n) in result.get("lu_nnz_by_size", {}).items():
        yield f"sparse.lu_nnz[n={size}] = {nnz:.0f} count (n={n})"
    yield f"steps attempted={result['attempted']} failed={result['failed']}"
    for p in result["problems"][:20]:
        yield f"FAILED {p}"


def summary(result):
    """The final JSON object: the metrics the run measured, which are the
    end-to-end ones untraced and the per-layer ones traced."""
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {n: {"value": v, "unit": u}
                        for n, (v, u, _) in result["metrics"].items()}}
