"""One workload in one fresh process: a closed loop with a single client.

Each job starts when the previous one finishes.  An untraced run repeats
passes over the job list while one more pass, taken to be as long as the
last (checks included), still ends within ``--seconds``; a pass longer than
that runs once, so a slow machine does not stretch the run.  A traced run
makes one untraced pass and then one traced pass.  Outputs are checked
after each pass, outside the timed region.

A :class:`speed.SpeedProbe` runs from before the imports of numpy, scipy
and qcpn to the end, so every time is reported twice: as measured (``raw``)
and in reference seconds.  The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import speed

_clock = time.perf_counter

THREAD_VARS = ("QCPN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
    }


def run_job(job):
    """Run one job; return ((start, end), exit code, output, error)."""
    from qcpn import cli

    out, err = io.StringIO(), io.StringIO()
    rc, result, error = 0, None, None
    start = _clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is not None:
                rc = cli.main(list(job.argv))
            else:
                result = job.call()
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception:  # a job that raises is a failed job; the loop goes on
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    end = _clock()
    return (start, end), rc, (out.getvalue() if job.argv is not None else result), error


def check_job(job, rc, output, error):
    """Reason the job failed against its reference, or None."""
    if error is not None:
        return f"raised {error}"
    if rc != job.expect_rc:
        return f"exit code {rc}, want {job.expect_rc}"
    try:
        return job.check(output)
    except Exception:  # malformed output is a failed job, not a crashed benchmark
        return "check raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]


def run_pass(jobs, tracer=None):
    """One closed-loop pass; returns its span, CPU time, job spans and the job results."""
    gc.collect()
    results, spans = [], []
    cpu0, wall0 = time.process_time(), _clock()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(i)
        span, rc, output, error = run_job(job)
        if tracer is not None:
            tracer.end_job()
        spans.append(span)
        results.append((rc, output, error))
    wall1, cpu1 = _clock(), time.process_time()
    return {"span": (wall0, wall1), "cpu_s": cpu1 - cpu0, "job_spans": spans}, results


def timings(probe, p) -> dict:
    """A pass's times, raw and in reference seconds, with the probe's handler time taken out."""
    t0, t1 = p["span"]
    paused = probe.paused_between(t0, t1)
    raw_wall = t1 - t0 - paused
    wall = probe.reference_s(t0, t1)
    cpu = max(p["cpu_s"] - paused, 0.0)
    return {
        "wall_s": wall,
        "cpu_s": cpu * wall / raw_wall,  # the pass's own speed factor
        "job_s": [probe.reference_s(a, b) for a, b in p["job_spans"]],
        "raw": {"wall_s": raw_wall, "cpu_s": cpu,
                "job_s": [b - a - probe.paused_between(a, b) for a, b in p["job_spans"]]},
    }


def check_pass(jobs, results):
    failures = []
    for job, (rc, output, error) in zip(jobs, results):
        reason = check_job(job, rc, output, error)
        if reason is not None:
            failures.append({"job": job.name, "reason": reason, "known": job.known_failure is not None})
    return failures


def main(probe: speed.SpeedProbe, argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop at the first timed job")
    ap.add_argument("--spans", help="file for the traced pass's spans")
    args = ap.parse_args(argv)

    import numpy  # noqa: F401  (set-up covers the imports a CLI job needs)
    import scipy.sparse  # noqa: F401
    import qcpn.cli  # noqa: F401
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    ready = _clock()
    setup = {"ready": ready, "paused_s": probe.paused_between(0.0, ready),
             "scale": probe.scale(probe.started, ready)}
    if args.setup_only:
        probe.stop()
        print(json.dumps(setup))
        return 0

    spans, failures = [], []
    traced = None
    if args.trace:
        from tracing import Tracer

        p, results = run_pass(jobs)
        spans.append(p)
        failures += check_pass(jobs, results)
        tracer = Tracer()
        tracer.install()
        try:
            traced, results = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        failures += check_pass(jobs, results)
    else:
        start, last = _clock(), 0.0
        while not spans or _clock() - start + last <= args.seconds:
            t = _clock()
            p, results = run_pass(jobs)
            spans.append(p)
            failures += check_pass(jobs, results)
            last = _clock() - t
    probe.stop()
    passes = [timings(probe, p) for p in spans]
    if traced is not None:
        metrics = tracer.metrics()
        traced = timings(probe, traced)
        metrics["trace.overhead_ratio"] = (traced["wall_s"] / passes[0]["wall_s"], "ratio")
        traced["metrics"] = metrics
        if args.spans:
            tracer.write_spans(args.spans)

    n_passes = len(passes) + (traced is not None)
    print(json.dumps({
        **setup,
        "probe": {"samples": len(probe.kernel_s), "interval_s": speed.INTERVAL,
                  "ref_kernel_s": speed.REF_KERNEL_S,
                  "kernel_s_quartiles": statistics.quantiles(probe.kernel_s, n=4)},
        "jobs": [j.name for j in jobs],
        "passes": passes,
        "traced": traced,
        "attempted": n_passes * len(jobs),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    probe = speed.SpeedProbe()
    probe.start()
    sys.exit(main(probe))
