"""Benchmark for the cag library: one workload, one seed, one run.

    python3 perfbench/run.py --workload symmetric --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run builds its inputs from the seed (set-up), runs jobs in a
closed loop with one caller for ``--seconds`` seconds (and at least
MIN_JOBS jobs), then checks every job's output outside the timed region.
It prints one line per metric and, as its last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
alternates untraced and traced passes over the whole input pool and reports
the per-layer metrics of `tracing.py`, plus the tracing overhead; its spans
are written to ``.bench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # pinned too, but never used while tuning a change
MIN_JOBS = 100
SETUP_REPEATS = 5

#: name -> (unit, better); the end-to-end metrics, reported untraced.
END_TO_END = {
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_ms": ("ms", "lower"),
    "job_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="symmetric, weighted, qbf or dynamics")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds from `import cag` to built inputs, "
                        "and exit (used to time set-up in fresh interpreters)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref
        revision = ref
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "revision": revision}


def digest(out: tuple[str, ...]) -> str:
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()[:16]


def pinned_digests(workload: str, size: str, seed: int) -> list[str] | None:
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return table.get(workload, {}).get(size, {}).get(str(seed))


def run_pass(wl, inputs, tracer=None):
    """One job per input, in order; returns (outputs, seconds).  A job that
    raises yields None in place of its output."""
    outs = []
    started = time.perf_counter()
    for item in inputs:
        if tracer is not None:
            tracer.start_job()
        try:
            outs.append(wl.job(item))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outs.append(None)
    return outs, time.perf_counter() - started


def check_outputs(wl, inputs, outs, pinned) -> list[bool]:
    """Per input: does its first output pass the digest and oracle checks?"""
    good = []
    for k, (item, out) in enumerate(zip(inputs, outs)):
        ok = out is not None and (pinned is None or digest(out) == pinned[k])
        if ok:
            try:
                wl.check(item, out)
            except Exception:  # a failed oracle, or output that does not parse
                traceback.print_exc(file=sys.stderr)
                ok = False
        if not ok:
            print(f"perfbench: {wl.name} input {k} failed its check", file=sys.stderr)
        good.append(ok)
    return good


def timed_run(wl, inputs, seconds, pinned):
    """Closed loop, one caller: jobs cycle through the pool until `seconds`
    have passed, every input has run and at least MIN_JOBS jobs have run.

    An input's latency is the mean latency of its jobs.  The percentiles are
    taken over the pool's inputs (100 at full size, so 10 lie beyond the
    90th): the host's speed drifts by tens of percent within seconds, and a
    percentile over single jobs jumps with the share of the run spent slow,
    while a mean over an input's repeats moves smoothly with it."""
    first = [None] * len(inputs)
    latencies = [[] for _ in inputs]
    same = []  # per job: (pool index, output byte-identical to the first)
    started = time.perf_counter()
    deadline = started + seconds
    k = 0
    while True:
        idx = k % len(inputs)
        t0 = time.perf_counter()
        try:
            out = wl.job(inputs[idx])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        t1 = time.perf_counter()
        latencies[idx].append(t1 - t0)
        if k < len(inputs):
            first[idx] = out
        same.append((idx, out is not None and out == first[idx]))
        k += 1
        if t1 >= deadline and k >= max(MIN_JOBS, len(inputs)):
            break
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    good = check_outputs(wl, inputs, first, pinned)
    failed = sum(1 for idx, ok in same if not (ok and good[idx]))
    per_input = [statistics.fmean(lat) for lat in latencies]
    metrics = {
        "jobs_per_s": k / wall,
        "job_p50_ms": statistics.median(per_input) * 1e3,
        "job_p90_ms": statistics.quantiles(per_input, n=10)[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return k, failed, metrics


def traced_run(wl, inputs, seconds, pinned, setup_tracer, label):
    """Alternate untraced and traced passes over the whole pool until
    `seconds` have passed; traced outputs must equal untraced ones."""
    import tracing

    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    attempted = failed = passes = 0
    first = good = None
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < seconds:
        plain, dt = run_pass(wl, inputs)
        plain_s += dt
        tracer.install()
        try:
            traced, dt = run_pass(wl, inputs, tracer)
        finally:
            tracer.uninstall()
        traced_s += dt
        if first is None:
            first, good = plain, check_outputs(wl, inputs, plain, pinned)
        for k, ok in enumerate(good):
            attempted += 2
            failed += (not ok or plain[k] != first[k]) + (not ok or traced[k] != first[k])
        passes += 1
    num_jobs = passes * len(inputs)
    metrics = tracing.layer_metrics(tracer, setup_tracer, num_jobs, plain_s, traced_s)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{label}.json")
    return attempted, failed, metrics


def time_setup(args) -> float:
    """Median set-up seconds over SETUP_REPEATS fresh interpreters, each
    timed from `import cag` until the workload's inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "cag" / "__init__.py").is_file():
        print(f"perfbench: no cag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import cag  # noqa: F401  (timed: set-up starts at `import cag`)

    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    params = wl.sizes[args.size]
    if args.setup_only:
        wl.setup(args.seed, params)
        print(time.perf_counter() - started)
        return 0
    label = f"{args.workload}-{args.size}-seed{args.seed}"
    print("# " + json.dumps({
        "workload": wl.name, "why": wl.why, "seed": args.seed, "size": args.size,
        "loop": "closed, 1 caller", "params": params, "env": environment(),
    }))

    pinned = pinned_digests(wl.name, args.size, args.seed)
    if args.trace:
        import tracing

        setup_tracer = tracing.Tracer()
        setup_tracer.install()
        try:
            inputs = wl.setup(args.seed, params)
        finally:
            setup_tracer.uninstall()
        attempted, failed, metrics = traced_run(
            wl, inputs, args.seconds, pinned, setup_tracer, label)
        units = tracing.PER_LAYER
    else:
        setup_s = time_setup(args)
        inputs = wl.setup(args.seed, params)
        attempted, failed, metrics = timed_run(wl, inputs, args.seconds, pinned)
        metrics["setup_s"] = setup_s
        units = {name: unit for name, (unit, _) in END_TO_END.items()}

    print(f"# jobs {attempted}, failed {failed}, error_rate {failed / attempted:.6g}, "
          f"pinned digests {'checked' if pinned else 'absent'}")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
