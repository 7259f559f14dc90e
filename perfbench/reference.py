"""Reference rows: one-off timings of the pinned instances of the roadmap,
made once per invocation, outside the repeated benchmark runs, and not gated.

    python3 perfbench/reference.py

Rows: `analyze` on ``gen --kind symmetric --seed 3 --nodes 10 --agents 6
--strategies 8`` serially and with ``jobs = min(2, nproc)``; `spoa` on
``spoa-family`` with m = 5, 6, 7; and the seconds of every acceptance
criterion.  Prints one row per line and writes them, with the environment,
to ``.bench_out/reference.json``.  Takes under two minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run

sys.path.insert(0, str(run.ROOT / "src"))
from cag import acceptance, equilibria, generators, instances, io, sequential  # noqa: E402


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def main() -> int:
    rows = {}

    def row(name, value, unit):
        rows[name] = {"value": value, "unit": unit}
        print(f"{name:44s} {value:12.6g} {unit}", flush=True)

    inst = generators.gen_random("symmetric", 3, num_nodes=10, num_agents=6, num_strategies=8)
    profiles = inst.profile_space_size()
    serial, serial_s = timed(lambda: equilibria.analyze(inst))
    jobs = min(2, os.cpu_count() or 1)
    parallel, parallel_s = timed(lambda: equilibria.analyze(inst, jobs=jobs))
    if io.dumps_report(serial) != io.dumps_report(parallel):
        print("reference: serial and parallel reports differ", file=sys.stderr)
        return 1
    row("equilibria.analyze_serial_s", serial_s, "s")
    row("equilibria.analyze_serial_us_per_profile", serial_s * 1e6 / profiles, "us")
    row(f"equilibria.analyze_jobs{jobs}_s", parallel_s, "s")
    row("equilibria.parallel_speedup", serial_s / parallel_s, "x")

    for m in (5, 6, 7):
        game = instances.build_named_instance("spoa-family", m=m)
        _, seconds = timed(lambda: sequential.spoa(game))
        row(f"sequential.spoa_family_m{m}_s", seconds, "s")

    for criterion in acceptance.CRITERIA:
        (ok, detail), seconds = timed(lambda: acceptance.run_criterion(criterion))
        if not ok:
            print(f"reference: {criterion.name} failed: {detail}", file=sys.stderr)
            return 1
        row(f"acceptance.{criterion.name}_s", seconds, "s")

    run.OUT_DIR.mkdir(exist_ok=True)
    (run.OUT_DIR / "reference.json").write_text(
        json.dumps({"env": run.environment(), "rows": rows}, indent=1) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
