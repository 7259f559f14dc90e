"""Self-test of the benchmark, at tiny size.

    python3 perfbench/selftest.py

For every workload it makes one untraced run and two traced runs of the
pinned default seed, and one untraced run of the held-out seed.  It asserts
that:

* BENCHMARK.json names exactly the workloads and metrics the code reports,
  with the same units and rationales;
* every metric prints by name with its unit, and no job fails (error rate 0),
  which includes traced outputs that differ from untraced ones;
* every count of the traced run repeats exactly across the two traced runs;
* the benchmark exits non-zero, printing no result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
import tracing  # noqa: E402  (needs src/ on the path)
import workloads  # noqa: E402

TIME_UNITS = ("ms", "us", "%")  # timings vary between runs; counts may not


def bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0.5", "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(done: subprocess.CompletedProcess, units: dict) -> dict:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units, res["metrics"]
    for name, unit in units.items():
        pattern = rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}"
        assert any(re.fullmatch(pattern, line) for line in lines), (name, unit)
    return res


def check_manifest() -> tuple[dict, dict]:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()
    }
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]}
    assert end_to_end == run.END_TO_END, end_to_end
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert per_layer == tracing.PER_LAYER, per_layer
    return {name: unit for name, (unit, _) in end_to_end.items()}, per_layer


def check_bare_directory(args) -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(*args, cwd=bare)
        assert done.returncode != 0, done.stdout
        assert '"metrics"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    end_to_end, per_layer = check_manifest()
    for name in workloads.WORKLOADS:
        base = ["--workload", name]
        seed = ["--seed", str(run.DEFAULT_SEED)]
        result(bench(*base, *seed, "--trace", "0"), end_to_end)
        result(bench(*base, "--seed", str(run.HELD_OUT_SEED), "--trace", "0"), end_to_end)
        first, second = (result(bench(*base, *seed, "--trace", "1"), per_layer)
                         for _ in range(2))
        for metric, unit in per_layer.items():
            if unit not in TIME_UNITS:
                a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
                assert a == b, (name, metric, a, b)
        print(f"selftest: {name} ok")
    check_bare_directory(["--workload", "symmetric", "--trace", "0"])
    print("selftest: bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
