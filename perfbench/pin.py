"""Record the output digests of the pinned seeds in perfbench/digests.json.

    python3 perfbench/pin.py

The benchmark fails every job on a pinned seed whose output bytes differ
from the recorded digest.  Re-pin only for a change that is meant to alter
job outputs; outputs that fail their oracle check are never pinned.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402  (needs src/ on the path)


def main() -> int:
    table = {}
    for name, wl in workloads.WORKLOADS.items():
        for size, params in wl.sizes.items():
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                inputs = wl.setup(seed, params)
                outs, _ = run.run_pass(wl, inputs)
                if not all(run.check_outputs(wl, inputs, outs, None)):
                    print(f"pin: {name}/{size}/seed {seed} fails its checks", file=sys.stderr)
                    return 1
                table.setdefault(name, {}).setdefault(size, {})[str(seed)] = [
                    run.digest(out) for out in outs
                ]
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
