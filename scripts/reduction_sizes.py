#!/usr/bin/env python3
"""Report how cut-reduction gadget sizes grow with the edge weight range.

For a single edge of weight w the gadget encodes lambda * w as a short
signed sum of unit fractions; nodes and dummy agents should stay polynomial
in log(w), which is the point of the construction.  Also re-verifies the
potential identity on every assignment.
"""

import argparse
import itertools
import os
import sys

from cag import (
    CutGraph,
    StrategyProfile,
    cut_from_profile,
    cutweight,
    maxcut_to_cag,
    rosenthal_potential,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-exponent", type=int, default=8)
    args = parser.parse_args()

    print(f"{'weight':>8} {'nodes':>7} {'dummies':>8} {'lambda':>14}")
    for exponent in range(args.max_exponent + 1):
        w = 2**exponent
        graph = CutGraph(2, ((0, 1, w),))
        red = maxcut_to_cag(graph)
        inst = red.instance
        dummies = inst.num_agents - 2
        tail = (0,) * dummies
        for bits in itertools.product((0, 1), repeat=2):
            profile = StrategyProfile(bits + tail)
            x = cut_from_profile(red, profile)
            expected = red.mapping["lambda"] * cutweight(graph, x) + red.mapping[
                "rho_sum"
            ]
            assert rosenthal_potential(inst, profile) == expected
        print(
            f"{w:>8} {inst.num_nodes:>7} {dummies:>8} "
            f"{str(red.mapping['lambda']):>14}"
        )


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # the reader stopped early (`| head`); send the unflushed rest of
        # stdout to devnull so the exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
