#!/usr/bin/env python3
"""Measure best-response convergence against the proved step bound.

Runs epsilon-mode dynamics on random symmetric instances and compares the
observed step counts with ceil(total_value * H(m) * m / epsilon).  Observed
counts are usually far below the bound.
"""

import argparse
import os
import sys
from fractions import Fraction

from cag import DynamicsConfig, StrategyProfile, gen_random, run_dynamics
from cag.dynamics import epsilon_step_bound
from cag.io import parse_rational


def positive_rational(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=positive_int, default=50)
    parser.add_argument("--agents", type=positive_int, default=4)
    parser.add_argument("--nodes", type=positive_int, default=10)
    parser.add_argument(
        "--eps", type=positive_rational, default="1/10", help="rational like 1/10"
    )
    args = parser.parse_args()
    eps = args.eps

    worst_ratio = 0.0
    total_steps = 0
    bound = None
    for seed in range(args.instances):
        inst = gen_random(
            "symmetric",
            seed=seed,
            num_nodes=args.nodes,
            num_agents=args.agents,
            num_strategies=4,
        )
        bound = epsilon_step_bound(inst, eps)
        cfg = DynamicsConfig(mode="epsilon", epsilon=eps, max_steps=bound + 1)
        trace = run_dynamics(inst, StrategyProfile((0,) * args.agents), cfg)
        assert trace.termination == "converged"
        total_steps += len(trace.steps)
        worst_ratio = max(worst_ratio, len(trace.steps) / bound)

    print(f"instances:        {args.instances}")
    print(f"epsilon:          {eps}")
    print(f"last step bound:  {bound}")
    print(f"mean steps:       {total_steps / args.instances:.2f}")
    print(f"worst steps/bound ratio: {worst_ratio:.4f}")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # the reader stopped early (`| head`); send the unflushed rest of
        # stdout to devnull so the exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
