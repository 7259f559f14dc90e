#!/usr/bin/env python3
"""Sweep the crowding family and print its price of anarchy.

The family puts m unit agents on a shared space {q1..qm}, {q_{m+1}}, ...,
{qn}: everyone piling onto the first set is an equilibrium of welfare m,
while the optimum spreads out.  The printed ratio is n/m while n < 2m and
(2m-1)/m afterwards, approaching 2.
"""

import argparse

from _common import count, run
from cag import analyze, build_named_instance, social_welfare


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-agents", type=count(1), default=4)
    parser.add_argument("--max-nodes", type=count(1), default=10)
    args = parser.parse_args()

    print(f"{'n':>3} {'m':>3} {'opt':>4} {'worst-eq':>8} {'poa':>8}")
    for m in range(2, args.max_agents + 1):
        for n in range(m + 1, args.max_nodes + 1):
            inst = build_named_instance("poa-lb", n=n, m=m)
            report = analyze(inst)
            worst = min(social_welfare(inst, p) for p in report.pne)
            print(f"{n:>3} {m:>3} {report.opt_welfare:>4} {worst:>8} {str(report.poa):>8}")


if __name__ == "__main__":
    run(main)
