"""Named benchmark instances used throughout the analysis and tests.

* ``example1`` - four nodes valued (2, 1, 1, 2), two active agents with
  weights 4 and 1 plus a pinned unit dummy on the outer nodes; the dummy
  tilts the 2x2 payoff matrix so every state has a profitable deviation and
  no pure equilibrium exists.
* ``example1-minus-dummy`` - the same game without the dummy; it has two
  equilibria (the anti-diagonal cells) and serves as the core gadget of the
  matching reduction.
* ``poa-lb`` (parameters n > m >= 1) - n unit nodes, m unit agents sharing the
  space ``{q1..qm}, {q_{m+1}}, ..., {qn}``; everyone crowding the first set
  is an equilibrium, so the price of anarchy is n/m for n < 2m and
  (2m-1)/m otherwise.
* ``spoa-family`` (parameter m >= 2; ``spoa-two-agent`` is m = 2) - the
  sequential ``poa-lb(2m-1, m)``, whose worst subgame-perfect outcome wastes
  the singleton nodes, giving sequential price of anarchy (2m-1)/m.
* ``no-potential-counterexample`` - one unit node, weights (1, 2), each
  agent choosing between the node and staying out; two deviation paths sum
  to different utility changes, so no exact potential exists.  Note the
  empty strategy: this instance deliberately fails validation and is only
  used for the potential-path test.

Each name takes exactly the parameters listed, integers in the ranges
given; a missing or extra one, or one that is no such integer, is a
ValueError.
"""

from __future__ import annotations

from .model import Instance, check_build_size, check_count
from .sequential import SequentialGame

__all__ = ["build_named_instance", "NAMED_INSTANCES"]


def _example1() -> Instance:
    return Instance.build(
        nodes=[("q1", 2), ("q2", 1), ("q3", 1), ("q4", 2)],
        agents=[
            ("a1", 4, [[0, 1], [2, 3]]),
            ("a2", 1, [[0, 2], [1, 3]]),
            ("a3", 1, [[0, 3]]),
        ],
    )


def _example1_minus_dummy() -> Instance:
    full = _example1()
    return Instance(full.nodes, full.agents[:2])


def _poa_lb(n: int, m: int) -> Instance:
    check_count(m, "m")
    check_count(n, "n", least=m + 1)
    check_build_size("the named instance", n, m, m * (n - m + 1), n * m)
    space = [list(range(m))] + [[j] for j in range(m, n)]
    return Instance.build(
        nodes=[(f"q{j + 1}", 1) for j in range(n)],
        agents=[(f"a{i + 1}", 1, space) for i in range(m)],
    )


def _spoa_family(m: int) -> SequentialGame:
    check_count(m, "m", least=2)
    return SequentialGame.natural(_poa_lb(2 * m - 1, m))


def _no_potential_counterexample() -> Instance:
    return Instance.build(
        nodes=[("q1", 1)],
        agents=[("a1", 1, [[0], []]), ("a2", 2, [[0], []])],
    )


# name -> (builder, the names of its parameters, in call order)
_TABLE = {
    "example1": (_example1, ()),
    "example1-minus-dummy": (_example1_minus_dummy, ()),
    "no-potential-counterexample": (_no_potential_counterexample, ()),
    "poa-lb": (_poa_lb, ("n", "m")),
    "spoa-two-agent": (lambda: _spoa_family(2), ()),
    "spoa-family": (_spoa_family, ("m",)),
}

NAMED_INSTANCES = tuple(_TABLE)


def build_named_instance(
    name: str, n: int | None = None, m: int | None = None
) -> Instance | SequentialGame:
    """Build a named instance from exactly the parameters it takes; a
    parameter left as None is not given."""
    if name not in _TABLE:
        raise ValueError(f"unknown instance name {name!r}")
    builder, takes = _TABLE[name]
    given = {k: v for k, v in (("n", n), ("m", m)) if v is not None}
    stray = [k for k in given if k not in takes]
    if stray:
        raise ValueError(f"{name} takes no parameter {' or '.join(stray)}")
    if len(given) < len(takes):
        plural = "s" if len(takes) > 1 else ""
        raise ValueError(f"{name} requires parameter{plural} {' and '.join(takes)}")
    return builder(*(given[k] for k in takes))
