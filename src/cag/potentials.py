"""Potential functions for customer attraction games.

Three potentials drive the equilibrium analysis:

* a value-weighted harmonic (Rosenthal-style) potential, exact for
  unit-weight instances: a unilateral deviation changes it by exactly the
  deviator's utility change;
* a two-agent potential that works for arbitrary weights: a deviation by
  agent i changes it by exactly ``w_i`` times i's utility change;
* a logarithmic potential over loads that increases under every
  multiplicatively-improving deviation in weighted instances.

The first two are exact rationals.  The logarithmic potential is the only
floating-point quantity in the package: it feeds ordering arguments only,
never equilibrium tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import Instance, StrategyProfile, check_profile, _all_loads

__all__ = [
    "harmonic_numbers",
    "log_potential",
    "psi",
    "rosenthal_potential",
    "two_agent_potential",
]


def harmonic_numbers(k: int) -> tuple[Fraction, ...]:
    """The exact harmonic numbers H(0), ..., H(k), where
    H(i) = 1 + 1/2 + ... + 1/i; H(0) = 0 and H(i) - H(i-1) = 1/i."""
    values = [Fraction(0)]
    for i in range(1, k + 1):
        values.append(values[-1] + Fraction(1, i))
    return tuple(values)


def rosenthal_potential(inst: Instance, profile: StrategyProfile) -> Fraction:
    """Value-weighted harmonic potential, sum over nodes of
    ``v_j * H(load_j)``.

    Only defined for unit-weight agents (loads must count agents);
    no exact potential exists once weights differ.
    """
    if any(agent.weight != 1 for agent in inst.agents):
        raise ValueError(
            "weighted-agents-unsupported: the harmonic potential is exact "
            "only when every agent has unit weight"
        )
    check_profile(inst, profile)
    loads = _all_loads(inst, profile)
    h = harmonic_numbers(max(loads, default=0))
    return sum(
        (node.value * h[c] for node, c in zip(inst.nodes, loads) if c > 0),
        Fraction(0),
    )


def two_agent_potential(inst: Instance, profile: StrategyProfile) -> Fraction:
    """Exact weighted potential for two-agent instances.

    Per node the contribution is ``v_j * (w_1 + w_2 - w_1 w_2 / (w_1 + w_2))``
    when both agents attract it, ``v_j * w_i`` when only agent i does, and 0
    otherwise.  A deviation by agent i changes the sum by exactly
    ``w_i * (change in i's utility)``.
    """
    if inst.num_agents != 2:
        raise ValueError("requires-two-agents")
    check_profile(inst, profile)
    w1, w2 = inst.agents[0].weight, inst.agents[1].weight
    s1 = set(inst.agents[0].strategies[profile.choices[0]])
    s2 = set(inst.agents[1].strategies[profile.choices[1]])
    shared = Fraction(w1 + w2) - Fraction(w1 * w2, w1 + w2)
    total = Fraction(0)
    for j, node in enumerate(inst.nodes):
        if j in s1 and j in s2:
            total += node.value * shared
        elif j in s1:
            total += node.value * w1
        elif j in s2:
            total += node.value * w2
    return total


def psi(x: int) -> float:
    """ln(max(1/e, x)); equals -1 at x = 0 and ln(x) for x >= 1."""
    if x < 0:
        raise ValueError("psi is defined for nonnegative integers")
    if x == 0:
        return -1.0
    return math.log(x)


def log_potential(inst: Instance, profile: StrategyProfile) -> float:
    """Sum over nodes of ``v_j * psi(load_j)``.

    Floating point; absolute error is at most ``num_nodes * v_max * 1e-12``.
    Use it for ordering arguments only - improvement conditions are checked
    on exact utilities.
    """
    check_profile(inst, profile)
    loads = _all_loads(inst, profile)
    return sum(node.value * psi(c) for node, c in zip(inst.nodes, loads))
