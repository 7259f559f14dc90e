"""Best-response computation and improvement dynamics.

Two modes are provided:

* ``epsilon``: textbook best-response dynamics for unit-weight instances.
  While some agent can multiply its utility by more than ``1 + epsilon``,
  the globally most beneficial deviation (over all agents and strategies)
  is applied.  Every step raises the harmonic potential by the step's gain,
  which exceeds ``epsilon / m``, so the run converges within
  ``ceil(total_value * H(m) * m / epsilon)`` steps.

  The run keeps one flat table of ints: agent i's row is
  ``table[offset[i]:offset[i + 1]]``, and its entry at s is i's scaled
  utility if it plays s while the others stay fixed, so the entry at i's
  current choice is its current utility and each step is read off the
  rows.  With unit weights that entry is the sum over j in s of
  ``v_j * share[L_j - h + 1]``, where L_j is node j's load and h is 1 iff
  i's current strategy holds j.  One move changes the load of only the
  nodes in ``S_old ^ S_new``, each by one, from c to c'.  At such a node:

  - every entry through it gains ``off = v_j * (share[c' + 1] - share[c + 1])``,
    the change for an agent off the node;
  - the entries of the node's holders, the agents whose current strategy
    holds it, gain ``on - off`` more, with ``on = v_j * (share[c'] -
    share[c])``; the mover is no holder here, leaving or arriving;
  - the mover's own entries lose ``off`` again: each counts the others'
    load plus the mover once, whatever the mover plays, so its row does
    not change.

  Each entry thus gets exactly its own delta, with no per-agent test.
  Where every potential attractor of a node is on it, ``c + 1`` or
  ``c' + 1`` counts one agent more than can ever be there, and may be one
  past the end of ``share``; a trailing 0 makes ``off`` formable there.
  Whatever ``off`` is then, no agent is off the node, so every entry that
  gets it gets it back.  The table is built once per run, with its index:
  per node the flat indices through it and its holders, per agent and
  node the agent's own indices.  A step costs integer adds over the moved
  nodes' entries plus a max over each row.

* ``alpha``: for weighted instances.  While some agent can multiply its
  utility by more than ``alpha``, the first such deviation in lexicographic
  (agent, strategy) order is applied.  With
  ``alpha >= ln(1 + w_max) + 1`` the logarithmic potential strictly
  increases per step, so the run terminates at an alpha-approximate
  equilibrium.

All improvement conditions are checked on exact rationals.  Identical
inputs produce identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .engine import Evaluator
from .model import (
    Instance,
    StrategyProfile,
    check_count,
    check_index,
    check_profile,
    exact_number,
)
from .potentials import harmonic_numbers

__all__ = [
    "DynamicsConfig",
    "DynamicsStep",
    "DynamicsTrace",
    "best_response",
    "epsilon_step_bound",
    "min_alpha",
    "run_dynamics",
]


def min_alpha(inst: Instance) -> float:
    """Smallest improvement factor with guaranteed termination,
    ``ln(1 + w_max) + 1``."""
    return math.log(1 + max(inst.weights)) + 1.0


@dataclass(frozen=True)
class DynamicsConfig:
    mode: str  # "epsilon" | "alpha"
    epsilon: Fraction | int | float = Fraction(0)
    alpha: float = 1.0
    max_steps: int = 100_000
    allow_any_alpha: bool = False


@dataclass(frozen=True)
class DynamicsStep:
    agent: int
    old: int
    new: int
    gain: Fraction  # utility gain of the deviating agent, always > 0


@dataclass(frozen=True)
class DynamicsTrace:
    start: StrategyProfile
    steps: tuple[DynamicsStep, ...]
    final: StrategyProfile
    termination: str  # "converged" | "step-limit"


def best_response(
    inst: Instance, profile: StrategyProfile, agent: int
) -> tuple[int, Fraction]:
    """The deviation maximizing the agent's utility given the others.

    Returns ``(strategy index, gain)``.  If no strategy strictly beats the
    current one, returns the current index with gain 0; among strictly
    better strategies, ties break to the smallest index.
    """
    check_profile(inst, profile)
    check_index(agent, inst.num_agents, "agent index")
    ev = Evaluator(inst)
    choices = profile.choices
    loads = ev.loads(choices)
    row = [
        ev.deviation_scaled(choices, loads, agent, s)
        for s in range(len(ev.spaces[agent]))
    ]
    current = row[choices[agent]]
    best = max(row)
    choice = choices[agent] if best == current else row.index(best)
    return choice, ev.frac(best - current)


def epsilon_step_bound(inst: Instance, epsilon: Fraction | int | float) -> int:
    """Convergence bound for epsilon mode:
    ``ceil(total_value * H(m) * m / epsilon)``."""
    epsilon = exact_number(epsilon, "epsilon")
    if epsilon <= 0:
        raise ValueError("step bound requires epsilon > 0")
    m = inst.num_agents
    bound = Fraction(sum(inst.values)) * harmonic_numbers(m)[m] * m / epsilon
    return -(-bound.numerator // bound.denominator)


def _check_config(inst: Instance, cfg: DynamicsConfig) -> Fraction:
    """The mode's exact parameter, epsilon or alpha, once `cfg` is valid
    for `inst`."""
    if cfg.mode not in ("epsilon", "alpha"):
        raise ValueError(f"invalid dynamics mode {cfg.mode!r}")
    check_count(cfg.max_steps, "max_steps")
    if cfg.mode == "epsilon":
        epsilon = exact_number(cfg.epsilon, "epsilon")
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if any(w != 1 for w in inst.weights):
            raise ValueError(
                "weighted-agents-unsupported: epsilon mode requires unit "
                "agent weights"
            )
        return epsilon
    alpha = exact_number(cfg.alpha, "alpha")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    # Tiny tolerance so callers may pass the float threshold itself.
    if not cfg.allow_any_alpha and alpha < min_alpha(inst) - 1e-12:
        raise ValueError(
            f"alpha {cfg.alpha} below ln(1 + w_max) + 1 = "
            f"{min_alpha(inst)}; termination is not guaranteed "
            "(set allow_any_alpha to override)"
        )
    return alpha


def run_dynamics(
    inst: Instance, start: StrategyProfile, cfg: DynamicsConfig
) -> DynamicsTrace:
    """Run improvement dynamics from `start` until no qualifying deviation
    remains or the step limit is hit."""
    check_profile(inst, start)
    rate = _check_config(inst, cfg)
    ev = Evaluator(inst)
    choices = list(start.choices)
    loads = ev.loads(choices)
    steps: list[DynamicsStep] = []

    if cfg.mode == "epsilon":
        # improvement test: dev * q > cur * (q + p)  <=>  dev > (1+eps) cur
        p, q = rate.numerator, rate.denominator
        table, offset, through, holders, mine = _unit_table(ev, choices, loads)
        select = partial(_max_row_gain, table, offset, choices, p, q)
        move = partial(
            _move_unit, ev, choices, loads, table, through, holders, mine,
            ev.share + [0],
        )
    else:
        select = partial(
            ev.first_improvement, choices, loads, rate.numerator, rate.denominator
        )
        move = partial(_move, ev, choices, loads)

    termination = "step-limit"
    for _ in range(cfg.max_steps):
        step = select()
        if step is None:
            termination = "converged"
            break
        agent, new_choice, gain = step
        steps.append(DynamicsStep(agent, choices[agent], new_choice, ev.frac(gain)))
        move(agent, new_choice)
    else:
        if select() is None:
            termination = "converged"

    return DynamicsTrace(
        start=start,
        steps=tuple(steps),
        final=StrategyProfile(tuple(choices)),
        termination=termination,
    )


def _move(ev: Evaluator, choices, loads, agent: int, new_choice: int) -> None:
    w = ev.weights[agent]
    for j in ev.spaces[agent][choices[agent]]:
        loads[j] -= w
    choices[agent] = new_choice
    for j in ev.spaces[agent][new_choice]:
        loads[j] += w


def _unit_table(ev: Evaluator, choices, loads):
    """The epsilon run's flat table and its index, for unit weights.

    Returns ``(table, offset, through, holders, mine)``: agent i's row is
    ``table[offset[i]:offset[i + 1]]``, its entry at s the agent's scaled
    utility at s with the others fixed; ``through[j]`` holds the flat
    index of every strategy through node j, ``holders[j]`` the agents
    whose current strategy holds j, and ``mine[i][j]`` agent i's flat
    indices through j.  `loads` is lowered by each agent's own load while
    its row is scored, and restored."""
    values, share = ev.values, ev.share
    table = []
    offset = [0]
    through = [[] for _ in range(ev.num_nodes)]
    holders = [set() for _ in range(ev.num_nodes)]
    mine = []
    for i, space in enumerate(ev.spaces):
        current = space[choices[i]]
        for j in current:
            holders[j].add(i)
            loads[j] -= 1
        own = {}
        for nodes in space:
            k = len(table)
            u = 0
            for j in nodes:
                u += values[j] * share[loads[j] + 1]
                own.setdefault(j, []).append(k)
            table.append(u)
        for j in current:
            loads[j] += 1
        for j, ks in own.items():
            through[j] += ks
        offset.append(len(table))
        mine.append(own)
    return table, offset, through, holders, mine


def _move_unit(
    ev: Evaluator, choices, loads, table, through, holders, mine, share,
    agent: int, new_choice: int,
) -> None:
    """Move a unit-weight agent, keeping every entry of `table` exact.

    At a node whose load goes from c to c', an agent off the node gains
    `off` at each strategy through it, a holder `on`, and the mover
    nothing.  `share` is ``ev.share`` with one trailing 0, so `off` can be
    formed even at a node every potential attractor is on; no agent is off
    such a node, so the corrections cancel it."""
    sets, values = ev.space_sets, ev.values
    old_nodes = sets[agent][choices[agent]]
    own = mine[agent]
    for j in old_nodes ^ sets[agent][new_choice]:
        c = loads[j]
        leaves = j in old_nodes
        after = c - 1 if leaves else c + 1
        loads[j] = after
        v = values[j]
        off = v * (share[after + 1] - share[c + 1])
        fix = v * (share[after] - share[c]) - off
        for k in through[j]:
            table[k] += off
        held = holders[j]
        if leaves:
            held.discard(agent)
        for h in held:
            for k in mine[h][j]:
                table[k] += fix
        if not leaves:
            held.add(agent)
        for k in own[j]:
            table[k] -= off
    choices[agent] = new_choice


def _max_row_gain(table, offset, choices, p: int, q: int):
    """Globally maximal-gain deviation, or None once the profile is a
    (1 + p/q)-approximate equilibrium.  Ties break on (agent, strategy):
    an improving deviation has positive gain, so the current choice, worth
    no gain, never wins."""
    best_gain = 0
    best = None
    improvable = False
    for i, choice in enumerate(choices):
        a, b = offset[i], offset[i + 1]
        top = max(table[a:b])
        current = table[a + choice]
        if top > current:
            if top * q > current * (q + p):
                improvable = True
            if top - current > best_gain:
                best_gain = top - current
                best = (i, table.index(top, a, b) - a, best_gain)
    if not improvable:
        return None
    return best
