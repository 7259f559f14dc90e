"""Core data model for customer attraction games.

A game instance consists of customer nodes (each with a positive integer
value) and agents (each with a positive integer weight and a strategy space
of node subsets).  When an agent picks a strategy, every node in it is
"attracted"; a node's value is split among the attracting agents in
proportion to their weights.

All quantities are exact: utilities are `fractions.Fraction`, loads and
social welfare are integers.  Instances and profiles are immutable, so any
number of concurrent callers may share them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable

__all__ = [
    "Agent",
    "BudgetError",
    "Instance",
    "Node",
    "StrategyProfile",
    "SymmetryClass",
    "ValidationReport",
    "classify_symmetry",
    "load",
    "social_welfare",
    "utility",
    "validate_instance",
]


# the default number of profiles an exhaustive search may cover, and the
# largest total weight `Evaluator` builds a load table for
DEFAULT_BUDGET = 10_000_000


class BudgetError(RuntimeError):
    """Raised when an exhaustive search would exceed the configured budget
    ("search-space-too-large")."""


def check_budget(inst: Instance, budget: int) -> int:
    """Return the number of profiles of `inst`; raise BudgetError if it
    exceeds `budget`, which must be a count (`check_count`).  Every
    exhaustive search calls this before it starts."""
    check_count(budget, "budget")
    size = inst.profile_space_size()
    if size > budget:
        raise BudgetError(
            f"search-space-too-large: {size} profiles exceed budget {budget}"
        )
    return size


# Peak bytes, rounded up, that one object of a built instance takes while
# a builder makes it and the command line writes it as JSON text: a node
# (its id, its text and, in a unit split, its place in the mapping), an
# agent, a strategy, and a node index in a strategy.  Measured on CPython
# 3.11, 64-bit: about 580, 810, 130 and 80.
NODE_BYTES, AGENT_BYTES, STRATEGY_BYTES, ENTRY_BYTES = 640, 1024, 160, 96
# the most a build may take; builds at this estimate finish under an 800 MB
# address-space limit, interpreter included
BUILD_BYTES = 640 * 2**20


def check_build_size(
    what: str, nodes: int, agents: int, strategies: int, entries: int
) -> None:
    """Raise BudgetError if the nodes, agents, strategies and strategy
    entries that `what` would build would take more than BUILD_BYTES, at
    the bytes each is charged above: the only build limit.  Every builder
    that takes a size from input calls this before it allocates, with
    upper bounds on the counts, and may call it first with lower bounds
    to refuse before it can count exactly."""
    cost = (
        NODE_BYTES * nodes
        + AGENT_BYTES * agents
        + STRATEGY_BYTES * strategies
        + ENTRY_BYTES * entries
    )
    if cost > BUILD_BYTES:
        raise BudgetError(
            f"search-space-too-large: {what} would take an estimated {cost} "
            f"bytes, more than {BUILD_BYTES}"
        )


def exact_number(value, name: str) -> Fraction:
    """`value` as an exact rational: an int, a Fraction or a finite float
    converts exactly; anything else, a bool included, raises ValueError
    naming `name`."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    elif isinstance(value, bool) or not isinstance(value, numbers.Rational):
        raise ValueError(
            f"{name} must be an int, a Fraction or a float, got {value!r}"
        )
    return Fraction(value)


def is_int(value) -> bool:
    """True for an int that is not a bool: floats, strings and bools are
    refused, not coerced, wherever an integer is read."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_index(value, size: int, what: str, error: type = IndexError) -> None:
    """Raise `error` naming `what` unless `value` is an int (`is_int`) in
    ``range(size)``."""
    if not is_int(value):
        raise error(f"{what} must be an integer, got {value!r}")
    if not 0 <= value < size:
        raise error(f"{what} {value} out of range")


def check_count(value, what: str, least: int = 1) -> None:
    """Raise ValueError naming `what` unless `value` is an int (`is_int`)
    of at least `least`: the one reader of a size, bound, budget or job
    count argument."""
    if not is_int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")


@dataclass(frozen=True)
class Node:
    id: str
    value: int


@dataclass(frozen=True)
class Agent:
    id: str
    weight: int
    strategies: tuple[tuple[int, ...], ...]  # node indices, each sorted


@dataclass(frozen=True)
class Instance:
    """An immutable game instance.

    Node and agent ids are opaque strings kept for reporting; every
    computation uses dense indices.  Strategies are sorted index tuples and
    profiles reference strategies by index, never by copy.
    """

    nodes: tuple[Node, ...]
    agents: tuple[Agent, ...]

    @classmethod
    def build(
        cls,
        nodes: Iterable[tuple[str, int]],
        agents: Iterable[tuple[str, int, Iterable[Iterable[int]]]],
    ) -> "Instance":
        """Construct an instance from plain lists, normalizing strategies to
        sorted tuples."""
        node_objs = tuple(Node(i, v) for i, v in nodes)
        agent_objs = tuple(
            Agent(i, w, tuple(tuple(sorted(s)) for s in spaces))
            for i, w, spaces in agents
        )
        return cls(node_objs, agent_objs)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(node.value for node in self.nodes)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(agent.weight for agent in self.agents)

    def profile_space_size(self) -> int:
        """Number of pure strategy profiles."""
        return prod(len(agent.strategies) for agent in self.agents)


@dataclass(frozen=True)
class StrategyProfile:
    """One chosen strategy index per agent, in instance order."""

    choices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", tuple(self.choices))


@dataclass(frozen=True)
class SymmetryClass:
    """Which components of an instance are asymmetric.

    All-false means a fully symmetric game: shared strategy space, unit
    weights, unit values.
    """

    asymmetric_strategy_spaces: bool
    asymmetric_weights: bool
    asymmetric_values: bool


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def check_profile(inst: Instance, profile: StrategyProfile) -> None:
    """Raise ValueError unless the profile is valid for the instance."""
    if len(profile.choices) != inst.num_agents:
        raise ValueError(
            f"profile has {len(profile.choices)} choices, "
            f"instance has {inst.num_agents} agents"
        )
    for i, (choice, agent) in enumerate(zip(profile.choices, inst.agents)):
        check_index(
            choice, len(agent.strategies), f"agent {i}: strategy index", ValueError
        )


def load(inst: Instance, profile: StrategyProfile, node: int) -> int:
    """Total weight of the agents attracting `node` under `profile`."""
    check_profile(inst, profile)
    check_index(node, inst.num_nodes, "node index")
    total = 0
    for agent, choice in zip(inst.agents, profile.choices):
        if node in agent.strategies[choice]:
            total += agent.weight
    return total


def _all_loads(inst: Instance, profile: StrategyProfile) -> list[int]:
    loads = [0] * inst.num_nodes
    for agent, choice in zip(inst.agents, profile.choices):
        w = agent.weight
        for j in agent.strategies[choice]:
            loads[j] += w
    return loads


def utility(inst: Instance, profile: StrategyProfile, agent: int) -> Fraction:
    """Exact expected value captured by `agent`: for every attracted node,
    its value times the agent's weight share of the node's load."""
    check_profile(inst, profile)
    check_index(agent, inst.num_agents, "agent index")
    return _utility_at(inst, _all_loads(inst, profile), agent, profile.choices[agent])


def _utility_at(inst: Instance, loads, agent: int, choice: int) -> Fraction:
    """`utility` of `agent` at strategy `choice`, where `loads`, every
    node's load, include the agent's own weight on that strategy."""
    a = inst.agents[agent]
    total = Fraction(0)
    for j in a.strategies[choice]:
        total += Fraction(a.weight * inst.nodes[j].value, loads[j])
    return total


def social_welfare(inst: Instance, profile: StrategyProfile) -> int:
    """Total value of attracted nodes; equals the sum of all utilities."""
    check_profile(inst, profile)
    loads = _all_loads(inst, profile)
    return sum(node.value for node, c in zip(inst.nodes, loads) if c > 0)


def classify_symmetry(inst: Instance) -> SymmetryClass:
    """Flag each component (strategy spaces, weights, values) that breaks
    full symmetry."""
    spaces = {frozenset(agent.strategies) for agent in inst.agents}
    return SymmetryClass(
        asymmetric_strategy_spaces=len(spaces) > 1,
        asymmetric_weights=any(agent.weight != 1 for agent in inst.agents),
        asymmetric_values=any(node.value != 1 for node in inst.nodes),
    )


def validate_instance(inst: Instance) -> ValidationReport:
    """Check hard invariants (errors) and node coverage (warning).

    A total node value or agent weight of more digits than
    `sys.get_int_max_str_digits()` is an error: a welfare or total weight
    that large could not be written as text.

    Coverage of all nodes by the union of the strategy spaces is reported as
    a warning only: every computation is well-defined without it.
    """
    errors: list[str] = []
    warnings: list[str] = []

    seen_node_ids: set[str] = set()
    for node in inst.nodes:
        if node.id in seen_node_ids:
            errors.append(f"duplicate node id {node.id!r}")
        seen_node_ids.add(node.id)
        if not is_int(node.value):
            errors.append(f"node {node.id!r}: value {node.value!r} is not an integer")
        elif node.value < 1:
            errors.append(f"node {node.id!r}: non-positive value {node.value}")
    # a welfare, at most the total value, past `int()`'s digit limit could
    # not be written as text, nor could a total weight in a refusal.
    # 8**limit < 10**limit, so the shift screens out usual totals without
    # computing the power of ten
    limit = sys.get_int_max_str_digits()
    totals = {
        "node values": sum(n.value for n in inst.nodes if is_int(n.value)),
        "agent weights": sum(a.weight for a in inst.agents if is_int(a.weight)),
    }
    for what, total in totals.items():
        if limit and total >= 1 << 3 * limit and total >= 10**limit:
            errors.append(f"{what}: total exceeds the limit of {limit} digits")

    if not inst.agents:
        errors.append("no agents")
    covered: set[int] = set()
    seen_agent_ids: set[str] = set()
    for agent in inst.agents:
        if agent.id in seen_agent_ids:
            errors.append(f"duplicate agent id {agent.id!r}")
        seen_agent_ids.add(agent.id)
        if not is_int(agent.weight):
            errors.append(
                f"agent {agent.id!r}: weight {agent.weight!r} is not an integer"
            )
        elif agent.weight < 1:
            errors.append(f"agent {agent.id!r}: non-positive weight {agent.weight}")
        if not agent.strategies:
            errors.append(f"agent {agent.id!r}: empty strategy space")
        for k, strategy in enumerate(agent.strategies):
            if not strategy:
                errors.append(f"agent {agent.id!r} strategy {k}: empty strategy")
            if not all(map(is_int, strategy)):
                errors.append(
                    f"agent {agent.id!r} strategy {k}: node index not an integer"
                )
                continue
            if any(not 0 <= j < inst.num_nodes for j in strategy):
                errors.append(
                    f"agent {agent.id!r} strategy {k}: node index out of range"
                )
                continue
            if any(a >= b for a, b in zip(strategy, strategy[1:])):
                errors.append(
                    f"agent {agent.id!r} strategy {k}: indices not sorted/unique"
                )
            covered.update(strategy)

    uncovered = [n.id for j, n in enumerate(inst.nodes) if j not in covered]
    if uncovered and not errors:
        warnings.append(
            "nodes not covered by any strategy: " + ", ".join(uncovered)
        )
    return ValidationReport(tuple(errors), tuple(warnings))
