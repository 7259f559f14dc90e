"""Deterministic random instance generation for property suites and the
command line.

The seed fully determines the instance.  Each kind guarantees the symmetry
flags its name advertises: degenerate draws (all-unit weights for a
weighted kind, identical spaces for a space-asymmetric kind) are adjusted
deterministically.  The one exception is a single agent, whose space has no
other to differ from.
"""

from __future__ import annotations

import random

from .model import Instance, check_build_size, check_count

__all__ = ["GENERATOR_KINDS", "gen_random"]

GENERATOR_KINDS = ("symmetric", "s-asymmetric", "w-asymmetric", "asymmetric")


def _random_strategy(rng: random.Random, num_nodes: int, max_size: int):
    size = rng.randint(1, max_size)
    return tuple(sorted(rng.sample(range(num_nodes), size)))


def _random_space(rng, num_nodes, num_strategies, max_size):
    return tuple(
        _random_strategy(rng, num_nodes, max_size) for _ in range(num_strategies)
    )


def _force_distinct_spaces(spaces, num_nodes):
    """Make agent 0's space differ from the rest as a set, if needed.  A
    single space has nothing to differ from and is returned as drawn."""
    if len(spaces) == 1 or len({frozenset(space) for space in spaces}) > 1:
        return spaces
    for extra in (
        tuple(range(num_nodes)),
        tuple(range(num_nodes - 1)),
        (0,),
    ):
        if extra and extra not in spaces[0]:
            return (spaces[0] + (extra,),) + spaces[1:]
    raise ValueError("instance too small to make strategy spaces differ")


def gen_random(
    kind: str,
    seed: int,
    num_nodes: int = 6,
    num_agents: int = 3,
    num_strategies: int = 3,
    max_strategy_size: int | None = None,
    max_weight: int = 9,
    max_value: int = 9,
) -> Instance:
    """Generate a random instance of the given symmetry kind.

    Kinds: ``symmetric`` (shared space, unit weights, unit values),
    ``s-asymmetric`` (per-agent spaces), ``w-asymmetric`` (weighted agents),
    ``asymmetric`` (all three components asymmetric).  A single agent
    cannot have asymmetric spaces: with ``num_agents=1`` the space-asymmetric
    kinds draw its ``num_strategies`` strategies like any other.  `seed`
    is an int of at least 0 (`check_count`).
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    # random.Random would take a float or bool as the same int, and fold a
    # negative seed onto its absolute value
    check_count(seed, "seed", least=0)
    for name, bound in (
        ("num_nodes", num_nodes),
        ("num_agents", num_agents),
        ("num_strategies", num_strategies),
        ("max_strategy_size", max_strategy_size),
        ("max_weight", max_weight),
        ("max_value", max_value),
    ):
        if bound is not None:
            check_count(bound, name)
    max_size = num_nodes
    if max_strategy_size is not None:
        max_size = min(max_strategy_size, num_nodes)
    # agent 0 may get one extra strategy of up to num_nodes nodes
    strategies = num_agents * num_strategies
    check_build_size(
        "the generator", num_nodes, num_agents, strategies + 1,
        num_nodes + strategies * max_size,
    )
    rng = random.Random(seed)

    if kind in ("symmetric", "w-asymmetric"):
        shared = _random_space(rng, num_nodes, num_strategies, max_size)
        spaces = tuple(shared for _ in range(num_agents))
    else:
        spaces = tuple(
            _random_space(rng, num_nodes, num_strategies, max_size)
            for _ in range(num_agents)
        )
        spaces = _force_distinct_spaces(spaces, num_nodes)

    if kind in ("w-asymmetric", "asymmetric"):
        weights = [rng.randint(1, max_weight) for _ in range(num_agents)]
        if all(w == 1 for w in weights):
            weights[0] = 2
    else:
        weights = [1] * num_agents

    if kind == "asymmetric":
        values = [rng.randint(1, max_value) for _ in range(num_nodes)]
        if all(v == 1 for v in values):
            values[0] = 2
    else:
        values = [1] * num_nodes

    return Instance.build(
        nodes=[(f"q{j + 1}", values[j]) for j in range(num_nodes)],
        agents=[
            (f"a{i + 1}", weights[i], spaces[i]) for i in range(num_agents)
        ],
    )
