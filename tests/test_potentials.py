import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from cag import (
    Instance,
    StrategyProfile,
    build_named_instance,
    gen_random,
    harmonic_numbers,
    log_potential,
    psi,
    rosenthal_potential,
    two_agent_potential,
    utility,
)

from conftest import instances_with_profiles


def test_harmonic_table():
    table = harmonic_numbers(5)
    assert len(table) == 6 and table[0] == 0
    assert table[3] == Fraction(11, 6)
    for k in range(1, 6):
        assert table[k] - table[k - 1] == Fraction(1, k)


def test_rosenthal_single_agent_counts_nodes():
    inst = Instance.build(
        nodes=[(f"q{j}", 1) for j in range(4)], agents=[("a1", 1, [[0, 1, 2]])]
    )
    assert rosenthal_potential(inst, StrategyProfile((0,))) == 3


def test_rosenthal_two_agents_shared_node():
    inst = Instance.build(
        nodes=[("q1", 1)], agents=[("a1", 1, [[0]]), ("a2", 1, [[0]])]
    )
    assert rosenthal_potential(inst, StrategyProfile((0, 0))) == Fraction(3, 2)


def test_rosenthal_rejects_weighted_agents():
    inst = Instance.build(nodes=[("q1", 1)], agents=[("a1", 2, [[0]])])
    with pytest.raises(ValueError, match="weighted-agents-unsupported"):
        rosenthal_potential(inst, StrategyProfile((0,)))


def _deviations(inst):
    for choices in itertools.product(
        *(range(len(a.strategies)) for a in inst.agents)
    ):
        for i in range(inst.num_agents):
            for alt in range(len(inst.agents[i].strategies)):
                if alt != choices[i]:
                    other = tuple(
                        alt if k == i else c for k, c in enumerate(choices)
                    )
                    yield StrategyProfile(choices), StrategyProfile(other), i


def test_rosenthal_is_exact_potential():
    inst = gen_random("s-asymmetric", seed=42, num_nodes=5, num_agents=3,
                      num_strategies=2, max_strategy_size=3)
    for before, after, agent in _deviations(inst):
        delta_phi = rosenthal_potential(inst, after) - rosenthal_potential(inst, before)
        delta_u = utility(inst, after, agent) - utility(inst, before, agent)
        assert delta_phi == delta_u


def test_two_agent_potential_shared_node():
    inst = Instance.build(
        nodes=[("q1", 1)], agents=[("a1", 1, [[0]]), ("a2", 2, [[0]])]
    )
    assert two_agent_potential(inst, StrategyProfile((0, 0))) == Fraction(7, 3)


def test_two_agent_potential_unattracted_node_contributes_zero():
    inst = Instance.build(
        nodes=[("q1", 1), ("q2", 9)],
        agents=[("a1", 1, [[0]]), ("a2", 2, [[0]])],
    )
    assert two_agent_potential(inst, StrategyProfile((0, 0))) == Fraction(7, 3)


def test_two_agent_potential_requires_two_agents(example1):
    with pytest.raises(ValueError, match="requires-two-agents"):
        two_agent_potential(example1, StrategyProfile((0, 0, 0)))


def test_two_agent_weighted_identity():
    inst = gen_random("asymmetric", seed=11, num_nodes=5, num_agents=2,
                      num_strategies=3, max_weight=7, max_value=4)
    for before, after, agent in _deviations(inst):
        delta_h = two_agent_potential(inst, after) - two_agent_potential(inst, before)
        delta_u = utility(inst, after, agent) - utility(inst, before, agent)
        assert delta_h == inst.agents[agent].weight * delta_u


def test_psi_values():
    assert psi(0) == -1.0
    assert psi(1) == 0.0
    assert abs(psi(2) - 0.6931471805599453) < 1e-12
    with pytest.raises(ValueError):
        psi(-1)


def test_log_potential_example(example1):
    got = log_potential(example1, StrategyProfile((0, 0, 0)))
    assert abs(got - (2 * math.log(6) + math.log(4))) < 1e-12


def test_log_potential_single_weighted_agent():
    inst = Instance.build(nodes=[("q1", 1)], agents=[("a1", 3, [[0]])])
    assert abs(log_potential(inst, StrategyProfile((0,))) - math.log(3)) < 1e-12


def test_psi_difference_sandwich():
    """x/(x+y) <= psi(y+x) - psi(y) <= (ln(1+x)+1) * x/(x+y) for integer
    x >= 1, y >= 0, swept exhaustively up to 10^4 with 1e-9 margin."""
    limit = 10_000
    logs = np.log(np.arange(1, 2 * limit + 1, dtype=np.float64))
    psi_y = np.concatenate(([-1.0], logs[:limit]))  # psi(0..limit)
    y = np.arange(0, limit + 1, dtype=np.float64)
    for x in range(1, limit + 1):
        diff = logs[x - 1 : x + limit] - psi_y
        ratio = x / (x + y)
        assert np.all(ratio <= diff + 1e-9), x
        assert np.all(diff <= (math.log(1 + x) + 1) * ratio + 1e-9), x


def test_no_exact_potential_for_weighted_agents():
    inst = build_named_instance("no-potential-counterexample")

    def u(choices, agent):
        return utility(inst, StrategyProfile(choices), agent)

    first = (u((0, 0), 1) - u((0, 1), 1)) + (u((0, 1), 0) - u((1, 1), 0))
    second = (u((0, 0), 0) - u((1, 0), 0)) + (u((1, 0), 1) - u((1, 1), 1))
    assert first == Fraction(5, 3)
    assert second == Fraction(4, 3)


@given(instances_with_profiles(max_weight=1))
def test_unit_weight_potential_identity_property(case):
    inst, profile = case
    choices = profile.choices
    for i in range(inst.num_agents):
        for alt in range(len(inst.agents[i].strategies)):
            if alt == choices[i]:
                continue
            other = StrategyProfile(
                tuple(alt if k == i else c for k, c in enumerate(choices))
            )
            delta_phi = rosenthal_potential(inst, other) - rosenthal_potential(
                inst, profile
            )
            assert delta_phi == utility(inst, other, i) - utility(inst, profile, i)
