import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from cag import Instance, StrategyProfile, build_named_instance


ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """The environment with the repository's `src/` first on PYTHONPATH,
    for running the package or the scripts in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def example1() -> Instance:
    return build_named_instance("example1")


@pytest.fixture
def example1_minus_dummy() -> Instance:
    return build_named_instance("example1-minus-dummy")


@st.composite
def instances(
    draw,
    max_nodes: int = 5,
    max_agents: int = 3,
    max_strategies: int = 3,
    max_weight: int = 4,
    max_value: int = 4,
):
    """Small random instances for property tests."""
    n = draw(st.integers(1, max_nodes))
    m = draw(st.integers(1, max_agents))
    strategy = st.sets(st.integers(0, n - 1), min_size=1).map(
        lambda s: tuple(sorted(s))
    )
    nodes = [
        (f"q{j + 1}", draw(st.integers(1, max_value))) for j in range(n)
    ]
    agents = [
        (
            f"a{i + 1}",
            draw(st.integers(1, max_weight)),
            draw(st.lists(strategy, min_size=1, max_size=max_strategies)),
        )
        for i in range(m)
    ]
    return Instance.build(nodes, agents)


@st.composite
def instances_with_profiles(draw, **kwargs):
    inst = draw(instances(**kwargs))
    choices = tuple(
        draw(st.integers(0, len(a.strategies) - 1)) for a in inst.agents
    )
    return inst, StrategyProfile(choices)
