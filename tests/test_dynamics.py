import gc
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cag import (
    DynamicsConfig,
    Instance,
    StrategyProfile,
    best_response,
    build_named_instance,
    gen_random,
    is_approx_pne,
    log_potential,
    min_alpha,
    run_dynamics,
    utility,
)
from cag.dynamics import (
    DynamicsStep,
    DynamicsTrace,
    _move_unit,
    _unit_table,
    epsilon_step_bound,
)
from cag.engine import Evaluator
from cag.potentials import rosenthal_potential


def test_best_response_example1(example1):
    choice, gain = best_response(example1, StrategyProfile((0, 0, 0)), 0)
    assert choice == 1
    assert gain == Fraction(1, 15)


def test_best_response_at_equilibrium(example1_minus_dummy):
    choice, gain = best_response(example1_minus_dummy, StrategyProfile((0, 1)), 1)
    assert choice == 1
    assert gain == 0


def test_best_response_prefers_smallest_index():
    inst = Instance.build(
        nodes=[("q1", 1), ("q2", 2), ("q3", 2)],
        agents=[("a1", 1, [[0], [1], [2]])],
    )
    choice, gain = best_response(inst, StrategyProfile((0,)), 0)
    assert choice == 1
    assert gain == 1


def _replay(inst, trace):
    choices = list(trace.start.choices)
    for step in trace.steps:
        assert choices[step.agent] == step.old
        before = utility(inst, StrategyProfile(tuple(choices)), step.agent)
        choices[step.agent] = step.new
        after = utility(inst, StrategyProfile(tuple(choices)), step.agent)
        assert after - before == step.gain
        assert step.gain > 0
    return tuple(choices)


def test_epsilon_mode_poa_lb_already_stable():
    inst = build_named_instance("poa-lb", n=4, m=2)
    cfg = DynamicsConfig(mode="epsilon", epsilon=Fraction(0), max_steps=10)
    trace = run_dynamics(inst, StrategyProfile((0, 0)), cfg)
    assert trace.termination == "converged"
    assert trace.steps == ()


def test_epsilon_mode_grabs_uncovered_big_node():
    inst = Instance.build(
        nodes=[("q1", 1), ("q2", 5)],
        agents=[("a1", 1, [[0], [1]]), ("a2", 1, [[0], [1]])],
    )
    cfg = DynamicsConfig(mode="epsilon", epsilon=Fraction(0), max_steps=10)
    trace = run_dynamics(inst, StrategyProfile((0, 0)), cfg)
    assert trace.steps[0].new == 1
    assert trace.termination == "converged"
    assert _replay(inst, trace) == trace.final.choices


def test_epsilon_mode_step_gains_are_global_maxima():
    inst = gen_random("symmetric", seed=9, num_nodes=8, num_agents=4,
                      num_strategies=4)
    cfg = DynamicsConfig(mode="epsilon", epsilon=Fraction(1, 2), max_steps=1000)
    trace = run_dynamics(inst, StrategyProfile((0,) * 4), cfg)
    assert trace.termination == "converged"
    choices = list(trace.start.choices)
    for step in trace.steps:
        profile = StrategyProfile(tuple(choices))
        best = max(
            utility(
                inst,
                StrategyProfile(
                    tuple(alt if k == i else c for k, c in enumerate(choices))
                ),
                i,
            )
            - utility(inst, profile, i)
            for i in range(inst.num_agents)
            for alt in range(len(inst.agents[i].strategies))
        )
        assert step.gain == best
        choices[step.agent] = step.new
    assert is_approx_pne(inst, trace.final, Fraction(3, 2))


def test_epsilon_step_raises_potential_by_gain():
    inst = gen_random("symmetric", seed=4, num_nodes=8, num_agents=4,
                      num_strategies=3)
    cfg = DynamicsConfig(mode="epsilon", epsilon=Fraction(1, 10), max_steps=1000)
    trace = run_dynamics(inst, StrategyProfile((0,) * 4), cfg)
    choices = list(trace.start.choices)
    for step in trace.steps:
        before = rosenthal_potential(inst, StrategyProfile(tuple(choices)))
        choices[step.agent] = step.new
        after = rosenthal_potential(inst, StrategyProfile(tuple(choices)))
        assert after - before == step.gain
        assert step.gain > Fraction(1, 10) / inst.num_agents
    assert len(trace.steps) <= epsilon_step_bound(inst, Fraction(1, 10))


def test_epsilon_mode_handles_weighted_values():
    # unit agents, non-unit node values: the step bound scales by the total value
    inst = Instance.build(
        nodes=[("q1", 4), ("q2", 1), ("q3", 3)],
        agents=[("a1", 1, [[0], [1], [2]]), ("a2", 1, [[0], [1], [2]])],
    )
    eps = Fraction(1, 10)
    bound = epsilon_step_bound(inst, eps)
    cfg = DynamicsConfig(mode="epsilon", epsilon=eps, max_steps=bound + 1)
    trace = run_dynamics(inst, StrategyProfile((1, 1)), cfg)
    assert trace.termination == "converged"
    assert len(trace.steps) <= bound
    assert is_approx_pne(inst, trace.final, 1 + eps)


def test_epsilon_mode_gain_of_exactly_epsilon_is_stable():
    # 3 = (1 + 1/2) * 2: not an improvement by more than 1 + epsilon
    inst = Instance.build(
        nodes=[("q1", 2), ("q2", 3)], agents=[("a1", 1, [[0], [1]])]
    )
    cfg = DynamicsConfig(mode="epsilon", epsilon=Fraction(1, 2), max_steps=10)
    trace = run_dynamics(inst, StrategyProfile((0,)), cfg)
    assert trace.termination == "converged"
    assert trace.steps == ()
    cfg = DynamicsConfig(mode="epsilon", epsilon=Fraction(1, 3), max_steps=10)
    assert run_dynamics(inst, StrategyProfile((0,)), cfg).final.choices == (1,)


def test_epsilon_mode_rejects_weighted_agents(example1):
    cfg = DynamicsConfig(mode="epsilon", epsilon=Fraction(1, 2))
    with pytest.raises(ValueError, match="weighted-agents-unsupported"):
        run_dynamics(example1, StrategyProfile((0, 0, 0)), cfg)


def test_step_limit_reported():
    inst = Instance.build(
        nodes=[("q1", 1), ("q2", 5)],
        agents=[("a1", 1, [[0], [1]]), ("a2", 1, [[0], [1]])],
    )
    cfg = DynamicsConfig(mode="epsilon", epsilon=Fraction(0), max_steps=1)
    trace = run_dynamics(inst, StrategyProfile((0, 0)), cfg)
    assert trace.termination in ("converged", "step-limit")
    # with a single allowed step from (q1, q1) the run cannot finish
    assert len(trace.steps) == 1


def test_alpha_mode_requires_threshold(example1):
    cfg = DynamicsConfig(mode="alpha", alpha=1.0)
    with pytest.raises(ValueError, match="allow_any_alpha"):
        run_dynamics(example1, StrategyProfile((0, 0, 0)), cfg)
    override = DynamicsConfig(mode="alpha", alpha=1.0, allow_any_alpha=True,
                              max_steps=50)
    trace = run_dynamics(example1, StrategyProfile((0, 0, 0)), override)
    assert trace.termination == "step-limit"  # the no-equilibrium cycle


def test_alpha_mode_raises_log_potential_each_step():
    for seed in (0, 1, 2, 3, 4):
        inst = gen_random("asymmetric", seed=seed, num_nodes=6, num_agents=3,
                          num_strategies=3, max_weight=9, max_value=5)
        cfg = DynamicsConfig(mode="alpha", alpha=min_alpha(inst), max_steps=10_000)
        trace = run_dynamics(inst, StrategyProfile((0, 0, 0)), cfg)
        assert trace.termination == "converged"
        choices = list(trace.start.choices)
        previous = log_potential(inst, trace.start)
        for step in trace.steps:
            choices[step.agent] = step.new
            current = log_potential(inst, StrategyProfile(tuple(choices)))
            assert current > previous - 1e-9
            previous = current
        alpha_up = Fraction(min_alpha(inst)) + Fraction(1, 10**9)
        assert is_approx_pne(inst, trace.final, alpha_up)


def test_alpha_mode_takes_first_improving_deviation():
    inst = Instance.build(
        nodes=[("q1", 1), ("q2", 9), ("q3", 9)],
        agents=[("a1", 1, [[0], [1], [2]]), ("a2", 1, [[0], [1], [2]])],
    )
    cfg = DynamicsConfig(mode="alpha", alpha=min_alpha(inst), max_steps=10)
    trace = run_dynamics(inst, StrategyProfile((0, 0)), cfg)
    first = trace.steps[0]
    assert (first.agent, first.new) == (0, 1)


def test_identical_inputs_identical_traces():
    inst = gen_random("symmetric", seed=21, num_nodes=7, num_agents=4,
                      num_strategies=3)
    cfg = DynamicsConfig(mode="epsilon", epsilon=Fraction(1, 10), max_steps=500)
    first = run_dynamics(inst, StrategyProfile((0,) * 4), cfg)
    second = run_dynamics(inst, StrategyProfile((0,) * 4), cfg)
    assert first == second


def test_invalid_configs_rejected(example1):
    with pytest.raises(ValueError):
        run_dynamics(example1, StrategyProfile((0, 0, 0)),
                     DynamicsConfig(mode="nope"))
    with pytest.raises(ValueError):
        run_dynamics(example1, StrategyProfile((0, 0, 0)),
                     DynamicsConfig(mode="alpha", alpha=0.5))
    with pytest.raises(ValueError):
        run_dynamics(example1, StrategyProfile((0, 0, 0)),
                     DynamicsConfig(mode="epsilon", epsilon=Fraction(-1)))


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_alpha_mode_rejects_non_finite_alpha(example1, alpha):
    cfg = DynamicsConfig(mode="alpha", alpha=alpha, allow_any_alpha=True)
    with pytest.raises(ValueError, match="alpha must be finite"):
        run_dynamics(example1, StrategyProfile((0, 0, 0)), cfg)


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.0, 3.0])
def test_float_epsilon_runs_as_its_exact_value(eps):
    inst = gen_random("s-asymmetric", seed=3, num_nodes=8, num_agents=5,
                      num_strategies=3, max_strategy_size=3)
    start = StrategyProfile((0,) * 5)
    trace = run_dynamics(inst, start, DynamicsConfig(mode="epsilon", epsilon=eps))
    exact = DynamicsConfig(mode="epsilon", epsilon=Fraction(eps))
    assert trace == run_dynamics(inst, start, exact)
    if eps > 0:
        assert epsilon_step_bound(inst, eps) == epsilon_step_bound(inst, Fraction(eps))


def test_alpha_mode_accepts_exact_alpha_beyond_float_range(example1):
    cfg = DynamicsConfig(mode="alpha", alpha=Fraction(10**400), allow_any_alpha=True)
    trace = run_dynamics(example1, StrategyProfile((0, 0, 0)), cfg)
    assert trace.termination == "converged"


def test_min_alpha_formula(example1):
    assert min_alpha(example1) == math.log(5) + 1


@st.composite
def overlapping_unit_games(draw):
    """Unit-weight games whose strategies come mostly from a few shared node
    sets, so spaces repeat node sets and rows tie; some agents have a
    single strategy.  Returns (instance, random start)."""
    n = draw(st.integers(1, 6))
    node_set = st.sets(st.integers(0, n - 1), min_size=1, max_size=4).map(
        lambda s: tuple(sorted(s))
    )
    shared = draw(st.lists(node_set, min_size=1, max_size=3))
    strategy = st.one_of(st.sampled_from(shared), node_set)
    nodes = [(f"q{j + 1}", draw(st.integers(1, 5))) for j in range(n)]
    agents = []
    for i in range(draw(st.integers(1, 6))):
        space = draw(st.lists(strategy, min_size=1, max_size=5))
        agents.append((f"a{i + 1}", 1, space))
    inst = Instance.build(nodes, agents)
    start = tuple(draw(st.integers(0, len(a.strategies) - 1)) for a in inst.agents)
    return inst, StrategyProfile(start)


def _reference_epsilon_trace(inst, start, eps, max_steps):
    """Epsilon dynamics in `Fraction`s on `model.utility`: the globally
    largest gain, ties to the smallest (agent, strategy), taken while some
    deviation beats (1 + eps) times the deviator's utility."""
    choices = list(start.choices)

    def select():
        profile = StrategyProfile(tuple(choices))
        best, improvable = None, False
        for i, agent in enumerate(inst.agents):
            current = utility(inst, profile, i)
            for alt in range(len(agent.strategies)):
                if alt == choices[i]:
                    continue
                moved = tuple(alt if k == i else c for k, c in enumerate(choices))
                dev = utility(inst, StrategyProfile(moved), i)
                if dev > (1 + eps) * current:
                    improvable = True
                if dev > current and (best is None or dev - current > best[2]):
                    best = (i, alt, dev - current)
        return best if improvable else None

    steps = []
    for _ in range(max_steps):
        step = select()
        if step is None:
            break
        agent, alt, gain = step
        steps.append(DynamicsStep(agent, choices[agent], alt, gain))
        choices[agent] = alt
    termination = "converged" if select() is None else "step-limit"
    return DynamicsTrace(start, tuple(steps), StrategyProfile(tuple(choices)),
                         termination)


@settings(max_examples=300, deadline=None)
@given(
    overlapping_unit_games(),
    st.sampled_from([Fraction(0), Fraction(1, 100), Fraction(1, 2), Fraction(3)]),
    st.integers(1, 40),
)
def test_epsilon_trace_matches_fraction_reference(game, eps, max_steps):
    inst, start = game
    cfg = DynamicsConfig(mode="epsilon", epsilon=eps, max_steps=max_steps)
    assert run_dynamics(inst, start, cfg) == _reference_epsilon_trace(
        inst, start, eps, max_steps
    )


# a1 leaves q1 while every attractor of q1 is on it, so the outsider's term
# there reads the load one past the table, then comes back
TRAILING_ZERO = (
    Instance.build([("q1", 1), ("q2", 1)], [("a1", 1, [[0], [1]]), ("a2", 1, [[0]])]),
    StrategyProfile((0, 0)),
)


@settings(max_examples=300, deadline=None)
@given(
    overlapping_unit_games(),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=12),
)
@example(game=TRAILING_ZERO, moves=[(0, 1), (0, 0)])
def test_epsilon_table_stays_exact_under_any_move(game, moves):
    """Every entry of the epsilon run's table equals a fresh
    `deviation_scaled` score after each move, improving or not: an entry
    that is wrong but never a row's maximum would leave every trace
    intact."""
    inst, start = game
    ev = Evaluator(inst)
    choices = list(start.choices)
    loads = ev.loads(choices)
    table, offset, through, holders, mine = _unit_table(ev, choices, loads)
    share = ev.share + [0]
    for agent, strategy in moves:
        agent %= inst.num_agents
        strategy %= len(ev.spaces[agent])
        _move_unit(ev, choices, loads, table, through, holders, mine, share,
                   agent, strategy)
        assert loads == ev.loads(choices)
        for i in range(inst.num_agents):
            row = table[offset[i] : offset[i + 1]]
            assert row == [
                ev.deviation_scaled(choices, loads, i, s)
                for s in range(len(ev.spaces[i]))
            ], (agent, i)


def test_dynamics_leave_no_cyclic_garbage():
    """Both modes and best_response free their tables without the cyclic
    collector."""
    unit = gen_random("s-asymmetric", seed=5, num_nodes=10, num_agents=6,
                      num_strategies=4, max_strategy_size=4)
    weighted = gen_random("asymmetric", seed=5, num_nodes=6, num_agents=3,
                          num_strategies=3, max_weight=9, max_value=5)
    epsilon = DynamicsConfig(mode="epsilon", epsilon=Fraction(1, 100))
    alpha = DynamicsConfig(mode="alpha", alpha=min_alpha(weighted))
    calls = {
        "epsilon": lambda: run_dynamics(unit, StrategyProfile((0,) * 6), epsilon),
        "alpha": lambda: run_dynamics(weighted, StrategyProfile((0,) * 3), alpha),
        "best_response": lambda: best_response(unit, StrategyProfile((0,) * 6), 0),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()
