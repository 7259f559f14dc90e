import math
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, strategies as st

from cag import (
    Agent,
    BudgetError,
    DynamicsConfig,
    Instance,
    Node,
    SequentialGame,
    StrategyProfile,
    analyze,
    best_response,
    build_named_instance,
    classify_symmetry,
    decompose_fraction,
    edge_gadget_terms,
    gen_random,
    is_approx_pne,
    load,
    optimal_social_welfare,
    pne_exists,
    run_dynamics,
    social_welfare,
    spe_decision,
    spe_solve,
    spoa,
    utility,
    validate_instance,
)
from cag import model
from cag.dynamics import epsilon_step_bound
from cag.engine import Evaluator
from cag.gadgets import first_primes

from conftest import instances, instances_with_profiles


def test_load_counts_attracting_weight(example1):
    p = StrategyProfile((0, 0, 0))
    assert load(example1, p, 0) == 6
    assert load(example1, p, 1) == 4
    assert load(example1, p, 2) == 1


def test_load_zero_when_unattracted(example1):
    # nobody picks a strategy containing q3 under (s11, s22, dummy)
    assert load(example1, StrategyProfile((0, 1, 0)), 2) == 0


def test_load_without_dummy(example1_minus_dummy):
    assert load(example1_minus_dummy, StrategyProfile((0, 1)), 1) == 5


def test_load_rejects_bad_node(example1):
    with pytest.raises(IndexError):
        load(example1, StrategyProfile((0, 0, 0)), 9)


def test_utility_values(example1, example1_minus_dummy):
    assert utility(example1, StrategyProfile((0, 0, 0)), 0) == Fraction(7, 3)
    assert utility(example1_minus_dummy, StrategyProfile((0, 0)), 0) == Fraction(13, 5)


def test_utility_alone_gets_everything():
    inst = Instance.build(
        nodes=[("q1", 5), ("q2", 3)], agents=[("a1", 2, [[0, 1]])]
    )
    assert utility(inst, StrategyProfile((0,)), 0) == 8


def test_utility_rejects_bad_agent(example1):
    with pytest.raises(IndexError):
        utility(example1, StrategyProfile((0, 0, 0)), 3)


def test_social_welfare_examples(example1):
    assert social_welfare(example1, StrategyProfile((0, 0, 0))) == 6
    single = Instance.build(nodes=[("q1", 5)], agents=[("a1", 1, [[0]])])
    assert social_welfare(single, StrategyProfile((0,))) == 5


def test_classify_symmetry(example1):
    flags = classify_symmetry(example1)
    assert (
        flags.asymmetric_strategy_spaces,
        flags.asymmetric_weights,
        flags.asymmetric_values,
    ) == (True, True, True)

    unit = Instance.build(
        nodes=[("q1", 1), ("q2", 1)],
        agents=[("a1", 1, [[0], [1]]), ("a2", 1, [[1], [0]])],
    )
    flags = classify_symmetry(unit)  # same space as a set, despite ordering
    assert not flags.asymmetric_strategy_spaces
    assert not flags.asymmetric_weights
    assert not flags.asymmetric_values

    distinct = Instance.build(
        nodes=[("q1", 1), ("q2", 1)],
        agents=[("a1", 1, [[0]]), ("a2", 1, [[1]])],
    )
    assert classify_symmetry(distinct).asymmetric_strategy_spaces


def test_validate_clean_instance(example1):
    report = validate_instance(example1)
    assert report.ok and not report.warnings


def test_validate_minimal_instance():
    inst = Instance.build(nodes=[("q1", 1)], agents=[("a1", 1, [[0]])])
    assert validate_instance(inst).ok


def test_validate_flags_empty_strategy():
    inst = Instance.build(nodes=[("q1", 1)], agents=[("a1", 1, [[]])])
    report = validate_instance(inst)
    assert any("empty strategy" in e for e in report.errors)


def test_validate_flags_empty_strategy_space():
    inst = Instance.build(nodes=[("q1", 1)], agents=[("a1", 1, [])])
    report = validate_instance(inst)
    assert any("empty strategy space" in e for e in report.errors)


def test_validate_flags_bad_index_and_weight():
    inst = Instance.build(
        nodes=[("q1", 1)], agents=[("a1", 0, [[0, 4]])]
    )
    errors = " ".join(validate_instance(inst).errors)
    assert "out of range" in errors
    assert "non-positive weight" in errors


def test_validate_flags_duplicate_ids_on_a_built_instance():
    inst = Instance.build(
        nodes=[("q1", 1), ("q1", 2)],
        agents=[("a1", 1, [[0]]), ("a1", 1, [[1]])],
    )
    assert validate_instance(inst).errors == (
        "duplicate node id 'q1'",
        "duplicate agent id 'a1'",
    )


def test_validate_flags_a_total_value_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    largest = 10**limit - 1  # the largest total of `limit` digits

    def errors(total):
        nodes = [("q1", total - 1), ("q2", 1)]
        return validate_instance(Instance.build(nodes, [("a1", 1, [[0, 1]])])).errors

    assert errors(largest) == ()
    assert errors(largest + 1) == (
        f"node values: total exceeds the limit of {limit} digits",
    )


def test_validate_flags_a_total_weight_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    largest = 10**limit - 1

    def errors(total):
        agents = [("a1", total - 1, [[0]]), ("a2", 1, [[0]])]
        return validate_instance(Instance.build([("q1", 1)], agents)).errors

    assert errors(largest) == ()
    assert errors(largest + 1) == (
        f"agent weights: total exceeds the limit of {limit} digits",
    )


def test_validate_warns_on_uncovered_nodes():
    inst = Instance.build(
        nodes=[("q1", 1), ("q2", 1)], agents=[("a1", 1, [[0]])]
    )
    report = validate_instance(inst)
    assert report.ok
    assert any("q2" in w for w in report.warnings)


def test_profile_length_checked(example1):
    with pytest.raises(ValueError):
        utility(example1, StrategyProfile((0, 0)), 0)
    with pytest.raises(ValueError):
        social_welfare(example1, StrategyProfile((0, 0, 5)))


@given(instances_with_profiles())
def test_utilities_sum_to_welfare(case):
    inst, profile = case
    total = sum(
        (utility(inst, profile, i) for i in range(inst.num_agents)), Fraction(0)
    )
    assert total == social_welfare(inst, profile)


# large weights make reachable loads sparse, so den is far below lcm(1..max)
@given(
    st.one_of(instances_with_profiles(), instances_with_profiles(max_weight=10**6))
)
def test_engine_matches_definitions(case):
    inst, profile = case
    ev = Evaluator(inst)
    loads = ev.loads(profile.choices)
    for j in range(inst.num_nodes):
        assert loads[j] == load(inst, profile, j)
    for i in range(inst.num_agents):
        assert ev.frac(ev.utility_scaled(profile.choices, loads, i)) == utility(
            inst, profile, i
        )
    assert ev.welfare(loads) == social_welfare(inst, profile)


@given(instances(max_weight=1, max_agents=6))
def test_unit_weight_denominator_is_lcm_up_to_max_potential_load(inst):
    potential = [
        sum(any(j in s for s in a.strategies) for a in inst.agents)
        for j in range(inst.num_nodes)
    ]
    assert Evaluator(inst).den == lcm(*range(1, max(potential) + 1))


def test_denominator_stays_small_for_large_weights():
    # reachable loads are {W, W + 1, 2W + 1}, while lcm(1..2W + 1) has
    # about 57,700 bits
    w = 20_000
    inst = Instance.build(
        nodes=[("q1", 3), ("q2", 2)],
        agents=[("a1", w, [[0], [1]]), ("a2", w + 1, [[0], [1]])],
    )
    ev = Evaluator(inst)
    assert ev.den == lcm(w, w + 1, 2 * w + 1)
    assert ev.den.bit_length() < 64


@given(instances_with_profiles(), st.integers(2, 5))
def test_value_scaling_scales_utilities(case, factor):
    from cag import best_response

    inst, profile = case
    scaled = Instance(
        tuple(Node(n.id, n.value * factor) for n in inst.nodes), inst.agents
    )
    for i in range(inst.num_agents):
        assert utility(scaled, profile, i) == factor * utility(inst, profile, i)
        choice, gain = best_response(inst, profile, i)
        scaled_choice, scaled_gain = best_response(scaled, profile, i)
        assert scaled_choice == choice and scaled_gain == factor * gain
    assert social_welfare(scaled, profile) == factor * social_welfare(inst, profile)


@given(instances_with_profiles())
def test_dropping_nodes_never_helps(case):
    """Removing nodes from an agent's chosen strategy never increases its
    utility, keeping the others fixed."""
    inst, profile = case
    agent = 0
    strategy = inst.agents[agent].strategies[profile.choices[agent]]
    base = utility(inst, profile, agent)
    for drop in range(len(strategy)):
        reduced = strategy[:drop] + strategy[drop + 1 :]
        agents = list(inst.agents)
        spaces = list(agents[agent].strategies)
        spaces[profile.choices[agent]] = reduced
        agents[agent] = Agent(agents[agent].id, agents[agent].weight, tuple(spaces))
        shrunk = Instance(inst.nodes, tuple(agents))
        assert utility(shrunk, profile, agent) <= base


@pytest.mark.parametrize(
    "agents",
    [
        [("a1", 0, [[0]])],
        [("a1", -2, [[0]])],
        [("a1", 1, [])],
        [("a1", 1, [[0], []])],
        [("a1", 1, [[0, 2]])],
        [("a1", 1, [[-1]])],
        [("a1", 1, [[1], [0, 0]])],
    ],
    ids=["zero-weight", "negative-weight", "empty-space", "empty-strategy",
         "node-too-large", "negative-node", "repeated-node"],
)
def test_evaluator_rejects_invalid_instances(agents):
    inst = Instance.build([("q1", 1), ("q2", 1)], agents)
    errors = validate_instance(inst).errors
    assert errors
    with pytest.raises(ValueError) as refused:
        Evaluator(inst)
    assert str(refused.value) == "invalid-instance: " + "; ".join(errors)
    with pytest.raises(ValueError, match="^invalid-instance: "):
        analyze(inst)


@pytest.mark.parametrize(
    "values, agents, error",
    [
        ((0, 0), [("a1", 1, [[0], [1]])], "non-positive value 0"),
        ((1, -3), [("a1", 1, [[0], [1]])], "non-positive value -3"),
        ((1, 1), [], "no agents"),
    ],
    ids=["zero-value", "negative-value", "no-agents"],
)
def test_degenerate_instances_rejected(values, agents, error):
    inst = Instance.build(
        [(f"q{j + 1}", v) for j, v in enumerate(values)], agents
    )
    assert error in " ".join(validate_instance(inst).errors)
    for run in (Evaluator, analyze, lambda i: spoa(SequentialGame.natural(i))):
        with pytest.raises(ValueError, match=f"^invalid-instance: .*{error}$"):
            run(inst)


def _integer(value) -> bool:
    return type(value) is int


def _evaluable(inst) -> bool:
    """The rules `Evaluator` enforces, written out independently of the
    engine: every number an int, not a float or bool; then the seven rules
    it has enforced since it first refused instances."""
    strategies = [s for a in inst.agents for s in a.strategies]
    numbers = [n.value for n in inst.nodes] + [a.weight for a in inst.agents]
    return (
        all(map(_integer, numbers + [j for s in strategies for j in s]))
        and len(inst.agents) > 0
        and all(node.value >= 1 for node in inst.nodes)
        and all(a.weight >= 1 for a in inst.agents)
        and all(len(a.strategies) > 0 for a in inst.agents)
        and all(len(s) > 0 for s in strategies)
        and all(len(set(s)) == len(s) for s in strategies)
        and all(0 <= j < inst.num_nodes for s in strategies for j in s)
    )


BREAKS = ("weight", "value", "space", "strategy", "repeat", "range",
          "agents", "nodes", "order", "id", "float", "bool")


def _not_an_int(draw, kind: str, number: int):
    """`number` as a float, integral or not, or as a bool."""
    if kind == "bool":
        return bool(number)
    return number + draw(st.sampled_from((0.0, 0.5)))


@st.composite
def broken_instances(draw):
    """Small valid instances with up to two fields broken: a weight or value
    of 0 or -1, an empty space or strategy, a repeated or out-of-range node,
    no agents or no nodes, or a value, weight or node index that is a float
    or a bool; or an unsorted strategy or a repeated agent id, which
    evaluation does not mind."""
    inst = draw(instances())
    nodes, agents = list(inst.nodes), list(inst.agents)
    for field in draw(st.lists(st.sampled_from(BREAKS), max_size=2)):
        if field in ("float", "bool"):
            target = draw(st.sampled_from(("value", "weight", "index")))
            if target == "value" and nodes:
                j = draw(st.integers(0, len(nodes) - 1))
                value = _not_an_int(draw, field, nodes[j].value)
                nodes[j] = Node(nodes[j].id, value)
            elif agents:
                i = draw(st.integers(0, len(agents) - 1))
                a = agents[i]
                name, weight, spaces = a.id, a.weight, list(a.strategies)
                if target == "weight":
                    weight = _not_an_int(draw, field, weight)
                elif spaces and spaces[0]:
                    k = draw(st.integers(0, len(spaces[0]) - 1))
                    s = list(spaces[0])
                    s[k] = _not_an_int(draw, field, s[k])
                    spaces[0] = tuple(s)
                agents[i] = Agent(name, weight, tuple(spaces))
        elif field == "nodes":
            nodes = []
        elif field == "agents":
            agents = []
        elif field == "value":
            if nodes:
                j = draw(st.integers(0, len(nodes) - 1))
                nodes[j] = Node(nodes[j].id, draw(st.integers(-1, 0)))
        elif agents:
            i = draw(st.integers(0, len(agents) - 1))
            a = agents[i]
            name, weight, spaces = a.id, a.weight, list(a.strategies)
            k = draw(st.integers(0, len(spaces) - 1)) if spaces else None
            if field == "weight":
                weight = draw(st.integers(-1, 0))
            elif field == "space":
                spaces = []
            elif field == "strategy":
                spaces.append(())
            elif field == "id":
                name = agents[0].id
            elif k is not None and spaces[k]:
                s = spaces[k]
                outside = draw(st.sampled_from((-1, inst.num_nodes)))
                spaces[k] = {
                    "repeat": s + s[:1],
                    "range": s + (outside,),
                    "order": s[::-1],
                }[field]
            agents[i] = Agent(name, weight, tuple(spaces))
    return Instance(tuple(nodes), tuple(agents))


@given(broken_instances())
def test_evaluator_accepts_exactly_the_evaluable_instances(inst):
    if _evaluable(inst):
        Evaluator(inst)
        return
    errors = validate_instance(inst).errors
    assert errors
    with pytest.raises(ValueError) as refused:
        Evaluator(inst)
    assert str(refused.value) == "invalid-instance: " + "; ".join(errors)


def test_evaluator_refuses_total_weight_above_budget():
    # the load table has one entry per load up to the total weight
    w = 6_000_000
    inst = Instance.build(
        nodes=[("q1", 3), ("q2", 2)],
        agents=[("a1", w, [[0], [1]]), ("a2", w + 1, [[0], [1]])],
    )
    with pytest.raises(BudgetError, match="^search-space-too-large: "):
        Evaluator(inst)


_COUNT = st.integers(0, 10**9)


@given(_COUNT, _COUNT, _COUNT, _COUNT)
@example(2**20, 0, 0, 0)  # exactly BUILD_BYTES
@example(2**20, 0, 0, 1)
@example(0, 0, 0, 10**7 + 1)
def test_build_size_is_refused_iff_its_byte_estimate_is_too_large(
    nodes, agents, strategies, entries
):
    """The byte estimate is the only build limit: a size is refused iff its
    estimate exceeds BUILD_BYTES.  The estimate is at least 96 bytes per
    node and entry, so a count of nodes plus entries past 10^7 never
    decides alone."""
    cost = (
        model.NODE_BYTES * nodes
        + model.AGENT_BYTES * agents
        + model.STRATEGY_BYTES * strategies
        + model.ENTRY_BYTES * entries
    )
    try:
        model.check_build_size("the build", nodes, agents, strategies, entries)
        refused = False
    except BudgetError:
        refused = True
    assert refused == (cost > model.BUILD_BYTES)


def test_library_refuses_a_total_weight_past_the_digit_limit_in_its_own_words():
    """The budget refusal would print the total weight, which `int()` cannot
    write past the digit limit; `validate_instance` words the refusal."""
    limit = sys.get_int_max_str_digits()
    w = 10**limit - 1
    inst = Instance.build(
        [("q1", 1), ("q2", 1)], [("a1", w, [[0], [1]]), ("a2", w, [[0, 1]])]
    )
    with pytest.raises(ValueError) as refused:
        analyze(inst)
    assert str(refused.value) == (
        f"invalid-instance: agent weights: total exceeds the limit of {limit} digits"
    )


# (entry point, the argument it names, a call passing that argument)
_NUMBER_ENTRY_POINTS = [
    ("is_approx_pne", "alpha", lambda inst, p, v: is_approx_pne(inst, p, v)),
    ("spe_decision", "threshold",
     lambda inst, p, v: spe_decision(SequentialGame.natural(inst), 0, v)),
    ("epsilon_step_bound", "epsilon", lambda inst, p, v: epsilon_step_bound(inst, v)),
    ("run_dynamics", "epsilon", lambda inst, p, v: run_dynamics(
        inst, p, DynamicsConfig(mode="epsilon", epsilon=v))),
]


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize(
    "name, call", [e[1:] for e in _NUMBER_ENTRY_POINTS],
    ids=[e[0] for e in _NUMBER_ENTRY_POINTS],
)
def test_entry_points_refuse_non_finite_numbers_by_name(name, call, value):
    inst = Instance.build([("q1", 1), ("q2", 2)], [("a1", 1, [[0], [1]])])
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        call(inst, StrategyProfile((0,)), value)


# (entry point, a call passing `index` where it reads an index, the refusal)
_INDEX_ENTRY_POINTS = [
    ("profile-choice", lambda inst, i: utility(inst, StrategyProfile((0, i)), 0),
     ValueError, "agent 1: strategy index must be an integer"),
    ("order", lambda inst, i: SequentialGame(inst, (i, 0)),
     ValueError, "order must be a permutation of the agent indices"),
    ("utility-agent", lambda inst, i: utility(inst, StrategyProfile((0, 0)), i),
     IndexError, "agent index must be an integer"),
    ("best_response-agent",
     lambda inst, i: best_response(inst, StrategyProfile((0, 0)), i),
     IndexError, "agent index must be an integer"),
    ("spe_decision-agent",
     lambda inst, i: spe_decision(SequentialGame.natural(inst), i, 1),
     IndexError, "agent index must be an integer"),
    ("load-node", lambda inst, i: load(inst, StrategyProfile((0, 0)), i),
     IndexError, "node index must be an integer"),
]


@pytest.mark.parametrize("index", [1.0, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "call, error, text", [e[1:] for e in _INDEX_ENTRY_POINTS],
    ids=[e[0] for e in _INDEX_ENTRY_POINTS],
)
def test_index_arguments_must_be_ints(call, error, text, index):
    """Where the int 1 is a valid index, a float, bool or string equal to
    it is refused as the loaders refuse it, neither coerced nor left to
    raise TypeError."""
    inst = Instance.build(
        [("q1", 1), ("q2", 2)], [("a1", 1, [[0], [1]]), ("a2", 1, [[0], [1]])]
    )
    call(inst, 1)
    with pytest.raises(error, match=f"^{text}"):
        call(inst, index)


@pytest.mark.parametrize(
    "name, call", [e[1:] for e in _NUMBER_ENTRY_POINTS],
    ids=[e[0] for e in _NUMBER_ENTRY_POINTS],
)
def test_entry_points_refuse_bool_numbers_by_name(name, call):
    """A bool is refused as a string is, not read as 0 or 1."""
    inst = Instance.build([("q1", 1), ("q2", 2)], [("a1", 1, [[0], [1]])])
    text = f"^{name} must be an int, a Fraction or a float, got True$"
    with pytest.raises(ValueError, match=text):
        call(inst, StrategyProfile((0,)), True)


_COUNT_GAME = Instance.build([("q1", 1), ("q2", 2)], [("a1", 1, [[0], [1]])])


def _gen(**sizes):
    base = dict(num_nodes=1, num_agents=1, num_strategies=1)
    return gen_random("symmetric", 1, **{**base, **sizes})


# (entry point, the argument it names, a call passing that argument, a
# valid value, the least valid value)
_COUNT_ENTRY_POINTS = [
    ("analyze-jobs", "jobs", lambda v: analyze(_COUNT_GAME, jobs=v), 1, 1),
    ("run_dynamics-max_steps", "max_steps", lambda v: run_dynamics(
        _COUNT_GAME, StrategyProfile((0,)),
        DynamicsConfig(mode="epsilon", max_steps=v)), 1, 1),
    ("analyze-budget", "budget", lambda v: analyze(_COUNT_GAME, budget=v), 2, 1),
    ("pne_exists-budget", "budget", lambda v: pne_exists(_COUNT_GAME, budget=v), 2, 1),
    ("optimal_social_welfare-budget", "budget",
     lambda v: optimal_social_welfare(_COUNT_GAME, budget=v), 2, 1),
    ("spe_solve-budget", "budget",
     lambda v: spe_solve(SequentialGame.natural(_COUNT_GAME), budget=v), 2, 1),
    ("spe_decision-budget", "budget",
     lambda v: spe_decision(SequentialGame.natural(_COUNT_GAME), 0, 1, budget=v), 2, 1),
    ("spoa-budget", "budget",
     lambda v: spoa(SequentialGame.natural(_COUNT_GAME), budget=v), 2, 1),
    ("gen_random-seed", "seed", lambda v: gen_random("symmetric", v), 0, 0),
    ("gen_random-num_nodes", "num_nodes", lambda v: _gen(num_nodes=v), 1, 1),
    ("gen_random-num_agents", "num_agents", lambda v: _gen(num_agents=v), 1, 1),
    ("gen_random-num_strategies", "num_strategies",
     lambda v: _gen(num_strategies=v), 1, 1),
    ("gen_random-max_strategy_size", "max_strategy_size",
     lambda v: _gen(max_strategy_size=v), 1, 1),
    ("gen_random-max_weight", "max_weight", lambda v: _gen(max_weight=v), 1, 1),
    ("gen_random-max_value", "max_value", lambda v: _gen(max_value=v), 1, 1),
    ("poa-lb-n", "n", lambda v: build_named_instance("poa-lb", n=v, m=1), 2, 2),
    ("poa-lb-m", "m", lambda v: build_named_instance("poa-lb", n=3, m=v), 1, 1),
    ("spoa-family-m", "m", lambda v: build_named_instance("spoa-family", m=v), 2, 2),
    ("decompose_fraction-n", "n", lambda v: decompose_fraction(v, 1), 1, 1),
    ("decompose_fraction-w", "w", lambda v: decompose_fraction(2, v), 1, 0),
    ("edge_gadget_terms-w_bar", "w_bar", lambda v: edge_gadget_terms(v, 1), 1, 1),
    ("edge_gadget_terms-w", "w", lambda v: edge_gadget_terms(2, v), 1, 0),
    ("first_primes-n", "n", lambda v: first_primes(v), 1, 0),
]


@pytest.mark.parametrize("value", [True, 2.5, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "what, call, valid, least", [e[1:] for e in _COUNT_ENTRY_POINTS],
    ids=[e[0] for e in _COUNT_ENTRY_POINTS],
)
def test_count_arguments_must_be_ints_of_at_least_their_floor(
    what, call, valid, least, value
):
    """Every size, bound, budget and job count goes through
    `model.check_count`: a bool, float or string is refused by name, not
    coerced or left to raise TypeError, and so is an int below the floor."""
    call(valid)
    with pytest.raises(ValueError, match=f"^{what} must be an integer, got {value!r}$"):
        call(value)
    below = f"^{what} must be at least {least}, got {least - 1}$"
    with pytest.raises(ValueError, match=below):
        call(least - 1)
