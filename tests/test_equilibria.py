import concurrent.futures
import copy
import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cag import (
    GENERATOR_KINDS,
    BudgetError,
    Instance,
    StrategyProfile,
    analyze,
    build_named_instance,
    gen_random,
    is_approx_pne,
    optimal_social_welfare,
    pne_exists,
    rosenthal_potential,
    social_welfare,
    utility,
)
from cag import equilibria, io, sequential
from cag.engine import Evaluator
from cag.equilibria import EquilibriumReport, _classes, _worker_count

from conftest import src_env


def test_is_pne_examples(example1, example1_minus_dummy):
    assert is_approx_pne(example1_minus_dummy, StrategyProfile((0, 1)), 1)
    for choices in itertools.product((0, 1), (0, 1)):
        assert not is_approx_pne(example1, StrategyProfile(choices + (0,)), 1)


def test_approx_threshold_is_tight():
    inst = gen_random("asymmetric", seed=3, num_nodes=5, num_agents=3,
                      num_strategies=2, max_weight=4, max_value=4)
    profile = StrategyProfile((0, 0, 0))
    ratio = Fraction(0)
    for i in range(inst.num_agents):
        current = utility(inst, profile, i)
        for alt in range(len(inst.agents[i].strategies)):
            other = StrategyProfile(
                tuple(alt if k == i else c for k, c in enumerate(profile.choices))
            )
            ratio = max(ratio, utility(inst, other, i) / current)
    assert ratio > 1
    assert is_approx_pne(inst, profile, ratio)
    assert not is_approx_pne(inst, profile, ratio - Fraction(1, 10**9))


def test_is_approx_pne_rejects_alpha_below_one(example1):
    with pytest.raises(ValueError):
        is_approx_pne(example1, StrategyProfile((0, 0, 0)), Fraction(1, 2))


def test_enumerate_pne_examples(example1, example1_minus_dummy):
    assert analyze(example1).pne == ()
    assert [p.choices for p in analyze(example1_minus_dummy).pne] == [
        (0, 1),
        (1, 0),
    ]


def test_single_agent_pne_maximizes_value():
    inst = Instance.build(
        nodes=[("q1", 1), ("q2", 3)], agents=[("a1", 1, [[0], [1], [0, 1]])]
    )
    assert [p.choices for p in analyze(inst).pne] == [(2,)]


def test_optimal_social_welfare_examples():
    game = build_named_instance("spoa-two-agent")
    welfare, witness = optimal_social_welfare(game.instance)
    assert (welfare, witness.choices) == (3, (0, 1))
    inst = build_named_instance("poa-lb", n=4, m=2)
    assert optimal_social_welfare(inst)[0] == 3
    solo = Instance.build(
        nodes=[("q1", 2), ("q2", 3)], agents=[("a1", 1, [[0, 1]])]
    )
    assert optimal_social_welfare(solo)[0] == 5


def test_poa_examples():
    assert analyze(build_named_instance("poa-lb", n=3, m=2)).poa == Fraction(3, 2)
    assert analyze(build_named_instance("poa-lb", n=4, m=2)).poa == Fraction(3, 2)
    covered = Instance.build(
        nodes=[("q1", 1), ("q2", 1)],
        agents=[("a1", 1, [[0, 1]]), ("a2", 1, [[0, 1]])],
    )
    assert analyze(covered).poa == 1


def test_poa_requires_equilibrium(example1):
    assert analyze(example1).poa is None


def test_pne_exists_examples(example1):
    assert not pne_exists(example1)
    for seed in range(10):
        weighted = gen_random("asymmetric", seed=seed, num_agents=2,
                              num_nodes=4, num_strategies=3, max_weight=9)
        assert pne_exists(weighted)
    for seed in range(10):
        unit = gen_random("s-asymmetric", seed=seed, num_agents=3,
                          num_nodes=5, num_strategies=2)
        assert pne_exists(unit)


def test_budget_guard(example1):
    with pytest.raises(BudgetError, match="search-space-too-large"):
        analyze(example1, budget=3)
    with pytest.raises(BudgetError):
        optimal_social_welfare(example1, budget=3)
    with pytest.raises(BudgetError):
        pne_exists(example1, budget=3)


def test_report_fields(example1_minus_dummy):
    report = analyze(example1_minus_dummy)
    assert report.profiles_scanned == 4
    # no profile covers q3 together with q2, so the optimum misses one node
    assert report.opt_welfare == 5
    assert report.poa == 1
    assert all(is_approx_pne(example1_minus_dummy, p, 1) for p in report.pne)


def test_analyze_jobs_deterministic():
    inst = gen_random("symmetric", seed=14, num_nodes=6, num_agents=3,
                      num_strategies=4)
    assert analyze(inst, jobs=1) == analyze(inst, jobs=2)


def test_pne_iff_local_potential_maximum():
    """On unit-weight instances a profile is an equilibrium exactly when no
    unilateral deviation raises the harmonic potential."""
    for seed in range(20):
        inst = gen_random("s-asymmetric", seed=100 + seed, num_nodes=4,
                          num_agents=3, num_strategies=2, max_strategy_size=3)
        for choices in itertools.product(
            *(range(len(a.strategies)) for a in inst.agents)
        ):
            profile = StrategyProfile(choices)
            phi = rosenthal_potential(inst, profile)
            local_max = True
            for i in range(inst.num_agents):
                for alt in range(len(inst.agents[i].strategies)):
                    if alt == choices[i]:
                        continue
                    other = StrategyProfile(
                        tuple(alt if k == i else c for k, c in enumerate(choices))
                    )
                    if rosenthal_potential(inst, other) > phi:
                        local_max = False
            assert is_approx_pne(inst, profile, 1) == local_max


@st.composite
def games_with_twins(draw):
    """Instances built from a few agent types, so interchangeable agents
    appear at interleaved indices; spaces may repeat a strategy or hold only
    one, and two types may share a space but not a weight."""
    n = draw(st.integers(1, 4))
    strategy = st.sets(st.integers(0, n - 1), min_size=1).map(
        lambda s: tuple(sorted(s))
    )
    types = []
    for _ in range(draw(st.integers(1, 3))):
        if types and draw(st.booleans()):
            space = list(draw(st.sampled_from(types))[1])
        else:
            space = draw(st.lists(strategy, min_size=1, max_size=3))
        if draw(st.booleans()):
            space.insert(draw(st.integers(0, len(space))), draw(st.sampled_from(space)))
        types.append((draw(st.integers(1, 3)), space))
    picks = draw(st.lists(st.integers(0, len(types) - 1), min_size=1, max_size=4))
    nodes = [(f"q{j + 1}", draw(st.integers(1, 4))) for j in range(n)]
    agents = [(f"a{i + 1}", *types[t]) for i, t in enumerate(picks)]
    return Instance.build(nodes, agents)


# The last agent ties q1 and q2 while a1 holds q3; only the leaf with a2 on
# q1 is an equilibrium, since with a2 on q2 a1 moves to q1 (4 > 3).
TIED_LAST_AGENT = Instance.build(
    [("q1", 4), ("q2", 4), ("q3", 3)],
    [("a1", 1, [[2], [0]]), ("a2", 1, [[0], [1]])],
)
# a2 is a1's twin: with a1 on q2 the walk visits only a2 on q2, but a2's
# best response is q1, and the optimum (a1 on q1, a2 on q2) is no best
# response of a2.
TWIN_LAST_AGENT = Instance.build(
    [("q1", 3), ("q2", 1)],
    [("a1", 1, [[0], [1]]), ("a2", 1, [[0], [1]])],
)

# Dominance needs two rounds whichever agent is scored first: a2 keeps only
# q3 (4 > 2 alone on q1), and only then is q1 worth more to a1 than q2
# (2 > 1); while a2 may reach q1, a1's worst case there is 2/2, no more
# than q2's best case.
TWO_ROUNDS = Instance.build(
    [("q1", 2), ("q2", 1), ("q3", 4)],
    [("a1", 1, [[1], [0]]), ("a2", 1, [[2], [0]])],
)
TWO_ROUNDS_MIRRORED = Instance.build(
    [("q1", 2), ("q2", 1), ("q3", 4)],
    [("a1", 1, [[2], [0]]), ("a2", 1, [[1], [0]])],
)
# a1's worst case on q2 shares it with a2: 3/2 < 2, so a1 keeps q1; left
# out of the worst-case load, a1's own weight would make it 3 and drop q1,
# the equilibrium's choice.
OWN_WEIGHT = Instance.build(
    [("q1", 2), ("q2", 3), ("q3", 1)],
    [("a1", 1, [[0], [1]]), ("a2", 1, [[1], [2]])],
)

# No profile covers all three nodes, so the optimum scan never meets its
# cover bound (6) and must run to its last entry, the optimum 5.
COVER_UNREACHED = Instance.build(
    [("q1", 1), ("q2", 2), ("q3", 3)],
    [("a1", 1, [[0], [1]]), ("a2", 1, [[0], [2]])],
)
# Four profiles cover every node, two of them with a1 on q1; the scan stops
# at the first, (0, 0), which must stay the witness.
COVER_TIES = Instance.build(
    [("q1", 1), ("q2", 1), ("q3", 1)],
    [("a1", 1, [[0], [1]]), ("a2", 1, [[1, 2], [2], [0, 1, 2]])],
)


def brute_force_report(inst):
    """The report from a plain product scan in exact fractions."""
    profiles = [
        StrategyProfile(c)
        for c in itertools.product(*(range(len(a.strategies)) for a in inst.agents))
    ]

    def is_pne(p):
        for i, agent in enumerate(inst.agents):
            current = utility(inst, p, i)
            for alt in range(len(agent.strategies)):
                other = StrategyProfile(p.choices[:i] + (alt,) + p.choices[i + 1:])
                if utility(inst, other, i) > current:
                    return False
        return True

    welfare = {p: social_welfare(inst, p) for p in profiles}
    opt = max(welfare.values())
    pne = tuple(p for p in profiles if is_pne(p))
    return EquilibriumReport(
        pne=pne,
        opt_welfare=opt,
        opt_profile=next(p for p in profiles if welfare[p] == opt),
        poa=Fraction(opt, min(welfare[p] for p in pne)) if pne else None,
        profiles_scanned=len(profiles),
    )


@settings(max_examples=150, deadline=None)
@given(games_with_twins())
@example(  # same space, different weights: not interchangeable
    Instance.build([("q1", 1), ("q2", 2)],
                   [("a1", 1, [[0], [1]]), ("a2", 2, [[0], [1]])])
)
@example(TIED_LAST_AGENT)
@example(TWIN_LAST_AGENT)
@example(TWO_ROUNDS)
@example(TWO_ROUNDS_MIRRORED)
@example(OWN_WEIGHT)
@example(COVER_UNREACHED)
@example(COVER_TIES)
def test_kernel_matches_brute_force(inst):
    expected = brute_force_report(inst)
    assert analyze(inst) == expected
    assert pne_exists(inst) == bool(expected.pne)
    assert optimal_social_welfare(inst) == (expected.opt_welfare, expected.opt_profile)


def live_strategies(inst):
    """Each agent's strategies left by iterated strict dominance, in exact
    fractions: s goes when some live t pays the agent more with every other
    agent that can reach t's nodes on them than s pays with only the others
    that cannot avoid s's nodes.  Rounds see the lists of the round before
    and repeat until nothing goes."""
    agents, values = inst.agents, [n.value for n in inst.nodes]
    live = [list(range(len(a.strategies))) for a in agents]
    while True:
        new = []
        for i, agent in enumerate(agents):
            def load(j, quantifier):
                """The agent's weight plus that of every other agent whose
                live strategies all (or any) hold node j."""
                return agent.weight + sum(
                    other.weight
                    for k, other in enumerate(agents)
                    if k != i and quantifier(j in other.strategies[c] for c in live[k])
                )

            def case(s, quantifier):
                return sum(
                    Fraction(agent.weight * values[j], load(j, quantifier))
                    for j in agent.strategies[s]
                )

            worst = max(case(t, any) for t in live[i])
            new.append([s for s in live[i] if case(s, all) >= worst])
        if new == live:
            return live
        live = new


def representatives(inst):
    """The profiles the walk visits, in its order: each agent takes its live
    strategies, and every class of interchangeable agents takes
    non-decreasing choices."""
    classes: dict = {}
    for i, a in enumerate(inst.agents):
        classes.setdefault((a.weight, a.strategies), []).append(i)
    for choices in itertools.product(*live_strategies(inst)):
        if all(
            choices[i] <= choices[k]
            for members in classes.values()
            for i, k in zip(members, members[1:])
        ):
            yield choices


def best_response_leaves(inst):
    """The visited profiles at which the last agent with a choice (if any)
    plays a best response, in exact fractions."""
    choosing = [i for i, a in enumerate(inst.agents) if len(a.strategies) > 1]
    for choices in representatives(inst):
        if choosing:
            last = choosing[-1]
            row = [
                utility(inst, StrategyProfile(choices[:last] + (s,) + choices[last + 1:]),
                        last)
                for s in range(len(inst.agents[last].strategies))
            ]
            if row[choices[last]] < max(row):
                continue
        yield choices


def profiles_tested_by(call):
    """The profiles `call()` sends to the walk's leaf test."""
    tested = []
    original = Evaluator.is_approx_pne

    def recording(self, choices, loads, *rest):
        tested.append(tuple(choices))
        return original(self, choices, loads, *rest)

    with mock.patch.object(Evaluator, "is_approx_pne", recording):
        call()
    return tested


@settings(max_examples=100, deadline=None)
@given(games_with_twins())
@example(TIED_LAST_AGENT)
@example(TWIN_LAST_AGENT)
@example(TWO_ROUNDS)
@example(TWO_ROUNDS_MIRRORED)
@example(OWN_WEIGHT)
def test_equilibrium_tests_only_best_response_leaves(inst):
    """`analyze` tests exactly the visited leaves where the last choosing
    agent attains its best utility over all its strategies."""
    assert profiles_tested_by(lambda: analyze(inst)) == list(best_response_leaves(inst))


@pytest.mark.parametrize(
    "inst, live",
    [
        (TWO_ROUNDS, [[1], [0]]),
        (TWO_ROUNDS_MIRRORED, [[0], [1]]),
        (OWN_WEIGHT, [[0], [0]]),
    ],
    ids=["two-rounds", "two-rounds-mirrored", "own-weight"],
)
def test_live_strategies_examples(inst, live):
    assert live_strategies(inst) == live
    assert Evaluator(inst).live(_classes(inst)) == live


@st.composite
def generated_games(draw, nodes=5, agents=4, strategies=4):
    """`gen_random` draws of every kind, with weights up to 1000."""
    kind = draw(st.sampled_from(GENERATOR_KINDS))
    try:
        return gen_random(
            kind, draw(st.integers(0, 2**31 - 1)),
            num_nodes=draw(st.integers(1, nodes)),
            num_agents=draw(st.integers(1, agents)),
            num_strategies=draw(st.integers(1, strategies)),
            max_weight=draw(st.integers(1, 1000)),
        )
    except ValueError as err:
        # an s- or fully asymmetric draw whose spaces cannot be made to differ
        assume("too small" not in str(err))
        raise


@settings(max_examples=100, deadline=None)
@given(games_with_twins() | generated_games())
@example(TWO_ROUNDS)
@example(TWO_ROUNDS_MIRRORED)
@example(OWN_WEIGHT)
def test_dominance_shortcuts_are_exact(inst):
    """The worklist reaches the lists of the round-based reference, and at
    every profile of live strategies each choosing agent's best utility
    over its live strategies is its best over all of them, in exact
    fractions: so the walk's rows and leaf tests need only live
    strategies."""
    live = Evaluator(inst).live(_classes(inst))
    assert live == live_strategies(inst)
    for choices in itertools.product(*live):
        for i, agent in enumerate(inst.agents):
            if len(agent.strategies) == 1:
                continue
            row = [
                utility(inst, StrategyProfile(choices[:i] + (s,) + choices[i + 1:]), i)
                for s in range(len(agent.strategies))
            ]
            assert max(row) == max(row[s] for s in live[i]), (choices, i)


@settings(max_examples=200, deadline=None)
@given(games_with_twins() | generated_games(), st.data())
def test_restricted_improvement_scan_matches_utility_oracle(inst, data):
    """`first_improvement` returns the first (agent, strategy), in the
    order of the agents and strategies asked for, whose `model.utility`
    exceeds alpha times the agent's own, with the gain scaled by `den`,
    and None when there is none; `is_approx_pne` agrees, and unrestricted
    it agrees with `equilibria.is_approx_pne`."""
    spaces = [range(len(a.strategies)) for a in inst.agents]
    choices = tuple(data.draw(st.sampled_from(space)) for space in spaces)
    alpha = data.draw(st.sampled_from([Fraction(1), Fraction(11, 10), Fraction(3, 2)]))
    agents = data.draw(
        st.none() | st.lists(st.sampled_from(range(inst.num_agents)), unique=True)
    )
    options = data.draw(st.none() | st.tuples(
        *(st.lists(st.sampled_from(space), unique=True) for space in spaces)
    ))
    profile = StrategyProfile(choices)
    expected = None
    for i in range(inst.num_agents) if agents is None else agents:
        own = utility(inst, profile, i)
        for s in spaces[i] if options is None else options[i]:
            deviated = StrategyProfile(choices[:i] + (s,) + choices[i + 1:])
            gain = utility(inst, deviated, i) - own
            if s != choices[i] and own + gain > alpha * own:
                expected = (i, s, gain)
                break
        if expected is not None:
            break
    ev = Evaluator(inst)
    loads = ev.loads(choices)
    p, q = alpha.numerator, alpha.denominator
    found = ev.first_improvement(choices, loads, p, q, agents, options)
    if expected is None:
        assert found is None
    else:
        i, s, gain = expected
        assert found == (i, s, gain * ev.den)
    stable = expected is None
    assert ev.is_approx_pne(choices, loads, p, q, agents, options) == stable
    if agents is None and options is None:
        assert is_approx_pne(inst, profile, alpha) == stable


def test_first_improvement_follows_the_order_asked_for():
    """Both agents gain at both other strategies; the scan takes the first
    agent and strategy in the orders given, not in index order."""
    inst = Instance.build(
        [("q1", 1), ("q2", 2), ("q3", 3)],
        [("a1", 1, [[0], [1], [2]]), ("a2", 1, [[0], [1], [2]])],
    )
    ev = Evaluator(inst)
    choices = (0, 0)
    loads = ev.loads(choices)
    half = ev.den // 2  # each agent has half of q1
    assert ev.first_improvement(choices, loads, 1, 1) == (0, 1, 4 * half - half)
    assert ev.first_improvement(choices, loads, 1, 1, [1, 0], [[2, 1]] * 2) == (
        1, 2, 6 * half - half
    )
    assert ev.first_improvement(choices, loads, 1, 1, [0], [[0]] * 2) is None


@settings(max_examples=100, deadline=None)
@given(generated_games(), st.data())
def test_no_search_changes_a_shared_evaluator(inst, data):
    """An `Evaluator` is shared read-only: no walk, fixpoint, optimum or
    improvement scan changes what it holds, so `live` shrinks copies of
    its `every` and `some` lists, which are each agent's intersection and
    union of strategies."""
    ev = Evaluator(inst)
    assert ev.every == [frozenset.intersection(*map(frozenset, a.strategies))
                        for a in inst.agents]
    assert ev.some == [frozenset().union(*a.strategies) for a in inst.agents]
    order = data.draw(st.permutations(range(inst.num_agents)))
    choices = tuple(data.draw(st.integers(0, len(a.strategies) - 1))
                    for a in inst.agents)
    goal = data.draw(st.integers(0, ev.den * sum(ev.values)))
    calls = {
        "equilibria._walk": lambda: equilibria._walk(ev),
        "live": lambda: ev.live(_classes(inst)),
        "optimum": ev.optimum,
        "first_improvement": lambda: ev.first_improvement(
            choices, ev.loads(choices), 1, 1
        ),
    }
    for exhaustive in (True, False):
        for aim in (None, goal):
            calls[f"sequential._walk {exhaustive} {aim}"] = partial(
                sequential._walk, ev, order, order, exhaustive, aim
            )
    snapshot = copy.deepcopy(vars(ev))
    for name, call in calls.items():
        call()
        assert vars(ev) == snapshot, name


def test_live_queues_a_class_again_after_its_own_drop():
    """Three interchangeable agents: the first drop moves the bounds of the
    class's first member only through the other two, and only a second
    scoring of the class finds that strategy 0 dominates."""
    inst = gen_random("symmetric", 5, num_nodes=3, num_agents=3, num_strategies=3,
                      max_strategy_size=3)
    assert live_strategies(inst) == [[0], [0], [0]]
    assert Evaluator(inst).live(_classes(inst)) == [[0], [0], [0]]


@settings(max_examples=100, deadline=None)
@given(generated_games())
def test_pruned_walk_matches_brute_force_on_every_kind(inst):
    expected = brute_force_report(inst)
    assert analyze(inst) == expected
    assert pne_exists(inst) == bool(expected.pne)


def test_pruned_walk_guard_row():
    """Dominance leaves 512 of this row's 1,679,616 profiles; the report is
    the full scan's, pinned, and at most 256 leaves are tested."""
    inst = gen_random("asymmetric", 1, num_nodes=10, num_agents=8, num_strategies=6)
    reports = []
    tested = profiles_tested_by(lambda: reports.append(analyze(inst)))
    text = io.dumps_report(reports[0])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == "93e519ebb8425267"
    assert tested
    assert len(tested) <= 256


def layered_optimum(ev):
    """The welfare optimum and its lexicographically-first witness from one
    pass over covered-node bitmasks, a layer per choosing agent: each
    layer keeps, per mask, the first (parent mask, choice) that reaches it,
    and the last agent is scored against every mask of the layer before."""
    values = ev.values
    loads, choices, active = ev.preplace(range(ev.num_agents))
    if not active:
        return ev.welfare(loads), tuple(choices)
    start = sum(1 << j for j, c in enumerate(loads) if c)
    layers = [{start: (None, 0, ev.welfare(loads))}]
    for i in active[:-1]:
        bits = [sum(1 << j for j in nodes) for nodes in ev.spaces[i]]
        layer: dict = {}
        for mask, (_, _, welfare) in layers[-1].items():
            for c, nodes in enumerate(ev.spaces[i]):
                covered = mask | bits[c]
                if covered not in layer:
                    gain = sum(values[j] for j in nodes if not mask >> j & 1)
                    layer[covered] = (mask, c, welfare + gain)
        layers.append(layer)
    best = (-1, None, 0)
    for mask, (_, _, welfare) in layers[-1].items():
        for c, nodes in enumerate(ev.spaces[active[-1]]):
            total = welfare + sum(values[j] for j in nodes if not mask >> j & 1)
            if total > best[0]:
                best = (total, mask, c)
    welfare, mask, choices[active[-1]] = best
    for i, layer in zip(reversed(active[:-1]), reversed(layers)):
        mask, choices[i], _ = layer[mask]
    return welfare, tuple(choices)


@settings(max_examples=200, deadline=None)
@given(games_with_twins() | generated_games(nodes=12, agents=8, strategies=5))
@example(COVER_UNREACHED)
@example(COVER_TIES)
@example(TWIN_LAST_AGENT)
@example(  # single-strategy agents around and between the choosing ones
    Instance.build([("q1", 1), ("q2", 2), ("q3", 3)],
                   [("p1", 1, [[2]]), ("a1", 1, [[0], [1]]), ("p2", 2, [[1]]),
                    ("a2", 1, [[0], [2]])])
)
def test_optimum_matches_the_layered_oracle(inst):
    ev = Evaluator(inst)
    assert ev.optimum() == layered_optimum(ev)


def test_optimum_below_the_cover_bound():
    """No profile of this sparse row covers every node some strategy holds
    (105), so no scan stops at the cover bound; its optimum is pinned."""
    inst = gen_random("asymmetric", 0, num_nodes=30, num_agents=7, num_strategies=8,
                      max_strategy_size=3)
    held = {j for agent in inst.agents for s in agent.strategies for j in s}
    assert sum(inst.nodes[j].value for j in held) == 105
    assert Evaluator(inst).optimum() == (81, (3, 0, 6, 7, 4, 3, 7))


def test_pne_exists_stops_at_a_later_tied_best_leaf():
    """a2 ties its two strategies while a1 holds q3; the first tied leaf is
    no equilibrium (a1 moves to q1), the second is, and the walk stops
    there."""
    inst = Instance.build(
        [("q1", 4), ("q2", 4), ("q3", 3)],
        [("a1", 1, [[2], [0]]), ("a2", 1, [[1], [0]])],
    )
    assert [p.choices for p in analyze(inst).pne] == [(0, 1), (1, 0)]
    assert profiles_tested_by(lambda: pne_exists(inst)) == [(0, 0), (0, 1)]
    assert pne_exists(inst)


@pytest.mark.parametrize(
    "inst",
    [
        gen_random("symmetric", seed=3, num_nodes=6, num_agents=4, num_strategies=4),
        gen_random("asymmetric", seed=3, num_nodes=6, num_agents=4, num_strategies=3),
    ],
    ids=["orbits", "asymmetric"],
)
def test_analyze_jobs_matches_serial(monkeypatch, inst):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert analyze(inst, jobs=2) == analyze(inst, jobs=1)


def test_worker_count_serial_reads_no_cpu_count(monkeypatch):
    def cpu_count():
        raise AssertionError("a serial scan asked for the CPU count")

    monkeypatch.setattr(os, "cpu_count", cpu_count)
    assert _worker_count(1) == 1


def test_worker_count_clamps_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [_worker_count(j) for j in (1, 3, 4, 5, 100_000)] == [1, 3, 4, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(8) == 1
    for bad in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            _worker_count(bad)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool by an in-process stand-in, so no process
    starts; returns the list of `max_workers` of every pool asked for."""
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts):
            return map(fn, parts)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return requested


def test_analyze_caps_worker_processes(monkeypatch, inline_pool):
    """A huge `jobs` asks for one worker per CPU."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    inst = gen_random("symmetric", seed=14, num_nodes=6, num_agents=3,
                      num_strategies=4)
    assert analyze(inst, jobs=100_000) == analyze(inst)
    assert inline_pool == [3]


def test_analyze_jobs_split_the_last_choosing_agent(monkeypatch, inline_pool):
    """With one agent that has a choice, the workers' shares of its choices
    are the leaves of its row; each worker still scores the whole row, so a
    share without a best response reports no equilibrium."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # utilities with p1 on q1: 1, 2, 1, 2, 1, 1, 1, 2, 1, 1; the even
    # worker's share holds no best response
    space = [[0], [3], [4], [1, 2], [1], [2], [4], [0, 4], [4], [0]]
    inst = Instance.build(
        [("q1", 2), ("q2", 1), ("q3", 1), ("q4", 2), ("q5", 1)],
        [("a1", 1, space), ("p1", 1, [[0]])],
    )
    report = analyze(inst, jobs=2)
    assert inline_pool == [2]
    assert report == analyze(inst)
    assert [p.choices for p in report.pne] == [(1, 0), (3, 0), (7, 0)]


def test_import_loads_no_process_pool():
    """Only a parallel scan needs the process pool; a plain import skips it."""
    code = (
        "import sys, cag, cag.io; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_many_single_strategy_agents():
    """Agents without a choice do not deepen the walk."""
    pinned = [(f"p{k}", 1, [[0]]) for k in range(1200)]
    free = [("a1", 1, [[0], [1]]), ("a2", 1, [[0], [1]])]
    inst = Instance.build([("q1", 1), ("q2", 1)], pinned + free)
    report = analyze(inst)
    assert [p.choices for p in report.pne] == [(0,) * 1200 + (1, 1)]
    assert (report.opt_welfare, report.opt_profile.choices) == (2, (0,) * 1200 + (0, 1))
    assert report.poa == 1
