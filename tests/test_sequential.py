import gc
import itertools
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from cag import (
    BudgetError,
    Instance,
    SequentialGame,
    StrategyProfile,
    analyze,
    build_named_instance,
    gen_random,
    optimal_social_welfare,
    social_welfare,
    spe_decision,
    spe_solve,
    spoa,
    utility,
)
from cag import sequential
from cag.engine import Evaluator
from cag.generators import GENERATOR_KINDS


def brute_force_spe_outcomes(game: SequentialGame) -> set[tuple[int, ...]]:
    """Independent oracle: enumerate every complete strategy-list profile,
    keep those where no agent at any prefix gains by a one-shot deviation
    followed by the prescribed continuation, and collect their outcomes."""
    inst, order = game.instance, game.order
    m = inst.num_agents
    sizes = [len(inst.agents[i].strategies) for i in order]
    prefixes = [
        list(itertools.product(*(range(sizes[tt]) for tt in range(t))))
        for t in range(m)
    ]

    def play(sigma, start):
        current = list(start)
        while len(current) < m:
            t = len(current)
            current.append(sigma[t][tuple(current)])
        choices = [0] * m
        for t, c in enumerate(current):
            choices[order[t]] = c
        return tuple(choices)

    def payoff(choices, agent):
        return utility(inst, StrategyProfile(choices), agent)

    agent_lists = []
    for t in range(m):
        assignments = itertools.product(range(sizes[t]), repeat=len(prefixes[t]))
        agent_lists.append([dict(zip(prefixes[t], a)) for a in assignments])

    outcomes = set()
    for sigma in itertools.product(*agent_lists):
        if all(
            payoff(play(sigma, p + (sigma[t][p],)), order[t])
            >= payoff(play(sigma, p + (alt,)), order[t])
            for t in range(m)
            for p in prefixes[t]
            for alt in range(sizes[t])
        ):
            outcomes.add(play(sigma, ()))
    return outcomes


def test_two_agent_outcomes_and_welfare():
    game = build_named_instance("spoa-two-agent")
    result = spe_solve(game, mode="exhaustive")
    got = {(o.profile.choices, sum(o.utilities)) for o in result.outcomes}
    assert ((0, 0), 2) in got
    assert ((0, 1), 3) in got


def test_single_agent_game_maximizes_own_value():
    inst = Instance.build(
        nodes=[("q1", 1), ("q2", 4)], agents=[("a1", 1, [[0], [1]])]
    )
    game = SequentialGame.natural(inst)
    result = spe_solve(game, mode="deterministic")
    assert result.outcomes[0].profile.choices == (1,)
    assert spoa(game) == 1


def test_family_worst_outcome():
    game = build_named_instance("spoa-family", m=3)
    result = spe_solve(game, mode="exhaustive")
    welfares = [sum(o.utilities) for o in result.outcomes]
    assert min(welfares) == 3


def test_spoa_values():
    assert spoa(build_named_instance("spoa-two-agent")) == Fraction(3, 2)
    assert spoa(build_named_instance("spoa-family", m=3)) == Fraction(5, 3)


def test_exhaustive_matches_brute_force_oracle():
    for seed in range(25):
        num_agents = 2 if seed % 3 else 3
        inst = gen_random(
            "s-asymmetric",
            seed=200 + seed,
            num_nodes=3 + seed % 2,
            num_agents=num_agents,
            num_strategies=2 if num_agents == 3 else 3,
            max_strategy_size=3,
        )
        game = SequentialGame.natural(inst)
        expected = brute_force_spe_outcomes(game)
        got = {o.profile.choices for o in spe_solve(game, mode="exhaustive").outcomes}
        assert got == expected, seed
        det = spe_solve(game, mode="deterministic").outcomes[0].profile.choices
        assert det in expected, seed


def test_exhaustive_matches_oracle_on_tie_heavy_games():
    """Few unit nodes and duplicate-prone strategies make exact utility ties
    the norm; tie-branching is where achievability filtering must be right."""
    import random

    rng = random.Random(5)
    for trial in range(15):
        n = rng.randint(2, 3)
        m = rng.choice([2, 2, 3])

        def strat():
            return tuple(sorted(rng.sample(range(n), rng.randint(1, 2))))

        agents = [
            (f"a{i + 1}", 1, [strat() for _ in range(2 if m == 3 else 3)])
            for i in range(m)
        ]
        inst = Instance.build(
            nodes=[(f"q{j + 1}", 1) for j in range(n)], agents=agents
        )
        game = SequentialGame.natural(inst)
        got = {o.profile.choices for o in spe_solve(game, mode="exhaustive").outcomes}
        assert got == brute_force_spe_outcomes(game), trial


def test_exhaustive_matches_oracle_under_permuted_orders():
    import random

    rng = random.Random(99)
    for seed in range(10):
        inst = gen_random(
            "asymmetric",
            seed=3000 + seed,
            num_nodes=3,
            num_agents=3,
            num_strategies=2,
            max_strategy_size=2,
            max_weight=3,
            max_value=3,
        )
        order = list(range(3))
        rng.shuffle(order)
        game = SequentialGame(inst, tuple(order))
        expected = brute_force_spe_outcomes(game)
        got = {o.profile.choices for o in spe_solve(game, mode="exhaustive").outcomes}
        assert got == expected, (seed, order)


def test_move_order_gives_first_mover_advantage():
    inst = Instance.build(
        nodes=[("q1", 3), ("q2", 2)],
        agents=[("a1", 1, [[0], [1]]), ("a2", 1, [[0], [1]])],
    )
    forward = spe_solve(SequentialGame(inst, (0, 1)), mode="deterministic")
    backward = spe_solve(SequentialGame(inst, (1, 0)), mode="deterministic")
    assert forward.outcomes[0].utilities == (Fraction(3), Fraction(2))
    assert backward.outcomes[0].utilities == (Fraction(2), Fraction(3))


def test_spe_decision_thresholds():
    game = build_named_instance("spoa-two-agent")
    assert spe_decision(game, 0, 0)
    assert spe_decision(game, 0, Fraction(2))
    assert not spe_decision(game, 0, Fraction(2) + Fraction(1, 100))


def test_spoa_agrees_with_full_outcome_enumeration():
    """spoa uses a memoized solve internally; it must agree with the
    welfare minimum over the full exhaustive outcome set."""
    for seed in range(15):
        inst = gen_random(
            "s-asymmetric",
            seed=700 + seed,
            num_nodes=4,
            num_agents=2 + seed % 2,
            num_strategies=2 + seed % 2,
            max_strategy_size=3,
        )
        game = SequentialGame.natural(inst)
        result = spe_solve(game, mode="exhaustive")
        worst = min(sum(o.utilities) for o in result.outcomes)
        opt, _ = optimal_social_welfare(inst)
        assert spoa(game) == Fraction(opt, worst), seed
        best_first = max(o.utilities[0] for o in result.outcomes)
        assert spe_decision(game, 0, best_first)
        assert not spe_decision(game, 0, best_first + Fraction(1, 10**6))


@st.composite
def colliding_games(draw):
    """Games whose subgame states collide, so the memo table is hit: every
    agent shares one strategy space (unit weights, or small weights as in
    `w-asymmetric`), some are pinned to one of its strategies, and the move
    order is shuffled."""
    n = draw(st.integers(1, 4))
    strategy = st.sets(st.integers(0, n - 1), min_size=1).map(
        lambda s: tuple(sorted(s))
    )
    shared = draw(st.lists(strategy, min_size=2, max_size=3))
    weighted = draw(st.booleans())
    agents = []
    for i in range(draw(st.integers(1, 5))):
        weight = draw(st.integers(1, 3)) if weighted else 1
        space = [draw(st.sampled_from(shared))] if draw(st.integers(0, 3)) == 0 else shared
        agents.append((f"a{i + 1}", weight, space))
    inst = Instance.build([(f"q{j + 1}", 1) for j in range(n)], agents)
    return SequentialGame(inst, tuple(draw(st.permutations(range(len(agents))))))


# Four interchangeable agents: the first two movers reach the same loads
# with their choices swapped, so the queried agent 0's own choice must tell
# the two states apart.
SWAPPED_CHOICES = SequentialGame(
    Instance.build(
        [(f"q{j + 1}", 1) for j in range(4)],
        [(f"a{i + 1}", 1, [(1, 3), (0,)]) for i in range(4)],
    ),
    (0, 3, 1, 2),
)


def _game(values, spaces, order=None) -> SequentialGame:
    """Unit-weight game over nodes of the given values; `spaces` lists each
    agent's strategies as node-index tuples."""
    inst = Instance.build(
        [(f"q{j + 1}", v) for j, v in enumerate(values)],
        [(f"a{i + 1}", 1, space) for i, space in enumerate(spaces)],
    )
    return SequentialGame(inst, order or tuple(range(len(spaces))))


# The last mover a2 is indifferent between q1 (2/2) and q3 (1) after a1
# takes q1 and q2, but a1 gets 2 or 3: every tied choice must survive.
LAST_MOVER_TIE = _game([2, 1, 1], [[(0, 1), (1,)], [(0,), (2,)]])
# No agent has a choice: the walk has no decision to make.
NO_DECISION = _game([1, 2], [[(0,)], [(0, 1)]])
# a2, the only agent with a choice, makes the last real decision and is
# queried.
ONE_ACTIVE = _game([1, 3, 1], [[(1,)], [(0,), (1, 2)]], (1, 0))
# a2 crowds onto q1 in every SPE outcome; the optimum (0, 1), welfare 8,
# is that outcome with a2 on q2 instead, a leaf the last mover never picks.
OPT_OFF_PATH = _game([6, 2, 1], [[(0,), (2,)], [(0,), (1,)]])


# The queried first mover a1 gets 1 on q1 (a2 takes q2) and 3/2 on q2
# (shared with a2): its best lies only under its second root choice.
FIRST_MOVER_BEST_SECOND = _game([1, 3], [[(0,), (1,)], [(0,), (1,)]])
# a1 on q1 leaves a2 q3 alone (a1 6, a2 10); a1 on (q2, q3) shares q3
# (a1 9, a2 5).  The root keeps only the second, so the queried later mover
# a2's highest utility, 10, lies in an outcome the root threshold drops.
LATER_MOVER_BEST_DROPPED = _game([6, 4, 10, 1], [[(0,), (1, 2)], [(2,), (3,)]])
# a1 on (q1, q2), and a1 on q2 then a2 on q1, both load each node once: two
# states one decision apart with equal loads, which only the depth in the
# memo key tells apart.
DEPTHS_SHARE_LOADS = _game([1, 1], [[(1,), (0, 1)], [(1,), (0,)], [(1,), (0,)]])


# The walk skips the first mover a1's q2 (worth 1 at best), and a1's best
# case on (q1, q2), 1 + 1 with a2 away, ties its worst case on q3, 4/2 with
# a2 there.  a2 takes q3 after either, so a1 gets 2 after both and the tie
# must keep (q1, q2): its outcome gives a2 4, the other only 2.
TIE_AT_FLOOR = _game([1, 1, 4], [[(0, 1), (2,), (1,)], [(1,), (2,)]])
# The walk skips a2's q1 only after a1 takes q1: there q1 pays a2 4/2 at
# best (a3 may stay away), less than (q1, q2) pays at worst (4/3 + 4/2);
# after a1 takes q2, q1 pays 4 at best and stays.  None of the first
# mover's choices can be skipped, so the walk tests a2's states and not a1's.
SKIPPED_BY_PREFIX = _game([4, 4], [[(0,), (1,)], [(0,), (0, 1)], [(0,), (1,)]])


def brute_force_optimum(inst: Instance) -> int:
    """The optimal welfare by a plain scan of every profile."""
    return max(
        social_welfare(inst, StrategyProfile(c))
        for c in itertools.product(*(range(len(a.strategies)) for a in inst.agents))
    )


@settings(max_examples=200, deadline=None)
@given(colliding_games())
@example(SWAPPED_CHOICES)
@example(LAST_MOVER_TIE)
@example(NO_DECISION)
@example(ONE_ACTIVE)
@example(OPT_OFF_PATH)
@example(FIRST_MOVER_BEST_SECOND)
@example(LATER_MOVER_BEST_DROPPED)
@example(DEPTHS_SHARE_LOADS)
@example(TIE_AT_FLOOR)
@example(SKIPPED_BY_PREFIX)
def test_memoized_walk_matches_exhaustive_reference(game):
    """spoa and spe_decision against `Fraction` backward induction and a
    plain optimum scan, with every agent queried: singleton-space agents and
    the last mover too."""
    achievable, _ = fraction_backward_induction(game)
    opt = brute_force_optimum(game.instance)
    assert spoa(game) == Fraction(opt, min(sum(u) for _, u in achievable))
    for agent in range(game.instance.num_agents):
        best = max(u[agent] for _, u in achievable)
        assert spe_decision(game, agent, best), agent
        assert not spe_decision(game, agent, best + Fraction(1, 10**6)), agent


def fraction_backward_induction(game: SequentialGame):
    """Independent oracle: backward induction in `Fraction`s over every
    mover in order, single-strategy movers included.

    Returns the outcomes achievable under some tie-breaking, sorted, and the
    outcome under lexicographic tie-breaking; an outcome is (choices,
    utilities)."""
    inst, order = game.instance, game.order
    m = inst.num_agents

    def solve(prefix):
        if len(prefix) == m:
            choices = [0] * m
            for mover, c in zip(order, prefix):
                choices[mover] = c
            profile = StrategyProfile(tuple(choices))
            leaf = (profile.choices, tuple(utility(inst, profile, i) for i in range(m)))
            return [leaf], leaf
        mover = order[len(prefix)]
        kids = [
            solve(prefix + (s,)) for s in range(len(inst.agents[mover].strategies))
        ]
        threshold = max(min(u[mover] for _, u in sub) for sub, _ in kids)
        achievable = sorted(
            o for sub, _ in kids for o in sub if o[1][mover] >= threshold
        )
        first = kids[0][1]
        for _, best in kids[1:]:
            if best[1][mover] > first[1][mover]:
                first = best
        return achievable, first

    return solve(())


def _pairs(outcomes):
    return [(o.profile.choices, o.utilities) for o in outcomes]


@settings(max_examples=200, deadline=None)
@given(colliding_games())
@example(SWAPPED_CHOICES)
@example(DEPTHS_SHARE_LOADS)
@example(TIE_AT_FLOOR)
@example(SKIPPED_BY_PREFIX)
def test_spe_solve_matches_fraction_backward_induction(game):
    """spe_solve's root outcomes in both modes against the oracle."""
    achievable, first = fraction_backward_induction(game)
    exhaustive = spe_solve(game, mode="exhaustive")
    assert _pairs(exhaustive.outcomes) == achievable
    deterministic = spe_solve(game, mode="deterministic")
    assert _pairs(deterministic.outcomes) == [first]


def test_spe_solve_on_a_family_game_of_seven_agents():
    """823,543 profiles, which the memo table answers from far fewer
    (depth, loads) states: the exhaustive set's worst welfare gives the
    sequential price of anarchy, and the deterministic outcome is one of its
    members."""
    game = build_named_instance("spoa-family", m=7)
    exhaustive = spe_solve(game, mode="exhaustive")
    worst = min(sum(o.utilities) for o in exhaustive.outcomes)
    opt, _ = optimal_social_welfare(game.instance)
    assert Fraction(opt, worst) == spoa(game) == Fraction(13, 7)
    (deterministic,) = spe_solve(game, mode="deterministic").outcomes
    assert deterministic in exhaustive.outcomes


def test_spoa_walk_skips_choices_that_are_never_kept(monkeypatch):
    """On the seven-agent family game the walk scores the last mover's row
    7 times; without skipping the choices whose best case is below another
    choice's worst case it would score it 924 times."""
    rows = []
    join_row = Evaluator.join_row

    def counted(ev, loads, agent):
        rows.append(agent)
        return join_row(ev, loads, agent)

    monkeypatch.setattr(Evaluator, "join_row", counted)
    assert spoa(build_named_instance("spoa-family", m=7)) == Fraction(13, 7)
    assert len(rows) <= 16


def _offsets_at_every_depth(ev, placed, active):
    """What `sequential._cuts` returns with no depth marked: at every depth
    but the last, the mover's weight plus the weight of the later movers
    whose every, or some, strategy holds each node."""
    cuts = [None] * len(active)
    for t in range(len(active) - 1):
        w = ev.weights[active[t]]
        held_all, held_any = ev.held(active[t + 1:])
        cuts[t] = ([w + c for c in held_all], [w + c for c in held_any])
    return cuts


def _walk_trace(game: SequentialGame, exhaustive: bool):
    """The walk's root outcomes and how many rows it scores."""
    ev = Evaluator(game.instance)
    rows = []
    join_row = ev.join_row

    def counted(loads, agent):
        rows.append(agent)
        return join_row(loads, agent)

    ev.join_row = counted
    roots, finals = sequential._walk(ev, game.order, game.order, exhaustive)
    return sorted(finals[o] for o in roots), len(rows)


@st.composite
def generated_games(draw):
    """Games of every generator kind with at most 5 nodes, 4 agents and 3
    strategies each, weights up to 6, in a shuffled move order."""
    try:
        inst = gen_random(
            draw(st.sampled_from(GENERATOR_KINDS)),
            draw(st.integers(0, 2**32)),
            num_nodes=draw(st.integers(1, 5)),
            num_agents=draw(st.integers(1, 4)),
            num_strategies=draw(st.integers(1, 3)),
            max_weight=6,
        )
    except ValueError:  # too few nodes to make the spaces differ
        reject()
    order = draw(st.permutations(range(inst.num_agents)))
    return SequentialGame(inst, tuple(order))


# After a1 takes (q1, q2), a2's q2 pays it at most 1/2 (a3 may stay off
# q2), less than (q1, q2) pays at worst (1/3 + 1/3), so the walk skips it;
# after a1 takes q1 alone, q2 pays 1 at best and stays.  The mark for a2's
# depth must put a1 on q2, a node a1 can leave, in the best case, or it
# marks the depth and a2 keeps q2 everywhere.
EARLIER_LOOSE_NODE = _game(
    [1, 1], [[(0,), (0, 1)], [(1,), (0, 1)], [(0, 1), (0,)]]
)


@settings(max_examples=300, deadline=None)
@given(generated_games())
@example(EARLIER_LOOSE_NODE)
def test_cuts_mark_only_depths_where_no_state_skips(game):
    """`_cuts` is only a shortcut: with the per-state test run at every
    depth but the last, the walk scores as many rows and keeps the same
    root outcomes in both modes."""
    for exhaustive in (True, False):
        marked = _walk_trace(game, exhaustive)
        with mock.patch.object(sequential, "_cuts", _offsets_at_every_depth):
            assert _walk_trace(game, exhaustive) == marked


def test_calls_leave_no_cyclic_garbage():
    """A recursive walk left as a reference cycle would keep its tables and
    Evaluator alive until the cyclic collector runs."""
    inst = gen_random("symmetric", seed=3, num_nodes=8, num_agents=4, num_strategies=6)
    game = SequentialGame.natural(inst)
    calls = {
        "analyze": lambda: analyze(inst),
        "spoa": lambda: spoa(game),
        "spe_decision": lambda: spe_decision(game, 0, 1),
    }
    for mode in ("deterministic", "exhaustive"):
        calls[f"spe_solve {mode}"] = partial(spe_solve, game, mode=mode)
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_budget_guard():
    game = build_named_instance("spoa-family", m=4)
    with pytest.raises(BudgetError, match="search-space-too-large"):
        spe_solve(game, mode="exhaustive", budget=10)
    with pytest.raises(BudgetError):
        spoa(game, budget=10)


def test_order_must_be_permutation(example1):
    with pytest.raises(ValueError):
        SequentialGame(example1, (0, 1))
    with pytest.raises(ValueError):
        SequentialGame(example1, (0, 1, 1))
