import itertools
import json
import random
import time
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest

from cag import (
    BudgetError,
    CutGraph,
    Instance,
    StrategyProfile,
    ThreeDMInstance,
    TqbfFormula,
    analyze,
    build_named_instance,
    cut_from_profile,
    cutweight,
    decompose_fraction,
    edge_gadget_terms,
    gen_random,
    is_approx_pne,
    lift_profile,
    maxcut_to_cag,
    oracle_local_maxcut,
    oracle_perfect_3dm,
    oracle_tqbf,
    pad_tqbf,
    pne_exists,
    pullback_profile,
    rosenthal_potential,
    spe_solve,
    split_unit_values,
    symmetrize_weighted,
    tdm_to_cag,
    tqbf_to_cag,
    unionize_strategies,
    utility,
    validate_instance,
)
from cag import gadgets, generators, instances, io
from cag.gadgets import first_primes


# ---------------------------------------------------------------------------
# fraction decomposition and edge gadgets


def test_first_primes():
    assert first_primes(6) == (2, 3, 5, 7, 11, 13)
    assert first_primes(0) == ()
    assert first_primes(100)[-1] == 541
    # plain trial division by every smaller integer
    primes = [c for c in range(2, 17_400) if all(c % d for d in range(2, isqrt(c) + 1))]
    assert len(primes) >= 2_000
    for n in [*range(60), 1_000, 2_000]:  # every bound the sieve doubles past
        assert first_primes(n) == tuple(primes[:n]), n


def test_decompose_trivial_and_unit():
    empty = decompose_fraction(1, 0)
    assert empty.terms == ()
    one_half = decompose_fraction(1, 1)
    assert one_half.modulus == 2
    assert one_half.terms == ((2, 1),)
    assert one_half.lam == Fraction(1, 2)


def test_decompose_full_sweep():
    """Exact-sum oracle over every w for n <= 6, with the size bounds."""
    for n in range(1, 7):
        dec = None
        for w in range(2**n + 1):
            dec = decompose_fraction(n, w)
            total = sum((Fraction(c, b) for b, c in dec.terms), Fraction(0))
            assert total == Fraction(w, dec.modulus)
            assert sum(abs(c) for _, c in dec.terms) <= n * dec.primes[-1] + n + 1
            assert max((b for b, _ in dec.terms), default=1) <= dec.primes[-1]


def test_decompose_coefficients_are_crt_residues():
    """Each prime's coefficient c is the Chinese-remainder residue: the
    unique 0 < c < p with c * (M / p) == w (mod p), absent when it is 0."""
    for n in range(1, 9):
        for w in range(2**n + 1):
            dec = decompose_fraction(n, w)
            coeff = dict(dec.terms)
            for p in dec.primes:
                c = coeff.get(p, 0)
                assert 0 <= c < p
                assert (c * (dec.modulus // p) - w) % p == 0, (n, w, p)
            assert set(coeff) <= set(dec.primes) | {1}


def test_decompose_rejects_out_of_range():
    with pytest.raises(ValueError):
        decompose_fraction(2, 5)
    with pytest.raises(ValueError):
        decompose_fraction(0, 0)


def _gadget_sum(gadget):
    plus = sum(
        (Fraction(1, (d + 1) * (d + 2)) for d in gadget.d_plus), Fraction(0)
    )
    minus = sum(
        (Fraction(1, (d + 1) * (d + 2)) for d in gadget.d_minus), Fraction(0)
    )
    return plus - minus


def test_edge_gadget_examples():
    zero = edge_gadget_terms(4, 0)
    assert zero.d_plus == () and zero.d_minus == ()
    unit = edge_gadget_terms(1, 1)
    assert unit.lam == Fraction(1, 2)
    assert unit.d_plus == (0,) and unit.d_minus == ()


def test_edge_gadget_full_sweep():
    for w_bar in range(1, 17):
        for w in range(w_bar + 1):
            gadget = edge_gadget_terms(w_bar, w)
            assert _gadget_sum(gadget) == gadget.lam * w, (w_bar, w)


# ---------------------------------------------------------------------------
# local max-cut reduction


def _vertex_profiles(red, num_vertices):
    tail = (0,) * (red.instance.num_agents - num_vertices)
    for bits in itertools.product((0, 1), repeat=num_vertices):
        yield StrategyProfile(bits + tail)


def test_maxcut_triangle_identity_and_equilibria():
    graph = CutGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
    red = maxcut_to_cag(graph)
    lam, rho_sum = red.mapping["lambda"], red.mapping["rho_sum"]
    for profile in _vertex_profiles(red, 3):
        x = cut_from_profile(red, profile)
        assert rosenthal_potential(red.instance, profile) == lam * cutweight(
            graph, x
        ) + rho_sum
    cuts = {cut_from_profile(red, p) for p in analyze(red.instance).pne}
    expected = {
        x for x in itertools.product((1, -1), repeat=3) if oracle_local_maxcut(graph, x)
    }
    assert cuts == expected


def test_maxcut_single_edge_separates():
    graph = CutGraph(2, ((0, 1, 1),))
    red = maxcut_to_cag(graph)
    for p in analyze(red.instance).pne:
        x = cut_from_profile(red, p)
        assert x[0] != x[1]


def test_maxcut_weighted_path():
    graph = CutGraph(3, ((0, 1, 2), (1, 2, 3)))
    red = maxcut_to_cag(graph)
    cuts = {cut_from_profile(red, p) for p in analyze(red.instance).pne}
    expected = {
        x for x in itertools.product((1, -1), repeat=3) if oracle_local_maxcut(graph, x)
    }
    assert cuts == expected


def test_maxcut_rejects_bad_graphs():
    with pytest.raises(ValueError, match="isolated"):
        maxcut_to_cag(CutGraph(3, ((0, 1, 1),)))
    with pytest.raises(ValueError, match="self-loop"):
        CutGraph(2, ((0, 0, 1),))
    with pytest.raises(ValueError, match="weight"):
        CutGraph(2, ((0, 1, 0),))


def test_maxcut_refuses_graphs_needing_too_many_agents():
    # one edge of weight 2^24 needs 54,932 nodes, 1,819,248 agents,
    # 1,819,250 strategies and 1,929,110 entries; none is built
    with pytest.raises(BudgetError) as refusal:
        maxcut_to_cag(CutGraph(2, ((0, 1, 2**24),)))
    assert str(refusal.value) == (
        "search-space-too-large: the max-cut reduction would take an "
        "estimated 2374340992 bytes, more than 671088640"
    )


def test_maxcut_refuses_a_huge_weight_before_decomposing_it(monkeypatch):
    """The first primes that do not divide the weight bound the agent count
    from below, so a weight of thousands of digits is refused without the
    decomposition, which would take seconds; the bound's partial sums are
    refused as soon as one is, so a weight of a million bits is refused in
    milliseconds."""

    def decompose(n, w):
        raise AssertionError("decomposed before refusing")

    monkeypatch.setattr(gadgets, "decompose_fraction", decompose)
    with pytest.raises(BudgetError) as refusal:
        maxcut_to_cag(CutGraph(2, ((0, 1, 10**4000 + 1),)))
    # the first partial sum refused, over the first 48 primes: at least
    # 645,428 dummy agents, each with one strategy of one node
    assert str(refusal.value) == (
        "search-space-too-large: the max-cut reduction would take an "
        "estimated 826147840 bytes, more than 671088640"
    )
    started = time.process_time()
    with pytest.raises(BudgetError, match="search-space-too-large"):
        maxcut_to_cag(CutGraph(2, ((0, 1, 2**1_000_000 + 1),)))
    assert time.process_time() - started < 1


def test_cut_from_profile_conventions():
    graph = CutGraph(2, ((0, 1, 3),))
    red = maxcut_to_cag(graph)
    tail = (0,) * (red.instance.num_agents - 2)
    assert cut_from_profile(red, StrategyProfile((0, 0) + tail)) == (1, 1)
    assert cut_from_profile(red, StrategyProfile((0, 1) + tail)) == (1, -1)


def test_oracle_local_maxcut():
    single = CutGraph(2, ((0, 1, 1),))
    assert oracle_local_maxcut(single, (1, -1))
    assert not oracle_local_maxcut(single, (1, 1))
    triangle = CutGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
    assert oracle_local_maxcut(triangle, (1, 1, -1))


# ---------------------------------------------------------------------------
# 3-dimensional matching reduction


def test_oracle_perfect_3dm():
    yes = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    no = ThreeDMInstance(2, ((0, 0, 0), (0, 1, 1)))
    assert oracle_perfect_3dm(yes)
    assert not oracle_perfect_3dm(no)
    assert not oracle_perfect_3dm(ThreeDMInstance(1, ()))


def test_oracle_perfect_3dm_refuses_a_search_past_the_budget(monkeypatch):
    # any search places one triple per x, so two tries pass a budget of 1
    monkeypatch.setattr(gadgets, "DEFAULT_BUDGET", 1)
    tdm = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    with pytest.raises(BudgetError, match="^search-space-too-large: matching search$"):
        oracle_perfect_3dm(tdm)


def test_tdm_reduction_tracks_oracle():
    yes = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    no = ThreeDMInstance(2, ((0, 0, 0), (0, 1, 1)))
    assert pne_exists(tdm_to_cag(yes).instance)
    assert not pne_exists(tdm_to_cag(no).instance)
    tiny = ThreeDMInstance(1, ((0, 0, 0),))
    assert pne_exists(tdm_to_cag(tiny).instance) == oracle_perfect_3dm(tiny) == True


def test_tdm_triple_strategies_worth_thirty():
    tdm = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    red = tdm_to_cag(tdm)
    inst = red.instance
    match_agent = inst.agents[red.mapping["match_agents"][0]]
    for k in red.mapping["edge_strategies"]:
        assert sum(inst.nodes[j].value for j in match_agent.strategies[k]) == 30
    for k in red.mapping["fail_strategies"]:
        assert sum(inst.nodes[j].value for j in match_agent.strategies[k]) <= 30


def test_tdm_symmetrized_output_preserves_answer():
    yes = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1)))
    red = tdm_to_cag(yes, symmetrize=True)
    flags = {a.strategies for a in red.instance.agents}
    assert len(flags) == 1  # common strategy space
    assert pne_exists(red.instance) == oracle_perfect_3dm(yes)


# ---------------------------------------------------------------------------
# quantified boolean formulas


def test_oracle_tqbf_basics():
    assert oracle_tqbf(TqbfFormula(1, ((1, 1, 1),)))
    assert not oracle_tqbf(TqbfFormula(2, ((2, 2, 2),)))  # forall x2: x2
    assert not oracle_tqbf(TqbfFormula(1, ((1, 1, 1), (-1, -1, -1))))


def test_oracle_tqbf_refuses_more_assignments_than_the_budget():
    # 2^24 = 16,777,216 assignments > 10^7
    formula = TqbfFormula(24, ((1, -12, 24),))
    with pytest.raises(BudgetError, match="^search-space-too-large: quantifier tree$"):
        oracle_tqbf(formula)


def test_oracle_tqbf_refuses_without_building_the_assignment_count():
    # 2^(10^8) alone would take 12.5 MB
    formula = TqbfFormula(10**8, ((1, 2, 3),))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="^search-space-too-large: quantifier tree$"):
            oracle_tqbf(formula)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oracle_tqbf_matches_direct_enumeration():
    rng = random.Random(7)
    literals = [1, -1, 2, -2, 3, -3]
    for _ in range(30):
        clauses = tuple(
            tuple(rng.choice(literals) for _ in range(3))
            for _ in range(rng.randint(1, 3))
        )
        formula = TqbfFormula(3, clauses)

        def cnf(x1, x2, x3):
            values = {1: x1, 2: x2, 3: x3}
            return all(
                any((values[abs(l)] == 1) == (l > 0) for l in c) for c in clauses
            )

        expected = any(
            all(any(cnf(a, b, c) for c in (0, 1)) for b in (0, 1)) for a in (0, 1)
        )
        assert oracle_tqbf(formula) == expected


def test_pad_tqbf():
    f = TqbfFormula(1, ((1, 1, 1),))
    padded = pad_tqbf(f)
    assert padded.num_vars == 3
    assert oracle_tqbf(padded) == oracle_tqbf(f)
    assert pad_tqbf(TqbfFormula(3, ((1, 2, 3),))).num_vars == 3
    assert pad_tqbf(TqbfFormula(4, ((1, 2, 3),))).num_vars == 5


def test_tqbf_reduction_rejects_bad_shapes():
    with pytest.raises(ValueError, match="alternation"):
        tqbf_to_cag(TqbfFormula(2, ((1, 2, 2),)))
    with pytest.raises(ValueError, match="clause"):
        tqbf_to_cag(TqbfFormula(3, ()))


def test_tqbf_game_shape():
    formula = TqbfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    red = tqbf_to_cag(formula)
    game = red.instance
    n, nc = 3, 2
    assert game.instance.num_agents == n + 5
    checker = game.instance.agents[red.mapping["checker_agent"]]
    assert len(checker.strategies) == 3 * nc + 1
    clause_picker = game.instance.agents[red.mapping["clause_agent"]]
    assert len(clause_picker.strategies) == nc


def test_tqbf_decision_matches_oracle_on_spot_checks():
    cases = [
        TqbfFormula(3, ((1, 1, 1),)),
        TqbfFormula(3, ((2, 2, 2),)),
        TqbfFormula(3, ((1, 2, 3), (-1, -2, -3))),
        TqbfFormula(3, ((3, 3, 3), (2, -3, 2))),
        TqbfFormula(3, ((-2, 2, 1),)),
        # larger quantifier prefixes than the exhaustive acceptance sweep
        TqbfFormula(5, ((4, 4, 4),)),
        TqbfFormula(5, ((1, -2, 5), (-1, 2, 5))),
        TqbfFormula(5, ((2, 4, 4), (-2, -4, -4))),
    ]
    from cag import spe_decision

    for formula in cases:
        red = tqbf_to_cag(formula)
        got = spe_decision(red.instance, 0, red.mapping["threshold"])
        assert got == oracle_tqbf(formula), formula


def test_tqbf_checker_falls_back_exactly_on_false_clauses():
    formula = TqbfFormula(3, ((1, 2, 3), (-1, -1, -1)))
    red = tqbf_to_cag(formula)
    game = red.instance
    checker = red.mapping["checker_agent"]
    clause_agent = red.mapping["clause_agent"]
    fallback = red.mapping["fallback_index"]
    result = spe_solve(game, mode="exhaustive")
    assert result.outcomes
    for outcome in result.outcomes:
        choices = outcome.profile.choices
        assignment = {
            t: 1 if choices[t - 1] == 0 else 0 for t in range(1, 4)
        }
        picked = formula.clauses[choices[clause_agent]]
        clause_value = any(
            (assignment[abs(l)] == 1) == (l > 0) for l in picked
        )
        assert (choices[checker] == fallback) == (not clause_value)


# ---------------------------------------------------------------------------
# transforms


def test_split_unit_values(example1):
    red = split_unit_values(example1)
    assert red.instance.num_nodes == 6
    for choices in itertools.product((0, 1), (0, 1), (0,)):
        p = StrategyProfile(choices)
        for i in range(3):
            assert utility(example1, p, i) == utility(red.instance, p, i)


def test_split_identity_on_unit_values():
    inst = build_named_instance("poa-lb", n=4, m=2)
    assert split_unit_values(inst).instance == inst


def test_symmetrize_example1(example1):
    red = symmetrize_weighted(example1)
    m = red.mapping
    assert (m["T"], m["M"], m["M_prime"]) == (4, 4, 25)
    values = [red.instance.nodes[j].value for j in m["reserve_nodes"]]
    assert values == [225, 50, 50]
    assert red.instance.profile_space_size() == 125
    assert not pne_exists(red.instance)


def test_symmetrize_requires_single_heavy_agent():
    inst = Instance.build(
        nodes=[("q1", 1)], agents=[("a1", 2, [[0]]), ("a2", 3, [[0]])]
    )
    with pytest.raises(ValueError, match="hypothesis violated"):
        symmetrize_weighted(inst)


def test_symmetrize_unit_instance_still_works():
    inst = gen_random("s-asymmetric", seed=8, num_nodes=3, num_agents=2,
                      num_strategies=2, max_strategy_size=2)
    red = symmetrize_weighted(inst)
    assert pne_exists(red.instance) == pne_exists(inst) == True


def test_symmetrize_names_a_reserve_around_a_taken_id():
    inst = Instance.build(
        nodes=[("r1", 1), ("q2", 1)], agents=[("a1", 2, [[0], [1]]), ("a2", 1, [[1]])]
    )
    red = symmetrize_weighted(inst)
    out = red.instance
    names = [out.nodes[j].id for j in red.mapping["reserve_nodes"]]
    assert names == ["_r1", "r2"]
    assert validate_instance(out).ok


def test_symmetrize_split_output_has_unit_values(example1):
    red = symmetrize_weighted(example1, split=True)
    assert all(n.value == 1 for n in red.instance.nodes)
    assert red.instance.profile_space_size() == 125


def test_symmetrize_round_trip(example1_minus_dummy):
    red = symmetrize_weighted(example1_minus_dummy)
    for p in analyze(red.instance).pne:
        assert is_approx_pne(example1_minus_dummy, pullback_profile(red, p), 1)
    for p in analyze(example1_minus_dummy).pne:
        assert is_approx_pne(red.instance, lift_profile(red, p), 1)


def test_pullback_rejects_unmatched_profiles(example1_minus_dummy):
    red = symmetrize_weighted(example1_minus_dummy)
    # both agents play a strategy owned by agent 0's role
    with pytest.raises(ValueError, match="perfectly matched"):
        pullback_profile(red, StrategyProfile((0, 0)))


def test_unionize_adds_private_groups():
    inst = gen_random("s-asymmetric", seed=5, num_nodes=3, num_agents=2,
                      num_strategies=2, max_strategy_size=2)
    red = unionize_strategies(inst)
    assert red.mapping["group_size"] == 7
    assert all(len(g) == 7 for g in red.mapping["reserve_groups"])
    spaces = {a.strategies for a in red.instance.agents}
    assert len(spaces) == 1


def test_unionize_round_trip_and_perfect_matching():
    for seed in (1, 2, 3):
        inst = gen_random("s-asymmetric", seed=seed, num_nodes=3, num_agents=2,
                          num_strategies=2, max_strategy_size=2)
        red = unionize_strategies(inst)
        owner = red.mapping["owner"]
        pnes = analyze(red.instance).pne
        assert pnes and pne_exists(inst)
        for p in pnes:
            roles = [owner[c][0] for c in p.choices]
            assert sorted(roles) == list(range(inst.num_agents))
            assert is_approx_pne(inst, pullback_profile(red, p), 1)


def test_unionize_requires_unit_components(example1):
    with pytest.raises(ValueError, match="hypothesis violated"):
        unionize_strategies(example1)


def _written(red) -> tuple[int, int, int, int]:
    """The nodes, agents, strategies and strategy entries of the document
    the command line writes for `red`, read back."""
    doc = json.loads(io.dumps_reduction(red))["instance"]
    agents = doc["agents"]
    return (
        len(doc["nodes"]),
        len(agents),
        sum(len(a["strategies"]) for a in agents),
        sum(len(s) for a in agents for s in a["strategies"]),
    )


@pytest.mark.parametrize("build", [unionize_strategies, symmetrize_weighted])
def test_shared_space_size_check_counts_the_written_document(monkeypatch, build):
    """The nodes, agents, strategies and strategy entries that the builder
    passes to `check_build_size` are those of the document the command line
    writes, read back: every agent writes the whole shared list."""
    calls = []
    monkeypatch.setattr(gadgets, "check_build_size", lambda *a: calls.append(a[1:]))
    for seed in range(6):
        inst = gen_random("s-asymmetric", seed=seed, num_nodes=2 + seed % 3,
                          num_agents=1 + seed % 3, num_strategies=1 + seed % 4,
                          max_strategy_size=2)
        calls.clear()
        written = _written(build(inst))
        assert calls == [written], seed


@pytest.mark.parametrize(
    "graph",
    [CutGraph(2, ((0, 1, w),)) for w in range(1, 9)]
    + [CutGraph(4, ((0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4),
                    (0, 2, 5), (1, 3, 6), (0, 1, 7), (2, 3, 8)))],
    ids=[f"w{w}" for w in range(1, 9)] + ["w1-8"],
)
def test_maxcut_size_check_counts_the_written_document(monkeypatch, graph):
    """`maxcut_to_cag` first checks a lower bound that needs no
    decomposition, then the exact counts of the document the command line
    writes.  Weights 1-8 decompose into terms c/b with b = 1, 2, 3 and 5
    and coefficients of both signs."""
    calls = []
    monkeypatch.setattr(gadgets, "check_build_size", lambda *a: calls.append(a[1:]))
    written = _written(maxcut_to_cag(graph))
    least, exact = calls
    assert exact == written
    assert all(a <= b for a, b in zip(least, written))


_S_ASYMMETRIC = gen_random("s-asymmetric", seed=5, num_nodes=3, num_agents=2,
                           num_strategies=2, max_strategy_size=2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_random("symmetric", seed=1, num_nodes=3, num_agents=2,
                           num_strategies=2),
        lambda: build_named_instance("poa-lb", n=3, m=2),
        lambda: build_named_instance("spoa-family", m=2),
        lambda: split_unit_values(_S_ASYMMETRIC),
        lambda: symmetrize_weighted(_S_ASYMMETRIC),
        lambda: unionize_strategies(_S_ASYMMETRIC),
        lambda: tdm_to_cag(ThreeDMInstance(1, ((0, 0, 0),))),
        lambda: tqbf_to_cag(TqbfFormula(3, ((1, -2, 3),))),
        lambda: maxcut_to_cag(CutGraph(2, ((0, 1, 1),))),
    ],
    ids=["gen_random", "poa-lb", "spoa-family", "split_unit_values",
         "symmetrize_weighted", "unionize_strategies", "tdm_to_cag",
         "tqbf_to_cag", "maxcut_to_cag"],
)
def test_every_size_taking_builder_checks_its_build_size(monkeypatch, build):
    """`check_build_size` is the one build-size guard: every builder that
    takes a size from input calls it."""
    calls = []
    for module in (gadgets, generators, instances):
        monkeypatch.setattr(module, "check_build_size", lambda *a: calls.append(a))
    build()
    assert calls


# each number of a gadget input, as the loaders name it, with x in its place
_NUMBERS = [
    ("vertices", lambda x: CutGraph(x, ())),
    ("edge end", lambda x: CutGraph(3, ((0, x, 2), (1, 2, 1)))),
    ("edge weight", lambda x: CutGraph(2, ((0, 1, x),))),
    ("n", lambda x: ThreeDMInstance(x, ((0, 0, 0),))),
    ("triple coordinate", lambda x: ThreeDMInstance(2, ((0, x, 1), (1, 0, 0)))),
    ("vars", lambda x: TqbfFormula(x, ((1, 1, 1),))),
    ("literal", lambda x: TqbfFormula(3, ((x, 2, 3),))),
]


@pytest.mark.parametrize("value", [1.0, True, "1", 1], ids=repr)
@pytest.mark.parametrize("what, build", _NUMBERS, ids=[w for w, _ in _NUMBERS])
def test_gadget_inputs_refuse_non_integers(what, build, value):
    """A float, bool or string number is refused with the loaders' text,
    not coerced; the int 1 in the same place is accepted."""
    if value == 1 and type(value) is int:
        build(value)
        return
    with pytest.raises(ValueError) as refusal:
        build(value)
    assert str(refusal.value) == f"{what} must be an integer, got {value!r}"
