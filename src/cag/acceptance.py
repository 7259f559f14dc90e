"""The package's acceptance suite: one check per shipped guarantee.

Each criterion is a callable that raises AssertionError on failure and
returns a one-line detail string on success.  `run_all` prints a pass/fail
table; ``cag verify`` and the pytest acceptance module both drive this
registry, so the suite is reproducible from either entry point.

Exact rational comparisons throughout unless a tolerance is stated.
Random families are pinned by explicit seeds and are therefore stable
across runs and platforms.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .dynamics import DynamicsConfig, epsilon_step_bound, run_dynamics
from .engine import Evaluator
from .equilibria import (
    analyze,
    is_approx_pne,
    optimal_social_welfare,
    pne_exists,
)
from .gadgets import (
    CutGraph,
    ThreeDMInstance,
    TqbfFormula,
    cut_from_profile,
    cutweight,
    maxcut_to_cag,
    oracle_local_maxcut,
    oracle_perfect_3dm,
    oracle_tqbf,
    symmetrize_weighted,
    tdm_to_cag,
    tqbf_to_cag,
)
from .generators import gen_random
from .instances import build_named_instance
from .model import Agent, Instance, StrategyProfile, social_welfare, utility
from .potentials import rosenthal_potential, two_agent_potential
from .sequential import SequentialGame, spe_decision, spoa

__all__ = ["CRITERIA", "Criterion", "run_all", "run_criterion"]


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    run: Callable[[], str]


def _check_payoffs(name: str, expected) -> str:
    """Agents 0 and 1 of the named instance get exactly `expected[(a, b)]`
    when they pick a and b and every other agent picks 0."""
    inst = build_named_instance(name)
    rest = (0,) * (inst.num_agents - 2)
    for cell, utils in expected.items():
        p = StrategyProfile(cell + rest)
        got = (utility(inst, p, 0), utility(inst, p, 1))
        assert got == utils, f"cell {cell}: {got}"
    return f"{len(expected)} payoff cells exact"


def check_payoffs_with_dummy() -> str:
    return _check_payoffs("example1", {
        (0, 0): (Fraction(7, 3), Fraction(4, 3)),
        (0, 1): (Fraction(12, 5), Fraction(6, 5)),
        (1, 0): (Fraction(12, 5), Fraction(6, 5)),
        (1, 1): (Fraction(7, 3), Fraction(4, 3)),
    })


def check_payoffs_without_dummy() -> str:
    return _check_payoffs("example1-minus-dummy", {
        (0, 0): (Fraction(13, 5), Fraction(7, 5)),
        (0, 1): (Fraction(14, 5), Fraction(11, 5)),
        (1, 0): (Fraction(14, 5), Fraction(11, 5)),
        (1, 1): (Fraction(13, 5), Fraction(7, 5)),
    })


def check_equilibrium_sets() -> str:
    full = analyze(build_named_instance("example1")).pne
    assert full == (), f"expected no equilibria, got {full}"
    reduced = analyze(build_named_instance("example1-minus-dummy")).pne
    got = [p.choices for p in reduced]
    assert got == [(0, 1), (1, 0)], got
    return "no equilibria with dummy; exactly the two anti-diagonal cells without"


def _two_agent_variant(seed: int) -> Instance:
    base = gen_random(
        "s-asymmetric",
        seed=seed,
        num_nodes=3 + seed % 3,
        num_agents=2,
        num_strategies=2 + seed % 2,
        max_strategy_size=3,
    )
    heavy = Agent(base.agents[0].id, 2 + seed % 5, base.agents[0].strategies)
    return Instance(base.nodes, (heavy, base.agents[1]))


def check_weight_symmetrization() -> str:
    red = symmetrize_weighted(build_named_instance("example1"))
    size = red.instance.profile_space_size()
    assert size == 125, size
    assert not pne_exists(red.instance), "symmetrized instance must have no PNE"
    preserved = 0
    variants = [build_named_instance("example1-minus-dummy")]
    variants += [_two_agent_variant(seed) for seed in range(5)]
    for inst in variants:
        out = symmetrize_weighted(inst)
        before, after = pne_exists(inst), pne_exists(out.instance)
        assert before and after, (before, after)
        preserved += 1
    return f"125-profile instance keeps no-PNE; {preserved} two-agent variants keep PNE"


def _unit_weight_instance(seed: int) -> Instance:
    base = gen_random(
        "asymmetric",
        seed=seed,
        num_nodes=3 + seed % 3,
        num_agents=2 + seed % 2,
        num_strategies=2 + seed % 2,
        max_strategy_size=3,
        max_value=4,
    )
    agents = tuple(Agent(a.id, 1, a.strategies) for a in base.agents)
    return Instance(base.nodes, agents)


def check_potential_identities() -> str:
    checked = 0
    for seed in range(500):
        inst = _unit_weight_instance(seed)
        ev = Evaluator(inst)
        profiles = list(itertools.product(*(range(len(s)) for s in ev.spaces)))
        phi = {c: rosenthal_potential(inst, StrategyProfile(c)) for c in profiles}
        for choices in profiles:
            loads = ev.loads(choices)
            for i in range(ev.num_agents):
                cur = ev.utility_scaled(choices, loads, i)
                for alt in range(len(ev.spaces[i])):
                    if alt == choices[i]:
                        continue
                    q = choices[:i] + (alt,) + choices[i + 1:]
                    delta_phi = phi[q] - phi[choices]
                    delta_u = ev.deviation_scaled(choices, loads, i, alt) - cur
                    assert delta_phi == ev.frac(delta_u), (seed, choices, i, alt)
                    checked += 1

    for seed in range(500):
        inst = gen_random(
            "asymmetric",
            seed=10_000 + seed,
            num_nodes=3 + seed % 3,
            num_agents=2,
            num_strategies=2 + seed % 2,
            max_strategy_size=3,
            max_value=4,
        )
        for choices in itertools.product(
            *(range(len(a.strategies)) for a in inst.agents)
        ):
            p = StrategyProfile(choices)
            h = two_agent_potential(inst, p)
            for i in range(2):
                w = inst.agents[i].weight
                u = utility(inst, p, i)
                for alt in range(len(inst.agents[i].strategies)):
                    if alt == choices[i]:
                        continue
                    q = StrategyProfile(
                        tuple(alt if k == i else c for k, c in enumerate(choices))
                    )
                    delta_h = two_agent_potential(inst, q) - h
                    delta_u = utility(inst, q, i) - u
                    assert delta_h == w * delta_u, (seed, choices, i, alt)
                    checked += 1

    inst = build_named_instance("no-potential-counterexample")

    def u(choices, agent):
        return utility(inst, StrategyProfile(choices), agent)

    path_one = (u((0, 0), 1) - u((0, 1), 1)) + (u((0, 1), 0) - u((1, 1), 0))
    path_two = (u((0, 0), 0) - u((1, 0), 0)) + (u((1, 0), 1) - u((1, 1), 1))
    assert path_one == Fraction(5, 3), path_one
    assert path_two == Fraction(4, 3), path_two
    assert path_one != path_two
    return f"{checked} deviation identities exact; path sums 5/3 vs 4/3 differ"


def check_epsilon_dynamics() -> str:
    epsilons = (Fraction(1), Fraction(1, 2), Fraction(1, 10))
    runs = 0
    for seed in range(100):
        inst = gen_random(
            "symmetric",
            seed=20_000 + seed,
            num_nodes=4 + seed % 7,
            num_agents=2 + seed % 4,
            num_strategies=2 + seed % 4,
            max_strategy_size=4,
        )
        start = StrategyProfile((0,) * inst.num_agents)
        for eps in epsilons:
            bound = epsilon_step_bound(inst, eps)
            cfg = DynamicsConfig(mode="epsilon", epsilon=eps, max_steps=bound + 1)
            trace = run_dynamics(inst, start, cfg)
            assert trace.termination == "converged", (seed, eps)
            assert len(trace.steps) <= bound, (seed, eps, len(trace.steps), bound)
            assert is_approx_pne(inst, trace.final, 1 + eps), (seed, eps)
            runs += 1
    return f"{runs} runs converged within the step bound"


def check_poa_bounds() -> str:
    expected = {
        (3, 2): Fraction(3, 2),
        (4, 2): Fraction(3, 2),
        (5, 3): Fraction(5, 3),
        (6, 3): Fraction(5, 3),
    }
    for (n, m), want in expected.items():
        inst = build_named_instance("poa-lb", n=n, m=m)
        report = analyze(inst)
        assert report.poa == want, ((n, m), report.poa)

    checked = 0
    for seed in range(200):
        inst = gen_random(
            "symmetric",
            seed=30_000 + seed,
            num_nodes=3 + seed % 4,
            num_agents=2 + seed % 2,
            num_strategies=2 + seed % 3,
            max_strategy_size=3,
        )
        report = analyze(inst)
        assert report.pne, "symmetric instances always have an equilibrium"
        bound = min(
            Fraction(2), max(Fraction(inst.num_nodes, inst.num_agents), Fraction(1))
        )
        ev = Evaluator(inst)
        for p in report.pne:
            welfare = ev.welfare(ev.loads(p.choices))
            assert report.opt_welfare <= bound * welfare, (seed, p)
            checked += 1
    return f"4 named ratios exact; bound holds at {checked} equilibria"


def check_two_agent_existence() -> str:
    for seed in range(200):
        inst = gen_random(
            "asymmetric",
            seed=40_000 + seed,
            num_nodes=3 + seed % 4,
            num_agents=2,
            num_strategies=2 + seed % 3,
            max_strategy_size=3,
            max_weight=9,
        )
        assert pne_exists(inst), seed
    return "200/200 weighted two-agent instances have an equilibrium"


def check_alpha_dynamics() -> str:
    slack = Fraction(1, 10**9)
    for seed in range(100):
        inst = gen_random(
            "asymmetric",
            seed=seed,
            num_nodes=4 + seed % 4,
            num_agents=2 + seed % 3,
            num_strategies=2 + seed % 2,
            max_weight=9,
            max_value=5,
        )
        alpha = math.log(1 + max(inst.weights)) + 1
        cfg = DynamicsConfig(mode="alpha", alpha=alpha, max_steps=100_000)
        trace = run_dynamics(
            inst, StrategyProfile((0,) * inst.num_agents), cfg
        )
        assert trace.termination == "converged", seed
        alpha_up = Fraction(alpha) + slack
        assert is_approx_pne(inst, trace.final, alpha_up), seed
        welfare = social_welfare(inst, trace.final)
        opt, _ = optimal_social_welfare(inst)
        total_weight = sum(inst.weights)
        assert welfare * Fraction(math.log(total_weight + 1)) >= opt, seed
        assert opt <= (1 + alpha_up) * welfare, seed
    return "100/100 runs terminate at approximate equilibria with bounded welfare loss"


def check_sequential_poa() -> str:
    assert spoa(build_named_instance("spoa-two-agent")) == Fraction(3, 2)
    for m in (2, 3, 4):
        got = spoa(build_named_instance("spoa-family", m=m))
        assert got == Fraction(2 * m - 1, m), (m, got)
    bound = Fraction(3, 2)
    for seed in range(200):
        inst = gen_random(
            "s-asymmetric",
            seed=50_000 + seed,
            num_nodes=3 + seed % 4,
            num_agents=2,
            num_strategies=2 + seed % 3,
            max_strategy_size=3,
        )
        game = SequentialGame.natural(inst)
        assert spoa(game) <= bound, seed
    return "named ratios exact; 200/200 two-agent games within 3/2"


def _graph_structures(max_vertices: int):
    for k in range(2, max_vertices + 1):
        pairs = list(itertools.combinations(range(k), 2))
        for mask in range(1, 2 ** len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            touched = {v for e in edges for v in e}
            if len(touched) == k:
                yield k, edges


def _weightings(num_edges: int, max_weight: int):
    if num_edges <= 2:
        yield from itertools.product(range(1, max_weight + 1), repeat=num_edges)
        return
    yield (1,) * num_edges
    yield (max_weight,) * num_edges
    yield tuple((3 * t) % max_weight + 1 for t in range(num_edges))


def check_maxcut_reduction() -> str:
    instances = 0
    identities = 0
    for k, edges in _graph_structures(4):
        for weights in _weightings(len(edges), 8):
            graph = CutGraph(k, tuple((u, v, w) for (u, v), w in zip(edges, weights)))
            red = maxcut_to_cag(graph)
            inst = red.instance
            lam = red.mapping["lambda"]
            rho_sum = red.mapping["rho_sum"]
            tail = (0,) * (inst.num_agents - k)
            for bits in itertools.product((0, 1), repeat=k):
                p = StrategyProfile(bits + tail)
                x = cut_from_profile(red, p)
                phi = rosenthal_potential(inst, p)
                assert phi == lam * cutweight(graph, x) + rho_sum, (graph, bits)
                identities += 1
            cuts = {cut_from_profile(red, p) for p in analyze(inst).pne}
            local_maxima = {
                x
                for x in itertools.product((1, -1), repeat=k)
                if oracle_local_maxcut(graph, x)
            }
            assert cuts == local_maxima, graph
            instances += 1
    return f"{instances} graphs: potential identity at {identities} assignments, equilibria = local max cuts"


def check_matching_reduction() -> str:
    triples = list(itertools.product(range(2), repeat=3))
    agree = 0
    for size in range(1, 5):
        for chosen in itertools.combinations(triples, size):
            tdm = ThreeDMInstance(2, chosen)
            red = tdm_to_cag(tdm)
            assert pne_exists(red.instance) == oracle_perfect_3dm(tdm), chosen
            agree += 1
    return f"{agree}/{agree} matching instances agree with the oracle"


def _canonical_clauses():
    literals = (1, -1, 2, -2, 3, -3)
    return sorted({tuple(sorted(c)) for c in itertools.product(literals, repeat=3)})


def check_qbf_reduction() -> str:
    clauses = _canonical_clauses()
    agree = 0
    for size in (1, 2, 3):
        for chosen in itertools.combinations_with_replacement(clauses, size):
            formula = TqbfFormula(3, chosen)
            red = tqbf_to_cag(formula)
            got = spe_decision(red.instance, 0, red.mapping["threshold"])
            assert got == oracle_tqbf(formula), chosen
            agree += 1
    return f"{agree}/{agree} formulas agree with the oracle"


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "payoff-matrix-with-dummy", check_payoffs_with_dummy),
    Criterion(2, "payoff-matrix-without-dummy", check_payoffs_without_dummy),
    Criterion(3, "equilibrium-sets", check_equilibrium_sets),
    Criterion(4, "weight-symmetrization", check_weight_symmetrization),
    Criterion(5, "potential-identities", check_potential_identities),
    Criterion(6, "epsilon-dynamics", check_epsilon_dynamics),
    Criterion(7, "poa-bounds", check_poa_bounds),
    Criterion(8, "two-agent-existence", check_two_agent_existence),
    Criterion(9, "alpha-dynamics", check_alpha_dynamics),
    Criterion(10, "sequential-poa", check_sequential_poa),
    Criterion(11, "maxcut-reduction", check_maxcut_reduction),
    Criterion(12, "matching-reduction", check_matching_reduction),
    Criterion(13, "qbf-reduction", check_qbf_reduction),
)


def run_criterion(criterion: Criterion) -> tuple[bool, str]:
    try:
        return True, criterion.run()
    except AssertionError as exc:
        return False, f"assertion failed: {exc}"


def run_all(names: Iterable[str] | None = None) -> bool:
    """Run (a filtered subset of) the acceptance criteria, printing one
    pass/fail line each; returns overall success.  Raises ValueError naming
    any of `names` that is not a criterion."""
    wanted = set(names) if names is not None else None
    unknown = sorted(wanted - {c.name for c in CRITERIA}) if wanted else []
    if unknown:
        raise ValueError(f"unknown criterion {', '.join(map(repr, unknown))}")
    all_ok = True
    for criterion in CRITERIA:
        if wanted is not None and criterion.name not in wanted:
            continue
        started = time.perf_counter()
        ok, detail = run_criterion(criterion)
        elapsed = time.perf_counter() - started
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(
            f"{status}  {criterion.number:2d} {criterion.name:<28s} "
            f"[{elapsed:6.1f}s]  {detail}"
        )
    return all_ok
