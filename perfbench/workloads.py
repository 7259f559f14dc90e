"""The four seeded workloads of the cag benchmark.

A workload turns a seed into a list of inputs (its set-up), runs one job per
input the way ``cag.cli`` does -- compute, then serialize with ``cag.io`` --
and checks a job's output with oracles that do not use the scaled-integer
engine.  Library functions are looked up on their modules at call time, so
the tracer's attribute replacement sees every call a job makes.

Each pool has a fixed shape (sizes, strata, weight band) and only its random
content depends on the seed, so the cost of one pool pass changes little from
seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cag import dynamics, equilibria, gadgets, generators, io, model, sequential

EPSILON = Fraction(1, 100)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict  # size name -> generator parameters
    setup: Callable[[int, dict], list]
    job: Callable[[object], tuple[str, ...]]
    check: Callable[[object, tuple[str, ...]], None]  # raises AssertionError


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(count)]


def _zero(inst: model.Instance) -> model.StrategyProfile:
    return model.StrategyProfile((0,) * inst.num_agents)


def _check_approx_pne(inst: model.Instance, profiles, alpha: Fraction) -> None:
    """No agent gains more than a factor `alpha` by a unilateral deviation,
    recomputed with `model.utility` in exact fractions."""
    for profile in profiles:
        for i, agent in enumerate(inst.agents):
            current = model.utility(inst, profile, i)
            for alt in range(len(agent.strategies)):
                choices = list(profile.choices)
                choices[i] = alt
                deviated = model.utility(inst, model.StrategyProfile(tuple(choices)), i)
                assert deviated <= alpha * current, (profile.choices, i, alt)


# ---------------------------------------------------------------------------
# symmetric: analyze + spoa on unit-weight symmetric games


def _setup_symmetric(seed: int, p: dict) -> list:
    games = []
    for s in _seeds(seed, p["count"]):
        inst = generators.gen_random(
            "symmetric", s, num_nodes=p["nodes"], num_agents=p["agents"],
            num_strategies=p["strategies"],
        )
        text = io.dumps_game(sequential.SequentialGame.natural(inst))
        games.append(io.loads_game(text))
    return games


def _job_symmetric(game) -> tuple[str, ...]:
    report = equilibria.analyze(game.instance)
    ratio = sequential.spoa(game)
    return io.dumps_report(report), json.dumps(io.rational_str(ratio)) + "\n"


def _check_symmetric(game, out) -> None:
    report = io.loads_report(out[0])
    _check_approx_pne(game.instance, report.pne, Fraction(1))


# ---------------------------------------------------------------------------
# weighted: alpha dynamics + analyze on few-agent, large-weight games


def _setup_weighted(seed: int, p: dict) -> list:
    low, high = p["weight_sum"]
    instances = []
    rng = random.Random(seed)
    while len(instances) < p["count"]:
        inst = generators.gen_random(
            "asymmetric", rng.randrange(1 << 31), num_nodes=p["nodes"],
            num_agents=p["agents"], num_strategies=p["strategies"],
            max_weight=p["max_weight"],
        )
        # The weight sum sets the denominator's size and so the job's cost;
        # a narrow band keeps the pool's cost nearly the same for every seed.
        if low <= sum(inst.weights) <= high:
            instances.append(io.loads_instance(io.dumps_instance(inst)))
    return instances


def _job_weighted(inst) -> tuple[str, ...]:
    cfg = dynamics.DynamicsConfig(mode="alpha", alpha=dynamics.min_alpha(inst))
    trace = dynamics.run_dynamics(inst, _zero(inst), cfg)
    report = equilibria.analyze(inst)
    return io.dumps_trace(trace), io.dumps_report(report)


def _check_weighted(inst, out) -> None:
    trace = io.loads_trace(out[0])
    report = io.loads_report(out[1])
    assert trace.termination == "converged"
    _check_approx_pne(inst, [trace.final], Fraction(dynamics.min_alpha(inst)))
    assert report.opt_welfare >= model.social_welfare(inst, trace.final)
    _check_approx_pne(inst, report.pne, Fraction(1))


# ---------------------------------------------------------------------------
# qbf: gadget build + spe_decision on seeded quantified formulas


def _setup_qbf(seed: int, p: dict) -> list:
    rng = random.Random(seed)
    formulas = []
    for num_vars, num_clauses, count in p["strata"]:
        for _ in range(count):
            clauses = [
                tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, num_vars + 1), 3))
                for _ in range(num_clauses)
            ]
            text = io.dumps_tqbf(gadgets.TqbfFormula(num_vars, tuple(clauses)))
            formulas.append(io.loads_tqbf(text))
    return formulas


def _job_qbf(formula) -> tuple[str, ...]:
    red = gadgets.tqbf_to_cag(formula)
    threshold = red.mapping["threshold"]
    decision = sequential.spe_decision(red.instance, 0, threshold)
    record = {"threshold": io.rational_str(threshold), "decision": decision}
    return io.dumps_game(red.instance), json.dumps(record) + "\n"


def _check_qbf(formula, out) -> None:
    assert json.loads(out[1])["decision"] == gadgets.oracle_tqbf(formula)


# ---------------------------------------------------------------------------
# dynamics: epsilon best-response dynamics on many-agent unit-weight games


def _setup_dynamics(seed: int, p: dict) -> list:
    instances = []
    for s in _seeds(seed, p["count"]):
        inst = generators.gen_random(
            "s-asymmetric", s, num_nodes=p["nodes"], num_agents=p["agents"],
            num_strategies=p["strategies"], max_strategy_size=p["max_strategy_size"],
        )
        instances.append(io.loads_instance(io.dumps_instance(inst)))
    return instances


def _job_dynamics(inst) -> tuple[str, ...]:
    cfg = dynamics.DynamicsConfig(mode="epsilon", epsilon=EPSILON)
    return (io.dumps_trace(dynamics.run_dynamics(inst, _zero(inst), cfg)),)


def _check_dynamics(inst, out) -> None:
    trace = io.loads_trace(out[0])
    assert trace.termination == "converged"
    assert len(trace.steps) <= dynamics.epsilon_step_bound(inst, EPSILON)
    _check_approx_pne(inst, [trace.final], 1 + EPSILON)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "symmetric",
            "interchangeable unit-weight agents: the profile scan, symmetry "
            "orbits, SPE memoization and spoa's second optimum scan dominate; "
            "denominators are minimal",
            {
                "full": {"count": 100, "nodes": 8, "agents": 4, "strategies": 6},
                "tiny": {"count": 3, "nodes": 5, "agents": 3, "strategies": 3},
            },
            _setup_symmetric, _job_symmetric, _check_symmetric,
        ),
        Workload(
            "weighted",
            "few asymmetric agents with weights up to 1000: big-integer "
            "arithmetic and Evaluator construction dominate and no two agents "
            "are interchangeable",
            {
                "full": {"count": 100, "nodes": 6, "agents": 3, "strategies": 6,
                         "max_weight": 1000, "weight_sum": [1400, 1600]},
                "tiny": {"count": 3, "nodes": 4, "agents": 2, "strategies": 3,
                         "max_weight": 50, "weight_sum": [40, 60]},
            },
            _setup_weighted, _job_weighted, _check_weighted,
        ),
        Workload(
            "qbf",
            "QBF gadgets from 3- and 5-variable formulas: the shape of the "
            "qbf-reduction criterion, whose SPE tree barely collapses so leaf "
            "cost dominates",
            {
                # (variables, clauses, formulas); the counts put the median
                # and the 90th percentile inside a stratum, not between two.
                "full": {"strata": [[3, 1, 12], [3, 2, 12], [3, 3, 12], [3, 4, 12],
                                    [5, 1, 12], [5, 2, 12], [5, 3, 12], [5, 4, 20]]},
                "tiny": {"strata": [[3, 1, 2], [3, 2, 2]]},
            },
            _setup_qbf, _job_qbf, _check_qbf,
        ),
        Workload(
            "dynamics",
            "40 unit-weight agents with 12 strategies each, too many to "
            "enumerate: epsilon best-response dynamics and deviation scoring "
            "dominate",
            {
                "full": {"count": 100, "nodes": 60, "agents": 40, "strategies": 12,
                         "max_strategy_size": 10},
                "tiny": {"count": 2, "nodes": 12, "agents": 6, "strategies": 4,
                         "max_strategy_size": 4},
            },
            _setup_dynamics, _job_dynamics, _check_dynamics,
        ),
    )
}
