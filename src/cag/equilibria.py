"""Exhaustive equilibrium analysis at desk scale.

Pure Nash equilibria are found by scanning the full profile space; the scan
is exact and deterministic (lexicographic profile order).  A budget guard
makes infeasible instances fail loudly instead of being silently sampled:
no general efficient method exists for these questions, so brute force is
the only exactness-preserving oracle.

The profile space may be partitioned across worker processes; results merge
deterministically.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .engine import Evaluator
from .model import (
    BudgetError,
    Instance,
    NoEquilibriumError,
    StrategyProfile,
    check_profile,
)

__all__ = [
    "DEFAULT_BUDGET",
    "EquilibriumReport",
    "analyze",
    "enumerate_pne",
    "is_approx_pne",
    "optimal_social_welfare",
    "pne_exists",
    "poa",
]

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class EquilibriumReport:
    pne: tuple[StrategyProfile, ...]
    opt_welfare: int
    opt_profile: StrategyProfile
    poa: Fraction | None  # None when the instance has no equilibrium
    profiles_scanned: int


def _check_budget(inst: Instance, budget: int) -> int:
    size = inst.profile_space_size()
    if size > budget:
        raise BudgetError(
            f"search-space-too-large: {size} profiles exceed budget {budget}"
        )
    return size


def is_approx_pne(
    inst: Instance, profile: StrategyProfile, alpha: Fraction | int = 1
) -> bool:
    """True iff no agent can multiply its utility by more than `alpha` with
    a unilateral deviation (exact comparison).  ``alpha = 1`` tests an exact
    equilibrium."""
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    check_profile(inst, profile)
    ev = Evaluator(inst)
    loads = ev.loads(profile.choices)
    return ev.is_approx_pne(
        profile.choices, loads, alpha.numerator, alpha.denominator
    )


def _profiles(ev: Evaluator, start: int = 0, stop: int | None = None):
    """Lexicographic profile stream, optionally restricted to a rank range."""
    sizes = [len(s) for s in ev.spaces]
    if start == 0 and stop is None:
        yield from itertools.product(*(range(k) for k in sizes))
        return
    total = 1
    for k in sizes:
        total *= k
    stop = total if stop is None else stop
    for rank in range(start, stop):
        choices = []
        rest = rank
        for k in reversed(sizes):
            rest, c = divmod(rest, k)
            choices.append(c)
        yield tuple(reversed(choices))


def _scan(ev: Evaluator, start: int, stop: int | None):
    """One enumeration pass: equilibria plus the welfare optimum."""
    pne: list[tuple[int, ...]] = []
    best_welfare = -1
    best_profile: tuple[int, ...] | None = None
    scanned = 0
    for choices in _profiles(ev, start, stop):
        scanned += 1
        loads = ev.loads(choices)
        welfare = ev.welfare(loads)
        if welfare > best_welfare:
            best_welfare, best_profile = welfare, choices
        if ev.is_approx_pne(choices, loads, 1, 1):
            pne.append(choices)
    return pne, best_welfare, best_profile, scanned


def analyze(
    inst: Instance, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> EquilibriumReport:
    """Enumerate every profile once, collecting the equilibrium set, the
    optimal welfare with a lexicographically-first witness, and the price of
    anarchy against the worst equilibrium."""
    size = _check_budget(inst, budget)
    ev = Evaluator(inst)
    if jobs > 1 and size > 4 * jobs:
        bounds = [(size * k) // jobs for k in range(jobs + 1)]
        chunks = [(inst, bounds[k], bounds[k + 1]) for k in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_scan_chunk, chunks))
        pne = [p for part in parts for p in part[0]]
        best_welfare, best_profile = -1, None
        for _, welfare, profile, _ in parts:
            if welfare > best_welfare:
                best_welfare, best_profile = welfare, profile
        scanned = sum(part[3] for part in parts)
    else:
        pne, best_welfare, best_profile, scanned = _scan(ev, 0, None)
    pne.sort()
    ratio = None
    if pne:
        worst = min(ev.welfare(ev.loads(choices)) for choices in pne)
        ratio = Fraction(best_welfare, worst)
    return EquilibriumReport(
        pne=tuple(StrategyProfile(c) for c in pne),
        opt_welfare=best_welfare,
        opt_profile=StrategyProfile(best_profile),
        poa=ratio,
        profiles_scanned=scanned,
    )


def _scan_chunk(chunk):
    inst, start, stop = chunk
    return _scan(Evaluator(inst), start, stop)


def enumerate_pne(
    inst: Instance, budget: int = DEFAULT_BUDGET
) -> list[StrategyProfile]:
    """Exactly the set of pure Nash equilibria, in lexicographic order."""
    _check_budget(inst, budget)
    ev = Evaluator(inst)
    found = []
    for choices in _profiles(ev):
        loads = ev.loads(choices)
        if ev.is_approx_pne(choices, loads, 1, 1):
            found.append(StrategyProfile(choices))
    return found


def pne_exists(inst: Instance, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the instance has at least one pure Nash equilibrium."""
    _check_budget(inst, budget)
    ev = Evaluator(inst)
    for choices in _profiles(ev):
        loads = ev.loads(choices)
        if ev.is_approx_pne(choices, loads, 1, 1):
            return True
    return False


def optimal_social_welfare(
    inst: Instance, budget: int = DEFAULT_BUDGET
) -> tuple[int, StrategyProfile]:
    """Maximal social welfare and its lexicographically-first witness."""
    _check_budget(inst, budget)
    ev = Evaluator(inst)
    best_welfare = -1
    best_profile: tuple[int, ...] | None = None
    for choices in _profiles(ev):
        welfare = ev.welfare(ev.loads(choices))
        if welfare > best_welfare:
            best_welfare, best_profile = welfare, choices
    return best_welfare, StrategyProfile(best_profile)


def poa(inst: Instance, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Optimal welfare divided by the welfare of the worst equilibrium."""
    report = analyze(inst, budget)
    if report.poa is None:
        raise NoEquilibriumError("no-pne: the instance has no pure Nash equilibrium")
    return report.poa
