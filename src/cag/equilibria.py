"""Exhaustive equilibrium analysis at desk scale.

The equilibrium set, existence and the price of anarchy are answered by one
exact, deterministic enumeration kernel, `_walk`.  It places agents one at a
time in index order and updates loads as it goes, so no profile is
evaluated from scratch; agents with a single strategy are placed once,
before the walk.  The welfare optimum and its lexicographically-first
witness come from `Evaluator.optimum`, which needs no profile scan.

Agents with the same weight and the same strategy tuple are interchangeable:
permuting their choices permutes their utilities and leaves loads and
welfare unchanged.  The walk therefore gives each such class non-decreasing
choices and visits one representative per orbit, the lexicographically
smallest.  Each equilibrium representative expands to its whole orbit, and
the expanded list is sorted; reports are the same as a full scan of the
profile space would give, and `profiles_scanned` is the size of that space.

The walk visits only live strategies, those left by iterated strict
dominance (`Evaluator.live`, which bounds each agent's loads by the other
agents whose every, or some, live strategy holds a node and drops what
`Evaluator.undominated` drops): no equilibrium plays a dropped strategy.
Dropping strictly dominated strategies keeps the set of pure Nash
equilibria, and the order of elimination does not change the result
(Knuth, Papadimitriou & Tsitsiklis, Oper. Res. Lett. 7, 1988; Gilboa,
Kalai & Zemel, Math. Oper. Res. 18, 1993).  The optimum is taken over the
full spaces, and choices keep their original indices.  The sequential walk
(`sequential`) applies the same bound at each state's actual loads, so a
subgame off the equilibrium path, which may hold an eliminated earlier
choice, needs no argument of its own.

The leaves, too, score only live strategies.  Each dropped strategy s was
beaten, at every load within the bounds of its moment, by a strategy t live
at that moment; later drops only tighten the bounds, so at every profile of
the others' live strategies t pays more than s, and if t was dropped later,
a strategy live at its moment pays more than t.  The chain ends at a live
strategy, so at such a profile an agent's best utility over its live
strategies is its best over all of them.  This holds for exact equilibria,
which play only live strategies; an alpha-approximate equilibrium may play
a dropped one, so a search for those must revisit both restrictions.

Only the last choosing agent's best responses are placed.  Once every other
agent is placed, that agent's utility under each of its strategies is fixed
by the loads, so the walk scores its live strategies once
(`Evaluator.join_row`) and visits only the leaves where its choice attains
the row's maximum, whichever of them twins or a worker's share leave to
visit; any other leaf gives it a better response, so it is no equilibrium.
The leaf test (`Evaluator.is_approx_pne` at alpha 1, restricted to the other
choosing agents and their live alternatives) then checks each of them, and an
equilibrium's welfare is read from its loads there, for the price of anarchy.

A budget guard, `model.check_budget`, makes infeasible instances fail loudly
instead of being silently sampled: no general efficient method exists for
these questions, so exhaustive search is the only exactness-preserving
oracle.  `analyze` can deal the choices of the first agent that has a choice
round-robin to worker processes (at most one per CPU); results merge
deterministically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .engine import Evaluator
from .model import (
    DEFAULT_BUDGET,
    Instance,
    StrategyProfile,
    check_budget,
    check_count,
    check_profile,
    exact_number,
)

__all__ = [
    "EquilibriumReport",
    "analyze",
    "is_approx_pne",
    "optimal_social_welfare",
    "pne_exists",
]


@dataclass(frozen=True)
class EquilibriumReport:
    pne: tuple[StrategyProfile, ...]
    opt_welfare: int
    opt_profile: StrategyProfile
    poa: Fraction | None  # None when the instance has no equilibrium
    profiles_scanned: int


def is_approx_pne(
    inst: Instance, profile: StrategyProfile, alpha: Fraction | int | float = 1
) -> bool:
    """True iff no agent can multiply its utility by more than `alpha` with
    a unilateral deviation (exact comparison).  ``alpha = 1`` tests an exact
    equilibrium."""
    alpha = exact_number(alpha, "alpha")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    check_profile(inst, profile)
    ev = Evaluator(inst)
    loads = ev.loads(profile.choices)
    return ev.is_approx_pne(
        profile.choices, loads, alpha.numerator, alpha.denominator
    )


def _classes(inst: Instance) -> list[list[int]]:
    """Agents grouped by (weight, strategy tuple), members in index order.

    Members of one class are interchangeable: permuting their choices
    permutes their utilities and leaves every load unchanged."""
    groups: dict = {}
    for i, a in enumerate(inst.agents):
        groups.setdefault((a.weight, a.strategies), []).append(i)
    return list(groups.values())


def _walk(ev: Evaluator, top: range | None = None, first_pne: bool = False):
    """Depth-first walk over one representative profile per orbit.

    Agents with a single strategy are placed first; the others are placed
    in index order, adding to loads as they go, each over its live
    strategies.  Members of a class keep equal live lists, and an agent's
    choices start at the choice of the previous member of its class, so
    each class takes non-decreasing choices: the walk visits exactly the
    lexicographically smallest live profile of every orbit, in
    lexicographic order.  `top` restricts the first choosing agent's
    choices (one worker's share) to those of its live choices it holds;
    `first_pne` stops at the first equilibrium.

    With every other agent placed, the last choosing agent's utilities are
    scored once, over all of its live strategies even where twins or `top`
    limit the choices visited, and only the choices attaining the maximum
    are placed; a leaf is an equilibrium when no other choosing agent has a
    better live alternative.

    Returns the equilibrium representatives as (choices, welfare) pairs.
    """
    spaces, weights = ev.spaces, ev.weights
    classes = _classes(ev.instance)
    twin = [-1] * ev.num_agents  # previous member of the agent's class, or -1
    for members in classes:
        for prev, i in zip(members, members[1:]):
            twin[i] = prev
    live = ev.live(classes)
    loads, choices, active = ev.preplace(range(ev.num_agents))
    depth = len(active)
    # the leaf test's agents: every choosing agent but the last, whose row
    # the walk maximizes, that has a live alternative
    rivals = [i for i in active[:-1] if len(live[i]) > 1]
    stable = ev.is_approx_pne
    reps: list[tuple[tuple[int, ...], int]] = []

    def place(t: int) -> bool:
        """Place the choosing agents from the t-th on; True means stop."""
        if t == depth:
            # positional: the benchmark's tracer wraps this method by name
            if stable(choices, loads, 1, 1, rivals, live):
                reps.append((tuple(choices), ev.welfare(loads)))
                return first_pne
            return False
        i = active[t]
        w = weights[i]
        space = spaces[i]
        options = live[i]
        if t == depth - 1:
            # Everyone else is placed, so these are i's exact utilities at
            # every leaf below; the best over its live strategies is its
            # best over all of them, and any other choice gives i a better
            # response.
            row = ev.join_row(loads, i, options)
            best = max(row)
            options = [c for c, u in zip(options, row) if u == best]
        if t == 0 and top is not None:
            options = [c for c in options if c in top]
        elif twin[i] >= 0:
            prev = choices[twin[i]]
            options = [c for c in options if c >= prev]
        for c in options:
            choices[i] = c
            for j in space[c]:
                loads[j] += w
            stop = place(t + 1)
            for j in space[c]:
                loads[j] -= w
            if stop:
                return True
        return False

    try:
        place(0)
    finally:
        del place  # the closure refers to itself; free the Evaluator now, not at gc
    return reps


def _distinct_permutations(items):
    """The distinct permutations of a sorted list, in lexicographic order."""
    items = list(items)
    while True:
        yield items
        k = len(items) - 2
        while k >= 0 and items[k] >= items[k + 1]:
            k -= 1
        if k < 0:
            return
        m = len(items) - 1
        while items[m] <= items[k]:
            m -= 1
        items[k], items[m] = items[m], items[k]
        items[k + 1:] = reversed(items[k + 1:])


def _expand(inst: Instance, reps) -> list[tuple[int, ...]]:
    """Every profile in the orbits of the representatives, sorted."""
    classes = [members for members in _classes(inst) if len(members) > 1]
    out = []
    for choices, _ in reps:
        profiles = [list(choices)]
        for members in classes:
            profiles = [
                _assign(p, members, perm)
                for p in profiles
                for perm in _distinct_permutations([p[i] for i in members])
            ]
        out.extend(tuple(p) for p in profiles)
    out.sort()
    return out


def _assign(choices: list[int], members, perm) -> list[int]:
    out = choices[:]
    for i, c in zip(members, perm):
        out[i] = c
    return out


def _worker_count(jobs: int) -> int:
    """Worker processes for a `jobs` request: at least one, and never more
    than the machine's CPU count."""
    check_count(jobs, "jobs")
    if jobs == 1:  # a serial scan needs no CPU count
        return 1
    return min(jobs, os.cpu_count() or 1)


def _walk_part(part):
    inst, top = part
    return _walk(Evaluator(inst), top=top)


def analyze(
    inst: Instance, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> EquilibriumReport:
    """The equilibrium set from one walk over orbit representatives, the
    optimal welfare with its lexicographically-first witness from
    `Evaluator.optimum`, and the price of anarchy against the worst
    equilibrium.

    With ``jobs > 1`` the first choosing agent's choices are dealt
    round-robin to at most `_worker_count(jobs)` processes; the merge is
    deterministic."""
    jobs = _worker_count(jobs)
    size = check_budget(inst, budget)
    ev = Evaluator(inst)
    # choices of the first agent that has a choice, split among workers
    top = next((len(s) for s in ev.spaces if len(s) > 1), 1)
    jobs = min(jobs, top)
    if jobs > 1 and size > 4 * jobs:
        # imported here: it loads `multiprocessing`, which would add to
        # every `import cag` although only a parallel scan needs it
        from concurrent.futures import ProcessPoolExecutor

        parts = [(inst, range(r, top, jobs)) for r in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reps = [rep for part in pool.map(_walk_part, parts) for rep in part]
    else:
        reps = _walk(ev)
    best_welfare, best_profile = ev.optimum()
    ratio = None
    if reps:
        ratio = Fraction(best_welfare, min(welfare for _, welfare in reps))
    return EquilibriumReport(
        pne=tuple(StrategyProfile(c) for c in _expand(inst, reps)),
        opt_welfare=best_welfare,
        opt_profile=StrategyProfile(best_profile),
        poa=ratio,
        profiles_scanned=size,
    )


def pne_exists(inst: Instance, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the instance has at least one pure Nash equilibrium."""
    check_budget(inst, budget)
    return bool(_walk(Evaluator(inst), first_pne=True))


def optimal_social_welfare(
    inst: Instance, budget: int = DEFAULT_BUDGET
) -> tuple[int, StrategyProfile]:
    """Maximal social welfare and its lexicographically-first witness, from
    `Evaluator.optimum`.  Raises BudgetError, as `analyze` does, when the
    profiles outnumber `budget`."""
    check_budget(inst, budget)
    best_welfare, best_profile = Evaluator(inst).optimum()
    return best_welfare, StrategyProfile(best_profile)

