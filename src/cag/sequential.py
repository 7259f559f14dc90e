"""Sequential play: backward-induction solving of subgame-perfect outcomes.

Agents move one at a time in a fixed order, each seeing all earlier
choices.  Deterministic mode runs backward induction with lexicographic
tie-breaking at every prefix and yields a single outcome.  Exhaustive mode
computes the set of outcomes achievable under *some* tie-breaking: a
continuation outcome after choice ``s`` is achievable at a prefix iff the
mover's utility in it is at least the best value the mover can force, where
each rival branch may answer with its adversarial (mover-worst) achievable
continuation.  Worst-case equilibrium selection exploits ties, so the
exhaustive set is what price-of-anarchy questions must range over.

`spe_decision` and `spoa` need only utilities and welfare of that set, so
they run a memoized walk, `_achievable`.  Every mover's utility is a
function of its own choice and the final loads, and the subgame after the
t-th real decision is fixed by the loads so far.  The walk therefore
answers each state once from a table keyed by (t, loads), plus the queried
agent's choice once that agent has moved, since its utility depends on it.
An outcome is an interned id of a distinct leaf: its final loads and the
queried agent's choice.  The last mover's children are single leaves, so
the walk scores its choices straight from the loads (`Evaluator.join_row`,
as `equilibria._walk` does for its last choosing agent) and interns only
the leaves of the tied best ones; every earlier mover scores its own
utility on each id from the final loads, and deduplication hashes small
ints.  `spoa` reads the optimum from `Evaluator.optimum`.

When `spe_decision` queries the first choosing mover, the walk tries the
root's choices in order and stops at the first whose outcomes give that
mover the threshold.  This is exact: the root keeps every outcome worth at
least the best value the mover can force, and the mover's best outcome over
all its choices is always worth that much, so its best at the root is its
best over all its choices.  For any other queried agent, whose best depends
on which outcomes the root keeps, the walk runs in full.

`spe_solve` runs the one plain walk, `_solve`, in either mode; the modes
differ only in how a mover merges its children.  It reports the root's
outcomes as profiles.  Both walks place single-strategy movers once, before
they start, since those movers make no decision.  Every entry point first
refuses, with `model.check_budget`, a game whose profiles outnumber the
budget.

Strategy lists themselves are exponentially large and never materialized;
outcomes are certified through achievable continuation values instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import Evaluator
from .model import DEFAULT_BUDGET, Instance, StrategyProfile, check_budget

__all__ = [
    "SequentialGame",
    "SpeOutcome",
    "SpeResult",
    "spe_decision",
    "spe_solve",
    "spoa",
]


@dataclass(frozen=True)
class SequentialGame:
    instance: Instance
    order: tuple[int, ...]  # agent indices in move order

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(self.instance.num_agents)):
            raise ValueError("order must be a permutation of the agent indices")

    @classmethod
    def natural(cls, inst: Instance) -> "SequentialGame":
        return cls(inst, tuple(range(inst.num_agents)))


@dataclass(frozen=True)
class SpeOutcome:
    profile: StrategyProfile
    utilities: tuple[Fraction, ...]


@dataclass(frozen=True)
class SpeResult:
    outcomes: tuple[SpeOutcome, ...]
    mode: str  # "deterministic" | "exhaustive"


def _solve(ev: Evaluator, order, exhaustive: bool):
    """Plain backward induction over every profile, as (choices, scaled
    utilities) outcomes.

    Exhaustive mode keeps every outcome achievable under some tie-breaking;
    deterministic mode keeps the first child best for the mover, which is
    lexicographic tie-breaking.
    """
    loads, choices, active = ev.preplace(order)
    spaces, weights = ev.spaces, ev.weights
    depth = len(active)

    def walk(t: int):
        if t == depth:
            return [(tuple(choices), ev.utilities_scaled(choices, loads))]
        mover = active[t]
        w = weights[mover]
        children = []
        for s, nodes in enumerate(spaces[mover]):
            choices[mover] = s
            for j in nodes:
                loads[j] += w
            children.append(walk(t + 1))
            for j in nodes:
                loads[j] -= w
        if exhaustive:
            # The mover can force at least the best adversarial continuation
            # value, so only outcomes meeting that threshold are achievable.
            threshold = max(min(u[mover] for _, u in sub) for sub in children)
            return [o for sub in children for o in sub if o[1][mover] >= threshold]
        return max(children, key=lambda sub: sub[0][1][mover])

    try:
        return walk(0)
    finally:
        del walk  # the closure refers to itself; free the Evaluator now, not at gc


def _achievable(
    ev: Evaluator, order, agent: int | None = None, goal: int | None = None
):
    """Outcomes achievable under some tie-breaking, by memoized backward
    induction.

    Returns the root's outcome ids and `finals`, where ``finals[id]`` is the
    leaf's final loads and `agent`'s choice in it (0 without `agent`).  The
    root's ids stand for the outcomes exhaustive `_solve` returns, with
    outcomes that agree on both merged into one.

    With `goal`, a scaled utility, and `agent` the first choosing mover, the
    root stops at its first choice under which some outcome gives `agent`
    at least `goal`, and returns that choice's outcomes; if no choice does,
    it returns its usual outcomes.  Either way `agent`'s best among the
    returned outcomes reaches `goal` iff its best among the root's does.
    """
    loads, choices, active = ev.preplace(order)
    if not active:
        return (0,), [(tuple(loads), 0)]
    spaces, weights, terms, share = ev.spaces, ev.weights, ev.terms, ev.share
    depth = len(active)
    # from this depth on, the queried agent's choice is part of the state
    moved = active.index(agent) + 1 if agent in active else depth + 1
    # the root may stop at its first choice that reaches `goal`
    root_stops = goal is not None and active[0] == agent
    ids: dict = {}  # (final loads, queried choice) -> outcome id
    finals: list = []  # outcome id -> (final loads, queried choice)
    table: dict = {}  # state -> its achievable outcome ids

    def walk(t: int):
        state = tuple(loads)
        key = (t, state, choices[agent]) if t >= moved else (t, state)
        merged = table.get(key)
        if merged is not None:
            return merged
        mover = active[t]
        w = weights[mover]
        if t == depth - 1:
            # Each child is a single leaf, so the merge keeps exactly the
            # mover's best choices: score them from the loads, and intern
            # only their leaves.
            scores = ev.join_row(loads, mover)
            best = max(scores)
            merged = set()
            for s, u in enumerate(scores):
                if u == best:
                    final = loads[:]
                    for j in spaces[mover][s]:
                        final[j] += w
                    choices[mover] = s
                    leaf = (tuple(final), 0 if agent is None else choices[agent])
                    oid = ids.get(leaf)
                    if oid is None:
                        oid = ids[leaf] = len(finals)
                        finals.append(leaf)
                    merged.add(oid)
            merged = table[key] = tuple(merged)
            return merged
        scored = []  # per choice: (mover's utility, outcome id) pairs
        for s, nodes in enumerate(spaces[mover]):
            choices[mover] = s
            for j in nodes:
                loads[j] += w
            sub = walk(t + 1)
            for j in nodes:
                loads[j] -= w
            mine = terms[mover][s]
            pairs = []
            for oid in sub:
                final = finals[oid][0]
                u = 0
                for j, wv in mine:
                    u += wv * share[final[j]]
                pairs.append((u, oid))
            if root_stops and t == 0 and max(pairs)[0] >= goal:
                return sub
            scored.append(pairs)
        # The mover can force at least the best adversarial continuation
        # value, so only outcomes meeting that threshold are achievable.
        threshold = max(min(pairs)[0] for pairs in scored)
        merged = tuple({oid for pairs in scored for u, oid in pairs if u >= threshold})
        table[key] = merged
        return merged

    try:
        return walk(0), finals
    finally:
        del walk  # the closure refers to itself; free the table now, not at gc


def spe_solve(
    game: SequentialGame, mode: str = "deterministic", budget: int = DEFAULT_BUDGET
) -> SpeResult:
    """Solve the sequential game by backward induction.

    Deterministic mode returns exactly one outcome.  Exhaustive mode returns
    every outcome achievable under some tie-breaking, sorted by profile.
    Raises BudgetError when the profiles outnumber `budget`.
    """
    if mode not in ("deterministic", "exhaustive"):
        raise ValueError(f"invalid mode {mode!r}")
    check_budget(game.instance, budget)
    ev = Evaluator(game.instance)
    outcomes = tuple(
        SpeOutcome(StrategyProfile(c), tuple(ev.frac(u) for u in utils))
        for c, utils in sorted(_solve(ev, game.order, mode == "exhaustive"))
    )
    return SpeResult(outcomes=outcomes, mode=mode)


def spe_decision(
    game: SequentialGame,
    agent: int,
    threshold: Fraction | int,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff some subgame-perfect outcome gives `agent` utility at least
    `threshold`."""
    if not 0 <= agent < game.instance.num_agents:
        raise IndexError(f"agent index {agent} out of range")
    threshold = Fraction(threshold)
    check_budget(game.instance, budget)
    ev = Evaluator(game.instance)
    # the least scaled utility u with u / den >= threshold
    goal = -(-threshold.numerator * ev.den // threshold.denominator)
    roots, finals = _achievable(ev, game.order, agent, goal)
    terms, share = ev.terms[agent], ev.share
    best = max(
        sum(wv * share[loads[j]] for j, wv in terms[choice])
        for loads, choice in (finals[o] for o in roots)
    )
    return best >= goal


def spoa(game: SequentialGame, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Optimal welfare divided by the welfare of the worst subgame-perfect
    outcome under any tie-breaking."""
    check_budget(game.instance, budget)
    ev = Evaluator(game.instance)
    roots, finals = _achievable(ev, game.order)
    worst = min(ev.welfare(finals[o][0]) for o in roots)
    return Fraction(ev.optimum()[0], worst)
