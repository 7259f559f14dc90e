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

All three entry points run one memoized walk, `_walk`.  A later mover's
utility depends only on the final loads and its own choice, so the outcomes
kept after the t-th real decision are fixed by (t, loads), the key of the
walk's table.  An outcome is an interned id of its final loads and the
choices of the movers its caller reads, each added by its mover as it
merges, so a subgame's outcomes never depend on earlier choices.
`spe_solve` records every choosing mover, to rebuild each profile;
`spe_decision` records the queried agent unless it moves first (below);
`spoa` records none.  The last mover's children are single leaves, so the
walk scores its choices straight from the loads (`Evaluator.join_row`, as
`equilibria._walk` does for its last choosing agent) and interns only the
leaves of the kept ones; every earlier mover scores its own utility on each
id from the final loads.  `spoa` reads the optimum from `Evaluator.optimum`.

When `spe_decision` queries the first choosing mover, the walk tries the
root's choices in order and stops at the first whose outcomes give that
mover the threshold.  This is exact: the root keeps every outcome worth at
least the best value the mover can force, and the mover's best outcome over
all its choices is always worth that much, so its best at the root is its
best over all its choices.  If no choice reaches the threshold, no root
outcome does, so that mover's choice needs no record.

At each state of every mover but the last, the walk skips the choices
that `Evaluator.undominated` drops.  Let L be the state's loads, w the
mover's weight, and F(j) and M(j) the weight of the later movers whose
every, or some, strategy holds node j.  After a choice through j the final
load at j lies between L_j + w + F(j) and L_j + w + M(j), both subset sums
of j's attractors, and the walk passes those two loads.  Every outcome
after a dropped choice s then pays the mover less than every outcome after
some choice u, so:

* exhaustive mode keeps only outcomes worth the threshold, the largest
  over choices of the worst outcome after each, which is at least u's
  worst; no outcome after s meets it, and s never sets it;
* deterministic mode keeps the first child best for the mover, and s's
  child pays it less than u's;
* with `goal`, an outcome after s worth the goal would make every outcome
  after u worth it too, so the root stops, or not, as it would have.

The test reads the state's own loads, so, unlike `Evaluator.live`'s, it
holds in every subgame, off the equilibrium path too.  Before it starts,
the walk marks the depths at which no state can skip a choice (`_cuts`)
and tests only the other depths.  The mark is only a shortcut: the
per-state test alone decides what is skipped.

The walk places single-strategy movers once, before it starts, since those
movers make no decision.  Every entry point first refuses, with
`model.check_budget`, a game whose profiles outnumber the budget.

Strategy lists themselves are exponentially large and never materialized;
outcomes are certified through achievable continuation values instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .engine import Evaluator
from .model import (
    DEFAULT_BUDGET,
    Instance,
    StrategyProfile,
    check_budget,
    check_index,
    exact_number,
    is_int,
)

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
        n = self.instance.num_agents
        if not all(map(is_int, self.order)) or sorted(self.order) != list(range(n)):
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


def _cuts(ev: Evaluator, placed, active):
    """Per depth of `active`, None where no state can skip a choice (the
    last depth among them), else the offsets (hi, lo) the walk adds to a
    state's loads: ``hi[j]`` and ``lo[j]`` are the mover's weight plus the
    weight of the later movers whose every, or some, strategy holds node j,
    read from `Evaluator.held`.

    A depth is None when `Evaluator.undominated` drops nothing with each
    earlier mover on every node it can hold in the best case and only on
    the nodes it must hold in the worst: those loads bound the best and
    the worst case of every state of the depth.  Offsets are built only at
    the depths that need them."""
    weights, every, some = ev.weights, ev.every, ev.some
    # later_all, later_any: the held weights of the movers from depth t on,
    # and after the mover is taken out, of the later ones
    later_all, later_any = ev.held(active)
    # At depth t and a node j of the mover, hi_load[j] weighs the mover, the
    # earlier movers that can hold j and the later ones that must: the most
    # load a best case can meet.  lo_load[j] weighs the mover, the earlier
    # movers that must hold j and the later ones that can: the least load a
    # worst case can meet.  `loose` holds the nodes the mover can leave.
    hi_load = [*map(add, placed, later_all)]
    lo_load = [*map(add, placed, later_any)]
    cuts = [None] * len(active)
    for t, mover in enumerate(active[:-1]):
        w, must, can = weights[mover], every[mover], some[mover]
        for j in must:
            later_all[j] -= w
        for j in can:
            later_any[j] -= w
        loose = can - must
        for j in loose:
            hi_load[j] += w
        options = range(len(ev.spaces[mover]))
        if len(ev.undominated(mover, options, hi_load, lo_load)) < len(options):
            cuts[t] = ([w + c for c in later_all], [w + c for c in later_any])
        for j in loose:
            lo_load[j] -= w
    return cuts


def _walk(ev: Evaluator, order, record, exhaustive: bool = True, goal=None):
    """Backward induction over the choosing movers of `order`, memoized on
    (depth, loads); returns the root's outcome ids and `finals`, where
    ``finals[id]`` is an outcome's final loads and the choices, in move
    order, of its movers in `record`.

    Exhaustive mode keeps every outcome achievable under some tie-breaking,
    deterministic mode the first child best for the mover.  With `goal`, a
    scaled utility, the root's ids are None once one of its choices has an
    outcome worth at least `goal` to the first mover.
    """
    loads, _, active = ev.preplace(order)
    if not active:
        return (0,), [(tuple(loads), ())]
    spaces, weights, values, share = ev.spaces, ev.weights, ev.values, ev.share
    depth = len(active)
    records = [mover in record for mover in active]
    cuts = _cuts(ev, loads, active)
    ids: dict = {}  # outcome -> its id
    finals: list = []  # id -> outcome: (final loads, recorded choices)
    table: dict = {}  # (depth, loads) -> the subgame's outcome ids

    def walk(t: int):
        key = (t, tuple(loads))
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
            if t == 0 and goal is not None and best >= goal:
                return None
            if not exhaustive:
                del scores[scores.index(best) + 1 :]  # the first best only
            merged = set()
            for s, u in enumerate(scores):
                if u == best:
                    final = loads[:]
                    for j in spaces[mover][s]:
                        final[j] += w
                    leaf = (tuple(final), (s,) if records[t] else ())
                    oid = ids.setdefault(leaf, len(finals))
                    if oid == len(finals):
                        finals.append(leaf)
                    merged.add(oid)
            merged = table[key] = tuple(merged)
            return merged
        space = spaces[mover]
        kept = range(len(space))
        if cuts[t] is not None:
            # skip the choices none of whose outcomes could meet the
            # mover's threshold
            hi, lo = cuts[t]
            hi, lo = [*map(add, loads, hi)], [*map(add, loads, lo)]
            kept = ev.undominated(mover, kept, hi, lo)
        scored = []  # per kept choice: (mover's utility, outcome id) pairs
        for s in kept:
            nodes = space[s]
            for j in nodes:
                loads[j] += w
            sub = walk(t + 1)
            for j in nodes:
                loads[j] -= w
            pairs = []
            for oid in sub:
                final = finals[oid][0]
                u = 0
                for j in nodes:
                    u += values[j] * share[final[j]]
                pairs.append((w * u, oid))
            if t == 0 and goal is not None and max(pairs)[0] >= goal:
                return None
            scored.append(pairs)
        if exhaustive:
            # The mover can force at least the best adversarial continuation
            # value, so only outcomes meeting that threshold are achievable.
            threshold = max(min(pairs)[0] for pairs in scored)
        else:
            # Each child is one outcome.  The children before the first best
            # one are worth less to the mover, so the threshold drops them.
            firsts = [pairs[0][0] for pairs in scored]
            threshold = max(firsts)
            del scored[firsts.index(threshold) + 1 :]
        if records[t]:
            merged = set()
            for s, pairs in zip(kept, scored):
                for u, oid in pairs:
                    if u >= threshold:
                        final, rest = finals[oid]
                        outcome = (final, (s,) + rest)
                        new = ids.setdefault(outcome, len(finals))
                        if new == len(finals):
                            finals.append(outcome)
                        merged.add(new)
        else:
            merged = {oid for pairs in scored for u, oid in pairs if u >= threshold}
        merged = table[key] = tuple(merged)
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
    roots, finals = _walk(ev, game.order, game.order, mode == "exhaustive")
    active = ev.preplace(game.order)[2]
    solved = []
    for loads, recorded in (finals[o] for o in roots):
        choices = [0] * ev.num_agents
        for mover, s in zip(active, recorded):
            choices[mover] = s
        solved.append((tuple(choices), ev.utilities_scaled(choices, loads)))
    outcomes = tuple(
        SpeOutcome(StrategyProfile(c), tuple(ev.frac(u) for u in utils))
        for c, utils in sorted(solved)
    )
    return SpeResult(outcomes=outcomes, mode=mode)


def spe_decision(
    game: SequentialGame,
    agent: int,
    threshold: Fraction | int | float,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff some subgame-perfect outcome gives `agent` utility at least
    `threshold`."""
    check_index(agent, game.instance.num_agents, "agent index")
    threshold = exact_number(threshold, "threshold")
    check_budget(game.instance, budget)
    ev = Evaluator(game.instance)
    # the least scaled utility u with u / den >= threshold
    goal = -(-threshold.numerator * ev.den // threshold.denominator)
    if agent == next((i for i in game.order if len(ev.spaces[i]) > 1), None):
        # the root stops at its first choice that gives `agent` the goal; if
        # none does, no root outcome does
        return _walk(ev, game.order, (), goal=goal)[0] is None
    roots, finals = _walk(ev, game.order, (agent,))
    choices = [0] * ev.num_agents
    for loads, recorded in (finals[o] for o in roots):
        choices[agent] = recorded[0] if recorded else 0
        if ev.utility_scaled(choices, loads, agent) >= goal:
            return True
    return False


def spoa(game: SequentialGame, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Optimal welfare divided by the welfare of the worst subgame-perfect
    outcome under any tie-breaking."""
    check_budget(game.instance, budget)
    ev = Evaluator(game.instance)
    roots, finals = _walk(ev, game.order, ())
    worst = min(ev.welfare(finals[o][0]) for o in roots)
    return Fraction(ev.optimum()[0], worst)
