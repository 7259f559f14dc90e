"""Scaled-integer evaluation engine shared by search, dynamics, and solvers.

Every load a node can take is a subset sum of the weights of the agents that
could ever attract it.  The engine collects those reachable loads per node
as a bitset (bit ``c`` set iff load ``c`` is reachable) and multiplies all
utilities by the lcm of the reachable loads, which turns them into plain
integers.  Exhaustive scans and backward induction then run an order of
magnitude faster than with `Fraction` arithmetic while staying exact.  For
unit-weight instances every load ``1..m`` is reachable, so the denominator
is ``lcm(1..m)``; with weights it stays small where ``lcm(1..total weight)``
would grow exponentially.  `Fraction` values are recovered at the API
boundary.

An agent's scaled utility at a strategy is w * sum of v_j * share[load_j]
over the strategy's nodes.  Every scoring loop forms the sum from
`values` and `share` alone and multiplies it by the weight once, which is
exact because w * (a + b) = w * a + w * b; no per-strategy table of
weighted terms is kept.  `deviation_scaled` is the one loop that scores
an agent at one strategy with the others fixed, its own choice included;
`first_improvement` is the one scan for an improving deviation, over the
agents and strategies asked for (alpha dynamics, and every equilibrium
test through `is_approx_pne`); `join_row` scores a row likewise.

`undominated` owns the dominance bound behind every pruned search: it
keeps the strategies whose best case reaches the largest worst case, both
scored with `share` at loads the caller bounds.  The engine also owns the
load bounds themselves.  Construction keeps, per agent i, ``every[i]``
and ``some[i]``, the nodes that every, or some, strategy of i holds
(``some`` also sizes the reach bitsets), and `held` weighs them per node
over the agents asked for.  `live` starts from copies of these and
iterates `undominated` to a fixpoint with a worklist into the strategies
`equilibria._walk` visits and scores; the sequential walk's `_cuts` reads
them to skip the choices no mode could keep.

The welfare optimum, `optimum`, is a depth-first search over the choosing
agents, memoized on the depth and the covered nodes that the agents still
to choose can hold, whose every scan stops at the cover bound.

The engine is read-only after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from .model import DEFAULT_BUDGET, BudgetError, Instance, validate_instance

__all__ = ["Evaluator"]


class Evaluator:
    """Precomputed tables for exact profile evaluation on one instance."""

    def __init__(self, inst: Instance):
        """Raises ValueError, worded by `validate_instance`, on no agents, a
        value, weight or node index that is not an int (`model.is_int`), a
        non-positive value or weight, an empty strategy space or strategy, a
        strategy naming a node twice, or a node index out of range; the
        remaining `validate_instance` checks do not affect evaluation.
        Raises BudgetError when the total weight, which sizes the load
        table, exceeds DEFAULT_BUDGET, or that ValueError when the total has
        too many digits to be written in the refusal."""
        self.instance = inst
        self.num_nodes = inst.num_nodes
        self.num_agents = inst.num_agents
        self.weights = [a.weight for a in inst.agents]
        self.values = [n.value for n in inst.nodes]
        self.spaces = [list(a.strategies) for a in inst.agents]
        self.space_sets = [
            [frozenset(s) for s in a.strategies] for a in inst.agents
        ]
        # some[i]: the nodes some strategy of agent i holds
        self.some = [frozenset().union(*sets) for sets in self.space_sets]
        held = frozenset().union(*self.some)
        # a float or bool number would be indexed or shifted as an int, and
        # a node listed twice would count twice in a load, once in `reach`
        kinds = {*map(type, chain(self.weights, self.values, *chain(*self.spaces)))}
        if not (
            all(k is not bool and issubclass(k, int) for k in kinds)
            and self.weights
            and min(self.weights) >= 1
            and min(self.values, default=1) >= 1
            and all(self.spaces)
            and all(
                0 < len(f) == len(s)
                for sets, space in zip(self.space_sets, self.spaces)
                for f, s in zip(sets, space)
            )
            and 0 <= min(held)
            and max(held) < self.num_nodes
        ):
            raise ValueError(
                "invalid-instance: " + "; ".join(validate_instance(inst).errors)
            )
        total = sum(self.weights)
        if total > DEFAULT_BUDGET:
            try:
                str(total)
            except ValueError:  # past int()'s digit limit, which it words
                raise ValueError(
                    "invalid-instance: " + "; ".join(validate_instance(inst).errors)
                ) from None
            raise BudgetError(
                f"search-space-too-large: total weight {total} exceeds "
                f"{DEFAULT_BUDGET}, the size limit of the load table"
            )
        # every[i]: the nodes every strategy of agent i holds
        self.every = [frozenset.intersection(*sets) for sets in self.space_sets]
        # reach[j]: bit c set iff some set of j's potential attractors weighs c
        reach = [1] * self.num_nodes
        for w, nodes in zip(self.weights, self.some):
            for j in nodes:
                reach[j] |= reach[j] << w
        union = 0
        for r in reach:
            union |= r
        # bits[c] == "1" iff load c is reachable; str.find keeps the scan
        # linear in the bit length, which runs to millions for large weights
        bits = bin(union)[:1:-1]
        reachable = []
        c = bits.find("1", 1)
        while c > 0:
            reachable.append(c)
            c = bits.find("1", c + 1)
        self.den = lcm(*reachable)
        # share[c] = den / c at reachable loads (0 elsewhere), so
        # w * v * share[c] is the scaled utility term
        self.share = [0] * len(bits)
        for c in reachable:
            self.share[c] = self.den // c

    def frac(self, scaled: int) -> Fraction:
        """Convert a scaled integer back to an exact rational."""
        return Fraction(scaled, self.den)

    def loads(self, choices) -> list[int]:
        loads = [0] * self.num_nodes
        for i, choice in enumerate(choices):
            w = self.weights[i]
            for j in self.spaces[i][choice]:
                loads[j] += w
        return loads

    def utility_scaled(self, choices, loads, agent: int) -> int:
        return self.deviation_scaled(choices, loads, agent, choices[agent])

    def utilities_scaled(self, choices, loads) -> tuple[int, ...]:
        return tuple(
            self.utility_scaled(choices, loads, i) for i in range(self.num_agents)
        )

    def deviation_scaled(self, choices, loads, agent: int, new_choice: int) -> int:
        """Scaled utility of `agent` after unilaterally switching to
        `new_choice`, with everyone else fixed; at its own choice, its
        current utility."""
        w = self.weights[agent]
        current = self.space_sets[agent][choices[agent]]
        values, share = self.values, self.share
        total = 0
        for j in self.spaces[agent][new_choice]:
            c = loads[j] if j in current else loads[j] + w
            total += values[j] * share[c]
        return w * total

    def welfare(self, loads) -> int:
        values = self.values
        return sum(values[j] for j, c in enumerate(loads) if c > 0)

    def join_row(self, loads, agent: int, options=None) -> list[int]:
        """Scaled utility of `agent` under each of its strategies, or of
        the strategy indices `options` in their order, when it joins
        `loads`, which hold every other agent's load but not its own.

        With the others placed, the entry at a strategy is the agent's exact
        utility there, so its best responses are the entries equal to the
        row's maximum."""
        w = self.weights[agent]
        values, share, space = self.values, self.share, self.spaces[agent]
        row = []
        for nodes in space if options is None else [space[c] for c in options]:
            u = 0
            for j in nodes:
                u += values[j] * share[loads[j] + w]
            row.append(w * u)
        return row

    def preplace(self, order):
        """Loads with every single-strategy agent placed, all-zero choices,
        and the agents of `order` that have a real choice, in that order.

        A single-strategy agent's load is the same in every profile, so a
        search places it once instead of at every node; its choice is 0."""
        loads = [0] * self.num_nodes
        active = []
        for i in order:
            if len(self.spaces[i]) > 1:
                active.append(i)
            else:
                w = self.weights[i]
                for j in self.spaces[i][0]:
                    loads[j] += w
        return loads, [0] * self.num_agents, active

    def held(self, agents) -> tuple[list[int], list[int]]:
        """Per node j, the weight of the agents of `agents` whose every
        strategy holds j, and of those whose some strategy holds j."""
        held_all = [0] * self.num_nodes
        held_any = [0] * self.num_nodes
        for i in agents:
            w = self.weights[i]
            for j in self.every[i]:
                held_all[j] += w
            for j in self.some[i]:
                held_any[j] += w
        return held_all, held_any

    def undominated(self, agent: int, options, hi, lo) -> list[int]:
        """The strategies of `options`, in their order, whose best case is
        at least the largest worst case among `options`.

        At every node j of an option, ``hi[j]`` and ``lo[j]`` are the least
        and the most load the agent, its own weight included, can meet:
        its load in the high, or best, case and in the low, or worst, case.
        Both must be loads at which `share` is nonzero, as subset sums of
        j's attractors are.  The best case of s is the sum over j in s of
        v_j * share[hi[j]], the worst case the same sum with lo[j] for
        hi[j].  `share` falls as the load grows, so s pays the agent at
        most w times its best case and t at least w times its worst case,
        where w is its weight.  s is dropped only when its best case is
        strictly below some worst case: then, at any loads within the
        bounds, t pays the agent more than s does, so s is in no
        equilibrium and meets no threshold that t sets.  A tie keeps s,
        which may meet such a threshold exactly.  Both cases leave out the
        factor w > 0, which keeps their order."""
        values, share, space = self.values, self.share, self.spaces[agent]
        floor = 0
        for t in options:
            u = 0
            for j in space[t]:
                u += values[j] * share[lo[j]]
            if u > floor:
                floor = u
        kept = []
        for s in options:
            u = 0
            for j in space[s]:
                u += values[j] * share[hi[j]]
            if u >= floor:
                kept.append(s)
        return kept

    def live(self, classes) -> list[list[int]]:
        """Each agent's live strategies, ascending: its space after iterated
        strict dominance (`undominated`).

        For agent i of weight w, the least load at a node j is w plus
        F_j, the weight of the other agents whose every live strategy
        holds j; the most is M_j, the weight of the agents with some live
        strategy through j, i itself included.  Every live profile of the
        others lies between the two, so a dropped strategy is never a best
        response.  `classes` lists interchangeable agents; a class is
        scored through its first member, so members keep equal lists.  F
        and M start as the `held` tables of all agents, and each agent's
        live node sets as copies of `every` and `some`, which stay as
        built.

        A worklist reaches the fixpoint: a class is scored again only when
        F or M moved at a node of its live strategies.  A class's own drop
        moves them only through its other members (its first member's
        bounds count its own weight the same either way), so only a class
        of more than one member is queued again after its own drop.  A
        drop stays a drop as the lists shrink: F only grows and M only
        falls, so best cases fall and worst cases rise, and the strategy
        with the largest worst case is never dropped, its best case being
        at least its worst.  So every order of scoring reaches the same
        lists, the ones rounds over every class would reach."""
        weights, sets = self.weights, self.space_sets
        live = [list(range(len(space))) for space in self.spaces]
        # every[i], some[i]: the nodes every, or some, live strategy of i
        # holds; held_all[j], held_any[j]: the weight of the agents whose
        # every, or some, live strategy holds j
        every, some = self.every[:], self.some[:]
        held_all, held_any = self.held(range(self.num_agents))
        pending = [k for k, members in enumerate(classes) if len(live[members[0]]) > 1]
        queued = set(pending)
        pending.reverse()  # popped from the end: classes in order first
        while pending:
            k = pending.pop()
            queued.discard(k)
            members = classes[k]
            i = members[0]
            # held_all already counts i at the nodes every live choice holds
            w, own = weights[i], every[i]
            least = [c if j in own else c + w for j, c in enumerate(held_all)]
            keep = self.undominated(i, live[i], least, held_any)
            if len(keep) == len(live[i]):
                continue
            mine = [sets[i][c] for c in keep]
            now_every = frozenset.intersection(*mine)
            now_some = frozenset.union(*mine)
            moved = (now_every - own) | (some[i] - now_some)
            total = w * len(members)
            for j in now_every - own:
                held_all[j] += total
            for j in some[i] - now_some:
                held_any[j] -= total
            for m in members:
                live[m], every[m], some[m] = keep, now_every, now_some
            for q, other in enumerate(classes):
                first = other[0]
                if q in queued or len(live[first]) == 1:
                    continue
                if q == k:
                    touched = len(members) > 1
                else:
                    touched = not moved.isdisjoint(some[first])
                if touched:
                    pending.append(q)
                    queued.add(q)
        return live

    def optimum(self) -> tuple[int, tuple[int, ...]]:
        """The optimal welfare and its lexicographically-first witness.

        Welfare depends only on the covered nodes.  Single-strategy agents
        are placed first; then a depth-first search gives the choosing
        agents, in index order, their choices in ascending order.  What the
        agents from depth t on add depends only on which of the nodes they
        can hold are covered, so a state is a depth and that part of the
        covered mask, and its best gain and the first choice reaching it
        are memoized; the memo is read before a child is searched, so a
        state reached twice is searched once.  Each state keeps the first
        strict best, so following the first choices from the root gives
        the lexicographically-first optimal profile.  Every scan ends once
        the welfare it reaches equals the cover bound, the total value of
        the nodes some strategy holds: no welfare exceeds that bound, so no
        later choice is a strict best, and the state's best is the most
        its agents can add on any path, as a full scan would find.
        """
        values = self.values
        loads, choices, active = self.preplace(range(self.num_agents))
        start_welfare = self.welfare(loads)
        if not active:
            return start_welfare, tuple(choices)
        start = sum(1 << j for j, c in enumerate(loads) if c)
        spaces = [self.spaces[i] for i in active]
        depth = len(spaces)
        # bits[t][c]: the node bitmask of choice c at depth t; reach[t]: the
        # nodes the choosing agents from depth t on can hold
        bits = []
        for space in spaces:
            row = []
            for nodes in space:
                mask = 0
                for j in nodes:
                    mask |= 1 << j
                row.append(mask)
            bits.append(row)
        reach = [0] * (depth + 1)
        for t in reversed(range(depth)):
            reach[t] = reach[t + 1]
            for mask in bits[t]:
                reach[t] |= mask
        held = start | reach[0]
        cover = sum(v for j, v in enumerate(values) if held >> j & 1)
        # memo[t][key]: the most the agents from depth t on add, and the
        # first choice that adds it, with `key` the covered part of reach[t];
        # memo[depth] stays empty
        memo: list[dict] = [{} for _ in range(depth + 1)]

        def search(t: int, key: int, welfare: int) -> int:
            """The most the agents from depth t on add to `welfare`, the
            worth of the covered nodes, whose part in reach[t] is `key`."""
            below, ahead, space = memo[t + 1], reach[t + 1], spaces[t]
            best, pick = -1, 0
            for c, mask in enumerate(bits[t]):
                gain = 0
                for j in space[c]:
                    if not key >> j & 1:
                        gain += values[j]
                if t + 1 < depth:
                    child = (key | mask) & ahead
                    known = below.get(child)
                    if known is None:
                        gain += search(t + 1, child, welfare + gain)
                    else:
                        gain += known[0]
                if gain > best:
                    best, pick = gain, c
                    if welfare + best == cover:
                        break
            memo[t][key] = (best, pick)
            return best

        try:
            welfare = start_welfare + search(0, start & reach[0], start_welfare)
        finally:
            del search  # the closure refers to itself; free the memo now
        mask = start
        for t, i in enumerate(active):
            choices[i] = c = memo[t][mask & reach[t]][1]
            mask |= bits[t][c]
        return welfare, tuple(choices)

    def first_improvement(
        self, choices, loads, alpha_num: int, alpha_den: int, agents=None, options=None
    ):
        """The first deviation, in (agent, strategy) order, worth more than
        (alpha_num/alpha_den) times the agent's current utility, as
        (agent, strategy, scaled gain); None if there is none.  Given
        `agents`, only those agents are tried, in their order; given
        `options`, agent i only at the strategies `options[i]`, in order."""
        score = self.deviation_scaled
        for i in range(self.num_agents) if agents is None else agents:
            own = choices[i]
            current = score(choices, loads, i, own)
            bar = current * alpha_num
            for alt in range(len(self.spaces[i])) if options is None else options[i]:
                if alt != own:
                    dev = score(choices, loads, i, alt)
                    if dev * alpha_den > bar:
                        return i, alt, dev - current
        return None

    def is_approx_pne(
        self, choices, loads, alpha_num: int, alpha_den: int, agents=None, options=None
    ) -> bool:
        """True iff `first_improvement`, over the same agents and
        strategies, finds no improving deviation."""
        return self.first_improvement(
            choices, loads, alpha_num, alpha_den, agents, options
        ) is None
