"""Instance transforms, hardness-reduction builders, and their oracles.

Three constructions connect customer attraction games to classic search and
decision problems:

* local max-cut -> unit games whose harmonic potential equals
  ``lambda * cutweight + constant``, so equilibria are exactly locally
  maximal cuts.  Exponentially large edge weights are encoded with
  polynomially many nodes through a Chinese-remainder partial-fraction
  split of ``w / (p_1 * ... * p_n)`` over the first n primes.
* perfect 3-dimensional matching -> weighted games that have an equilibrium
  iff a perfect matching exists, built around a four-node core game whose
  equilibria appear and disappear with the load on its boundary nodes.
* quantified boolean formulas -> sequential unit games whose first mover
  can reach a utility threshold in some subgame-perfect outcome iff the
  formula is true.

Two symmetrization transforms (reserve-node weight symmetrization and
strategy-space unionization) and a unit-value node split complete the kit.
Every builder returns a `ReductionOutput` whose mapping carries enough
metadata to replay the back-and-forth correspondence, and each reduction
has an independent brute-force oracle for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DEFAULT_BUDGET,
    Agent,
    BudgetError,
    Instance,
    Node,
    StrategyProfile,
    check_build_size,
    check_count,
    is_int,
)
from .potentials import harmonic_numbers
from .sequential import SequentialGame

__all__ = [
    "CutGraph",
    "EdgeGadget",
    "FractionDecomposition",
    "ReductionOutput",
    "ThreeDMInstance",
    "TqbfFormula",
    "cut_from_profile",
    "cutweight",
    "decompose_fraction",
    "edge_gadget_terms",
    "first_primes",
    "lift_profile",
    "maxcut_to_cag",
    "oracle_local_maxcut",
    "oracle_perfect_3dm",
    "oracle_tqbf",
    "pad_tqbf",
    "pullback_profile",
    "split_unit_values",
    "symmetrize_weighted",
    "tdm_to_cag",
    "tqbf_to_cag",
    "unionize_strategies",
]


@dataclass(frozen=True)
class ReductionOutput:
    """A constructed instance (or sequential game) plus back-mapping
    metadata keyed by strings; see each builder for its keys."""

    instance: Instance | SequentialGame
    mapping: dict


# ---------------------------------------------------------------------------
# instance transforms


def _check_ints(what: str, values) -> None:
    """Raise ValueError naming `what` at the first of `values` that is not
    an int (`model.is_int`): a float, bool or string is refused, not
    coerced."""
    for value in values:
        if not is_int(value):
            raise ValueError(f"{what} must be an integer, got {value!r}")


def _fresh_id(taken: set[str], base: str) -> str:
    name = base
    while name in taken:
        name = "_" + name
    taken.add(name)
    return name


def split_unit_values(inst: Instance) -> ReductionOutput:
    """Split every node of value v into v unit-value nodes, substituted into
    every strategy.  Utilities of every profile are unchanged; the induced
    profile map is the identity."""
    values = inst.values
    entries = sum(values[j] for a in inst.agents for s in a.strategies for j in s)
    strategies = sum(len(a.strategies) for a in inst.agents)
    check_build_size(
        "the unit split", sum(values), inst.num_agents, strategies, entries
    )
    taken = {n.id for n in inst.nodes}
    nodes: list[Node] = []
    groups: list[tuple[int, ...]] = []
    for node in inst.nodes:
        if node.value == 1:
            nodes.append(node)
            groups.append((len(nodes) - 1,))
            continue
        group = []
        for t in range(1, node.value + 1):
            nodes.append(Node(_fresh_id(taken, f"{node.id}_{t}"), 1))
            group.append(len(nodes) - 1)
        groups.append(tuple(group))
    agents = tuple(
        Agent(
            a.id,
            a.weight,
            tuple(
                tuple(sorted(j for old in s for j in groups[old]))
                for s in a.strategies
            ),
        )
        for a in inst.agents
    )
    out = Instance(tuple(nodes), agents)
    return ReductionOutput(out, {"kind": "unit-split", "node_groups": tuple(groups)})


def _strategy_value(inst: Instance, strategy: tuple[int, ...]) -> int:
    return sum(inst.nodes[j].value for j in strategy)


def _check_shared(what: str, inst: Instance, nodes: int, private: int) -> None:
    """`check_build_size` for the shared space `_shared_space` would build
    on `nodes` nodes, with `private` nodes joined to every strategy.  Every
    agent writes the whole shared list, so the document holds A * S
    strategies and A times the shared list's entries, for A agents and S
    original strategies in all."""
    agents = inst.num_agents
    count = sum(len(a.strategies) for a in inst.agents)
    held = sum(len(s) for a in inst.agents for s in a.strategies)
    check_build_size(
        what, nodes, agents, agents * count, agents * (held + count * private)
    )


def _shared_space(
    inst: Instance, nodes: list[Node], private: list[tuple[int, ...]]
) -> tuple[Instance, tuple[tuple[int, int], ...]]:
    """The instance on `nodes` whose agents all choose from one shared list:
    every original strategy of agent i joined with i's `private` nodes.
    Also returns the layout `lift_profile` and `pullback_profile` read:
    ``owner[k] == (i, original strategy index)`` for shared strategy k."""
    owner = tuple(
        (i, k) for i, a in enumerate(inst.agents) for k in range(len(a.strategies))
    )
    shared = tuple(
        tuple(sorted(inst.agents[i].strategies[k] + private[i])) for i, k in owner
    )
    agents = tuple(Agent(a.id, a.weight, shared) for a in inst.agents)
    return Instance(tuple(nodes), agents), owner


def symmetrize_weighted(inst: Instance, split: bool = False) -> ReductionOutput:
    """Turn an instance with at most one non-unit-weight agent into one with
    a common strategy space, preserving equilibrium existence.

    Each agent gets a private reserve node appended to its strategies; the
    reserve values are chosen so large that in any equilibrium each reserve
    is claimed by exactly one agent of matching weight, making the new
    agents impersonate the original ones.  With ``split=True`` the reserve
    (and any other non-unit) nodes are split into unit nodes afterwards, so
    only the weights remain asymmetric.

    Mapping keys: heavy_agent, T, M, M_prime, reserve_nodes, owner (shared
    strategy index -> (agent, original strategy index)), split,
    node_groups (when split).
    """
    heavies = [i for i, a in enumerate(inst.agents) if a.weight > 1]
    if len(heavies) > 1:
        raise ValueError(
            "hypothesis violated: more than one agent has non-unit weight"
        )
    heavy = heavies[0] if heavies else 0
    _check_shared(
        "the weight symmetrization", inst, inst.num_nodes + inst.num_agents, 1
    )
    big_t = inst.agents[heavy].weight
    big_m = max(
        _strategy_value(inst, s) for a in inst.agents for s in a.strategies
    )
    m_prime = (big_t + 1) * (big_m + 1)

    taken = {n.id for n in inst.nodes}
    nodes = list(inst.nodes)
    reserve: list[int] = []
    for i in range(inst.num_agents):
        value = (2 * big_t + 1) * m_prime if i == heavy else 2 * m_prime
        nodes.append(Node(_fresh_id(taken, f"r{i + 1}"), value))
        reserve.append(len(nodes) - 1)

    out, owner = _shared_space(inst, nodes, [(r,) for r in reserve])
    mapping = {
        "kind": "weight-symmetrization",
        "heavy_agent": heavy,
        "T": big_t,
        "M": big_m,
        "M_prime": m_prime,
        "reserve_nodes": tuple(reserve),
        "owner": owner,
        "split": split,
    }
    if split:
        inner = split_unit_values(out)
        out = inner.instance
        mapping["node_groups"] = inner.mapping["node_groups"]
    return ReductionOutput(out, mapping)


def unionize_strategies(inst: Instance) -> ReductionOutput:
    """Turn a unit-weight unit-value instance with per-agent strategy spaces
    into one with a single shared space, preserving equilibria.

    Each agent gets a private group of ``2 * num_nodes + 1`` unit nodes
    appended to its strategies; the groups are large enough that in any
    equilibrium each group is claimed by exactly one agent.
    """
    if any(a.weight != 1 for a in inst.agents):
        raise ValueError("hypothesis violated: requires unit agent weights")
    if any(n.value != 1 for n in inst.nodes):
        raise ValueError("hypothesis violated: requires unit node values")
    group_size = 2 * inst.num_nodes + 1
    _check_shared(
        "the strategy union", inst, inst.num_nodes + inst.num_agents * group_size,
        group_size,
    )
    taken = {n.id for n in inst.nodes}
    nodes = list(inst.nodes)
    groups: list[tuple[int, ...]] = []
    for i in range(inst.num_agents):
        group = []
        for k in range(1, group_size + 1):
            nodes.append(Node(_fresh_id(taken, f"r{i + 1}_{k}"), 1))
            group.append(len(nodes) - 1)
        groups.append(tuple(group))

    out, owner = _shared_space(inst, nodes, groups)
    mapping = {
        "kind": "strategy-union",
        "group_size": group_size,
        "reserve_groups": tuple(groups),
        "owner": owner,
    }
    return ReductionOutput(out, mapping)


def lift_profile(red: ReductionOutput, profile: StrategyProfile) -> StrategyProfile:
    """Map a profile of the original instance to the equivalent profile of a
    symmetrized/unionized instance (each agent keeps its own role)."""
    owner = red.mapping["owner"]
    index = {pair: k for k, pair in enumerate(owner)}
    return StrategyProfile(
        tuple(index[(i, c)] for i, c in enumerate(profile.choices))
    )


def pullback_profile(red: ReductionOutput, profile: StrategyProfile) -> StrategyProfile:
    """Map a perfectly-matched profile of the transformed instance back to
    the original instance.

    Perfectly matched means every original agent's role (reserve group) is
    claimed by exactly one transformed agent of equal weight; equilibria of
    the transformed instance always are.  Raises ValueError otherwise.
    """
    owner = red.mapping["owner"]
    inst = red.instance
    roles: dict[int, tuple[int, int]] = {}
    for i, choice in enumerate(profile.choices):
        role, original_choice = owner[choice]
        if role in roles:
            raise ValueError(f"not perfectly matched: role {role} claimed twice")
        if inst.agents[i].weight != inst.agents[role].weight:
            raise ValueError(
                f"not perfectly matched: agent {i} has the wrong weight for "
                f"role {role}"
            )
        roles[role] = (i, original_choice)
    return StrategyProfile(
        tuple(roles[role][1] for role in range(len(profile.choices)))
    )


# ---------------------------------------------------------------------------
# fraction decomposition and edge gadgets


@dataclass(frozen=True)
class FractionDecomposition:
    """``w / modulus`` written as a short sum of fractions with small
    denominators: ``sum(C_i / B_i) == w * lam`` exactly."""

    n: int
    primes: tuple[int, ...]
    modulus: int
    lam: Fraction
    terms: tuple[tuple[int, int], ...]  # (B_i, C_i), zero coefficients dropped


def first_primes(n: int) -> tuple[int, ...]:
    """The first n primes, by a sieve of Eratosthenes whose bound doubles
    until it holds n primes."""
    check_count(n, "n", least=0)
    limit = 16
    while True:
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
        primes = [p for p in range(limit) if sieve[p]]
        if len(primes) >= n:
            return tuple(primes[:n])
        limit *= 2


def decompose_fraction(n: int, w: int) -> FractionDecomposition:
    """Write ``w / (p_1 * ... * p_n)`` as a sum of at most n + 1 fractions
    whose denominators are the primes themselves (plus one integer part).

    This is the Chinese-remainder partial-fraction split: with ``M`` the
    product of the primes, the coefficient over ``p`` is the unique
    ``c`` in ``[0, p)`` with ``c * (M / p) == w (mod p)``, and what is left,
    ``w - sum(c * (M / p))``, is a multiple of ``M``.
    """
    check_count(n, "n")
    check_count(w, "w", least=0)
    if w > 2**n:
        raise ValueError(f"w must be in [0, 2^{n}]")
    primes = first_primes(n)
    modulus = math.prod(primes)
    residues = [w * pow(modulus // p, -1, p) % p for p in primes]
    integer_part, rest = divmod(
        w - sum(c * (modulus // p) for c, p in zip(residues, primes)), modulus
    )
    assert rest == 0
    assert abs(integer_part) <= n + 1

    terms = [(p, c) for p, c in zip(primes, residues) if c]
    if integer_part:
        terms.append((1, integer_part))
    assert sum(abs(c) for _, c in terms) <= n * primes[-1] + n + 1
    assert all(b <= primes[-1] for b, _ in terms)
    assert sum(Fraction(c, b) for b, c in terms) == Fraction(w, modulus)
    return FractionDecomposition(
        n=n,
        primes=primes,
        modulus=modulus,
        lam=Fraction(1, modulus),
        terms=tuple(terms),
    )


@dataclass(frozen=True)
class EdgeGadget:
    """Dummy-agent counts encoding a weight: with lam from the decomposition,
    ``lam * w == sum over d_plus of 1/((d+1)(d+2))
               - sum over d_minus of 1/((d+1)(d+2))`` exactly."""

    d_plus: tuple[int, ...]
    d_minus: tuple[int, ...]
    lam: Fraction
    rho: Fraction  # profile-independent potential contribution


def _expand_unit_fraction(b: int, plus: list[int], minus: list[int]) -> None:
    # 1/((d+1)(d+2)) = 1/(d+1) - 1/(d+2); b == 2 is such a term directly,
    # otherwise telescope: 1/b = 1/2 + 1/2 - sum_{d=0}^{b-2} 1/((d+1)(d+2)).
    if b == 2:
        plus.append(0)
        return
    plus.extend((0, 0))
    minus.extend(range(b - 1))


def edge_gadget_terms(w_bar: int, w: int) -> EdgeGadget:
    """Gadget sizes representing weight w among weights up to w_bar."""
    check_count(w_bar, "w_bar")
    check_count(w, "w", least=0)
    if w > w_bar:
        raise ValueError(f"w must be in [0, {w_bar}]")
    n = max(1, (w_bar - 1).bit_length())  # smallest n with 2^n >= w_bar
    dec = decompose_fraction(n, w)
    d_plus: list[int] = []
    d_minus: list[int] = []
    for b, c in dec.terms:
        pos, neg = (d_plus, d_minus) if c > 0 else (d_minus, d_plus)
        for _ in range(abs(c)):
            _expand_unit_fraction(b, pos, neg)
    h = harmonic_numbers(max((d + 1 for d in d_plus + d_minus), default=0))
    # An agreeing pair loads its nodes d and d+2 (sum 2H(d+1) - delta), a
    # disagreeing pair d+1 twice (sum 2H(d+1)); the cut-independent part of
    # a plus pair is therefore the agreeing value.
    rho = sum(
        (2 * h[d + 1] - Fraction(1, (d + 1) * (d + 2)) for d in d_plus),
        Fraction(0),
    ) + sum((2 * h[d + 1] for d in d_minus), Fraction(0))
    return EdgeGadget(tuple(d_plus), tuple(d_minus), dec.lam, rho)


# ---------------------------------------------------------------------------
# local max-cut reduction


@dataclass(frozen=True)
class CutGraph:
    num_vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, weight)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", tuple(tuple(e) for e in self.edges)
        )
        _check_ints("vertices", (self.num_vertices,))
        for u, v, w in self.edges:
            _check_ints("edge end", (u, v))
            _check_ints("edge weight", (w,))
        for u, v, w in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if w < 1:
                raise ValueError(f"edge ({u}, {v}): weight must be >= 1")


def cutweight(graph: CutGraph, assignment) -> int:
    """Total weight of edges crossing the two-sided assignment (+1/-1)."""
    if len(assignment) != graph.num_vertices:
        raise ValueError("assignment length does not match vertex count")
    return sum(w for u, v, w in graph.edges if assignment[u] != assignment[v])


def oracle_local_maxcut(graph: CutGraph, assignment) -> bool:
    """True iff no single vertex flip strictly increases the cut weight."""
    base = cutweight(graph, assignment)
    x = list(assignment)
    for i in range(graph.num_vertices):
        x[i] = -x[i]
        improved = cutweight(graph, x) > base
        x[i] = -x[i]
        if improved:
            return False
    return True


def maxcut_to_cag(graph: CutGraph) -> ReductionOutput:
    """Build a unit game whose equilibria correspond exactly to locally
    maximal cuts of the graph.

    Each vertex becomes an agent with a side-one and a side-minus-one
    strategy.  Each edge contributes paired gadget nodes sized by
    `edge_gadget_terms` and dummy agents pinned to them, so that the
    harmonic potential of the profile encoding assignment x equals
    ``lam * cutweight(x) + rho_sum``.

    Mapping keys: num_vertices, edges, lambda, rho (per edge), rho_sum,
    edge_terms, plus_choice, minus_choice.
    """
    if graph.num_vertices < 1 or not graph.edges:
        raise ValueError("graph must have at least one edge")
    w_bar = max(w for _, _, w in graph.edges)
    n = max(1, (w_bar - 1).bit_length())  # as in edge_gadget_terms
    # each of the first n primes p not dividing w_bar gets a nonzero term c/p,
    # which pins (p - 1)(p - 2) |c| dummies, each with one strategy of one
    # node: a bound that needs no decomposition.  It is summed over the
    # primes in increasing order, sieved in doubling runs, and each run's
    # partial sum is checked: a partial sum is at most the bound, so the
    # first one refused refuses the build, and a weight of a million bits
    # meets only the few dozen primes that already price the build out.
    least, primes = 0, ()
    while len(primes) < n:
        done = len(primes)
        primes = first_primes(min(2 * done + 16, n))
        least += sum((p - 1) * (p - 2) for p in primes[done:] if w_bar % p)
        check_build_size("the max-cut reduction", 0, least, least, least)
    # a term c/b lists |c| node pairs when b == 2 and |c| (b + 1) otherwise,
    # and pins |c| (b - 1)(b - 2) dummies to them (_expand_unit_fraction);
    # a pair puts one node in each strategy of both ends of its edge
    pairs, pinned = {}, {}
    for w in {e[2] for e in graph.edges}:
        terms = decompose_fraction(n, w).terms
        pairs[w] = sum(abs(c) * (1 if b == 2 else b + 1) for b, c in terms)
        pinned[w] = sum(abs(c) * (b - 1) * (b - 2) for b, c in terms)
    num_pairs = sum(pairs[w] for _, _, w in graph.edges)
    num_dummies = sum(pinned[w] for _, _, w in graph.edges)
    vertices = graph.num_vertices
    check_build_size(
        "the max-cut reduction", 2 * num_pairs, vertices + num_dummies,
        2 * vertices + num_dummies, 4 * num_pairs + num_dummies,
    )
    touched = {x for u, v, _ in graph.edges for x in (u, v)}
    isolated = [i for i in range(graph.num_vertices) if i not in touched]
    if isolated:
        raise ValueError(f"isolated vertices not supported: {isolated}")

    gadget_cache = {w: edge_gadget_terms(w_bar, w) for w in pairs}

    nodes: list[Node] = []
    dummies: list[Agent] = []
    side_one: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    side_minus: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    edge_terms = []

    def add_pair(tag: str, count: int) -> tuple[int, int]:
        first = len(nodes)
        nodes.append(Node(f"{tag}_0", 1))
        nodes.append(Node(f"{tag}_1", 1))
        for side in (first, first + 1):
            for t in range(1, count + 1):
                dummies.append(
                    Agent(f"d{nodes[side].id}_{t}", 1, ((side,),))
                )
        return first, first + 1

    for ei, (u, v, w) in enumerate(graph.edges):
        gadget = gadget_cache[w]
        edge_terms.append((gadget.d_plus, gadget.d_minus))
        for k, d in enumerate(gadget.d_plus, 1):
            agree, disagree = add_pair(f"r_e{ei}p{k}", d)
            side_one[u].append(agree)
            side_one[v].append(agree)
            side_minus[u].append(disagree)
            side_minus[v].append(disagree)
        for k, d in enumerate(gadget.d_minus, 1):
            n0, n1 = add_pair(f"r_e{ei}m{k}", d)
            side_one[u].append(n0)
            side_minus[v].append(n0)
            side_minus[u].append(n1)
            side_one[v].append(n1)

    agents = [
        Agent(
            f"u{i + 1}",
            1,
            (tuple(sorted(side_one[i])), tuple(sorted(side_minus[i]))),
        )
        for i in range(graph.num_vertices)
    ]
    inst = Instance(tuple(nodes), tuple(agents) + tuple(dummies))
    lam = next(iter(gadget_cache.values())).lam
    rho = tuple(gadget_cache[w].rho for _, _, w in graph.edges)
    mapping = {
        "kind": "local-maxcut",
        "num_vertices": graph.num_vertices,
        "edges": graph.edges,
        "lambda": lam,
        "rho": rho,
        "rho_sum": sum(rho, Fraction(0)),
        "edge_terms": tuple(edge_terms),
        "plus_choice": 0,
        "minus_choice": 1,
    }
    return ReductionOutput(inst, mapping)


def cut_from_profile(red: ReductionOutput, profile: StrategyProfile) -> tuple[int, ...]:
    """Recover the +1/-1 assignment encoded by the vertex agents' choices."""
    num_vertices = red.mapping["num_vertices"]
    if len(profile.choices) != len(red.instance.agents):
        raise ValueError("profile does not match the reduced instance")
    plus = red.mapping["plus_choice"]
    return tuple(
        1 if profile.choices[i] == plus else -1 for i in range(num_vertices)
    )


# ---------------------------------------------------------------------------
# 3-dimensional matching reduction


@dataclass(frozen=True)
class ThreeDMInstance:
    """Three disjoint vertex classes of size n (indexed per class) and a set
    of triples, one coordinate per class."""

    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "triples", tuple(tuple(t) for t in self.triples))
        _check_ints("n", (self.n,))
        for t in self.triples:
            _check_ints("triple coordinate", t)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for t in self.triples:
            if len(t) != 3 or any(not 0 <= c < self.n for c in t):
                raise ValueError(f"triple {t} out of range")


def oracle_perfect_3dm(tdm: ThreeDMInstance) -> bool:
    """Exhaustively decide whether a perfect matching exists: n disjoint
    triples covering every vertex of every class exactly once.  Raises
    BudgetError once the search tries more than DEFAULT_BUDGET triples."""
    by_x: list[list[tuple[int, int]]] = [[] for _ in range(tdm.n)]
    for x, y, z in set(tdm.triples):
        by_x[x].append((y, z))
    if any(not group for group in by_x):
        return False
    used_y = [False] * tdm.n
    used_z = [False] * tdm.n
    visited = 0

    def place(x: int) -> bool:
        nonlocal visited
        if x == tdm.n:
            return True
        for y, z in by_x[x]:
            visited += 1
            if visited > DEFAULT_BUDGET:
                raise BudgetError("search-space-too-large: matching search")
            if not used_y[y] and not used_z[z]:
                used_y[y] = used_z[z] = True
                if place(x + 1):
                    return True
                used_y[y] = used_z[z] = False
        return False

    return place(0)


def tdm_to_cag(tdm: ThreeDMInstance, symmetrize: bool = False) -> ReductionOutput:
    """Build a weighted game with an equilibrium iff the matching instance
    has a perfect matching.

    The four-node core game (weights 4 and 1) has equilibria only while its
    two boundary nodes stay unshared; matching agents that cannot pick
    disjoint triples fall back on a strategy that loads those nodes and
    destroys every equilibrium.  Triple strategies are worth exactly 30;
    fallback strategies at most 30.

    Mapping keys: n, triples, edge_strategies, fail_strategies,
    match_agents; plus the symmetrization keys when ``symmetrize=True``.
    """
    if not tdm.triples:
        raise ValueError("matching instance must have at least one triple")
    n, t = tdm.n, len(tdm.triples)
    # 4n + 4 nodes and n + 2 reserve nodes when symmetrized; the core agents
    # list 4 strategies of 2 nodes, each matching agent the t triples and n
    # fallbacks, of <= 3 nodes
    strategies = n * (t + n) + 4
    entries = 3 * n * (t + n) + 8
    if symmetrize:  # then every agent lists every strategy plus a reserve node
        entries += 4 * (n + 2) * strategies
        strategies *= n + 3
    check_build_size("the 3dm reduction", 5 * n + 6, n + 2, strategies, entries)
    nodes = [Node("q1", 2), Node("q2", 1), Node("q3", 1), Node("q4", 2)]
    index: dict[str, int] = {}
    for cls in ("x", "y", "z"):
        for j in range(1, tdm.n + 1):
            index[f"{cls}{j}"] = len(nodes)
            nodes.append(Node(f"qV{cls}{j}", 10))
    fail_nodes = []
    for j in range(1, tdm.n + 1):
        fail_nodes.append(len(nodes))
        nodes.append(Node(f"qF{j}", 26))

    match_space: list[tuple[int, ...]] = []
    for x, y, z in tdm.triples:
        match_space.append(
            tuple(sorted((index[f"x{x + 1}"], index[f"y{y + 1}"], index[f"z{z + 1}"])))
        )
    edge_count = len(match_space)
    match_space.append(tuple(sorted((fail_nodes[0], 0, 3))))
    for j in range(1, tdm.n):
        match_space.append((fail_nodes[j],))

    agents = [
        Agent("a1", 4, ((0, 1), (2, 3))),
        Agent("a2", 1, ((0, 2), (1, 3))),
    ]
    for j in range(1, tdm.n + 1):
        agents.append(Agent(f"m{j}", 1, tuple(match_space)))
    inst = Instance(tuple(nodes), tuple(agents))
    mapping = {
        "kind": "matching-hardness",
        "n": tdm.n,
        "triples": tdm.triples,
        "edge_strategies": tuple(range(edge_count)),
        "fail_strategies": tuple(range(edge_count, len(match_space))),
        "match_agents": tuple(range(2, 2 + tdm.n)),
    }
    if symmetrize:
        inner = symmetrize_weighted(inst)
        mapping["symmetrization"] = inner.mapping
        inst = inner.instance
    return ReductionOutput(inst, mapping)


# ---------------------------------------------------------------------------
# quantified boolean formula reduction


@dataclass(frozen=True)
class TqbfFormula:
    """A fully quantified 3-CNF formula with the fixed alternation pattern
    exists, forall, exists, ... implied by variable position (odd variables
    are existential).  Literals are signed 1-based variable indices."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        _check_ints("vars", (self.num_vars,))
        for clause in self.clauses:
            _check_ints("literal", clause)
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} must have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


def pad_tqbf(formula: TqbfFormula) -> TqbfFormula:
    """Pad with fresh vacuous variables to the next odd count >= 3.

    The added variables occur in no clause, so quantifying over them leaves
    the formula's value unchanged.
    """
    n = formula.num_vars
    target = max(3, n if n % 2 == 1 else n + 1)
    if target == n:
        return formula
    return TqbfFormula(target, formula.clauses)


def _clause_true(clause, assignment) -> bool:
    return any(
        (assignment[abs(lit)] == 1) == (lit > 0) for lit in clause
    )


def oracle_tqbf(formula: TqbfFormula) -> bool:
    """Exact recursive evaluation; odd variables are existential, even ones
    universal.  Raises BudgetError when the 2^n assignments exceed
    DEFAULT_BUDGET."""
    # 2^n > DEFAULT_BUDGET, without building 2^n
    if formula.num_vars >= DEFAULT_BUDGET.bit_length():
        raise BudgetError("search-space-too-large: quantifier tree")
    assignment = [0] * (formula.num_vars + 1)

    def value(i: int) -> bool:
        if i > formula.num_vars:
            return all(_clause_true(c, assignment) for c in formula.clauses)
        results = []
        for bit in (1, 0):
            assignment[i] = bit
            results.append(value(i + 1))
        return any(results) if i % 2 == 1 else all(results)

    return value(1)


def tqbf_to_cag(formula: TqbfFormula) -> ReductionOutput:
    """Build a sequential unit game whose first mover reaches utility
    ``1 + 1/(n' + 1)`` in some subgame-perfect outcome iff the formula is
    true (n' = number of universal variables).

    Variable agents pick a literal node (true or false side) together with
    their quantifier's hub node; a clause-picker agent drops one clause
    node; a checker agent either contests a clause it can satisfy or takes
    a fallback strategy through the existential hub, shifting every
    existential agent's hub share.  Three pinned agents keep the fallback's
    dummy nodes crowded.
    """
    n = formula.num_vars
    if n < 3 or n % 2 == 0:
        raise ValueError(
            "alternation pattern violated: need an odd variable count >= 3 "
            "(use pad_tqbf)"
        )
    if not formula.clauses:
        raise ValueError("formula must have at least one clause")
    n_prime = (n - 1) // 2
    nc = len(formula.clauses)
    # 2n + nc + 6 nodes; variable agents list 2 x 2 nodes, the picker nc x
    # nc, the checker 3nc x 3 and 1 x 5, the pinned agents 1 x 3 each
    check_build_size(
        "the qbf reduction", 2 * n + nc + 6, n + 5, 2 * n + 4 * nc + 4,
        4 * n + nc * (nc + 9) + 14,
    )

    nodes = [Node("qE", 1), Node("qA", 1)]
    clause_idx = []
    for j in range(1, nc + 1):
        clause_idx.append(len(nodes))
        nodes.append(Node(f"qC{j}", 1))
    pos_idx, neg_idx = [0], [0]  # 1-based variable lookup
    for t in range(1, n + 1):
        pos_idx.append(len(nodes))
        nodes.append(Node(f"qx{t}", 1))
        neg_idx.append(len(nodes))
        nodes.append(Node(f"qnx{t}", 1))
    dummy_idx = []
    for k in range(4):
        dummy_idx.append(len(nodes))
        nodes.append(Node(f"qD{k}", 1))

    def literal_complement_node(lit: int) -> int:
        return neg_idx[lit] if lit > 0 else pos_idx[-lit]

    agents: list[Agent] = []
    for t in range(1, n + 1):
        hub = 0 if t % 2 == 1 else 1  # qE for existential, qA for universal
        agents.append(
            Agent(
                f"a{t}",
                1,
                (
                    tuple(sorted((hub, pos_idx[t]))),
                    tuple(sorted((hub, neg_idx[t]))),
                ),
            )
        )
    picker_space = tuple(
        tuple(sorted([1] + [c for jj, c in enumerate(clause_idx) if jj != j]))
        for j in range(nc)
    )
    agents.append(Agent(f"a{n + 1}", 1, picker_space))
    checker_space = [
        tuple(sorted((1, clause_idx[j], literal_complement_node(lit))))
        for j, clause in enumerate(formula.clauses)
        for lit in clause
    ]
    checker_space.append(tuple(sorted([0] + dummy_idx)))
    agents.append(Agent(f"a{n + 2}", 1, tuple(checker_space)))
    pinned = tuple(sorted(dummy_idx[1:]))
    for t in range(n + 3, n + 6):
        agents.append(Agent(f"a{t}", 1, (pinned,)))

    inst = Instance(tuple(nodes), tuple(agents))
    game = SequentialGame(inst, tuple(range(len(agents))))
    mapping = {
        "kind": "qbf-hardness",
        "num_vars": n,
        "n_prime": n_prime,
        "num_clauses": nc,
        "true_choice": 0,
        "fallback_index": 3 * nc,
        "clause_agent": n,  # 0-based index of the clause picker
        "checker_agent": n + 1,
        "threshold": 1 + Fraction(1, n_prime + 1),
    }
    return ReductionOutput(game, mapping)
