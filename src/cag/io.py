"""JSON serialization for instances, profiles, games, reductions, and
reports.

Rationals always serialize as ``"p/q"`` strings, never floats, so
downstream diffs are exact.  Instance, game and reduction documents, which
grow with the instance, come from one text writer, `_instance_text`: it
encodes each id once and writes the layout of ``json.dumps(..., indent=2)``
as literal separators (``json.dumps`` with ``indent`` runs json's
pure-Python encoder), and the tests keep ``json.dumps`` as its oracle.
Equilibrium reports and the step lines of traces come from literal text
too, through the same `_scalar` (and `_array`), with the same oracle; SPE
results and a trace's summary line stay on ``json.dumps``.  `rational_str`
writes every ``"p/q"``; a rational too long for integer text is refused with
a BudgetError that names its size.  Loaders read parsed JSON only through
`_field`, `_id`, `_list`, `_int`, `_one_of` and `parse_rational`, none of
which coerces a value, so a malformed file raises one ValueError naming the
entry and the field; a duplicate id also names its line (best effort on
pretty-printed files).  The loaders of gadget inputs check only the JSON
shape: `CutGraph`, `ThreeDMInstance` and `TqbfFormula` check their own
numbers.  Any other exception from a loader is a bug.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .dynamics import DynamicsStep, DynamicsTrace
from .equilibria import EquilibriumReport
from .gadgets import CutGraph, ReductionOutput, ThreeDMInstance, TqbfFormula
from .model import Agent, BudgetError, Instance, Node, StrategyProfile, is_int
from .sequential import SequentialGame, SpeOutcome, SpeResult

__all__ = [
    "dumps_game",
    "dumps_graph",
    "dumps_instance",
    "dumps_profile",
    "dumps_reduction",
    "dumps_report",
    "dumps_spe_result",
    "dumps_tdm",
    "dumps_tqbf",
    "dumps_trace",
    "loads_game",
    "loads_graph",
    "loads_instance",
    "loads_profile",
    "loads_report",
    "loads_spe_result",
    "loads_tdm",
    "loads_tqbf",
    "loads_trace",
    "parse_rational",
    "rational_str",
]


def rational_str(value: Fraction | int) -> str:
    """``"p/q"`` text of `value`.  Raises BudgetError, naming the digit
    count and the limit, when p or q has more digits than `int()` writes
    (`sys.get_int_max_str_digits()`)."""
    value = Fraction(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # p or q past the digit limit, in Python's words
        limit = sys.get_int_max_str_digits()
        what = "numerator" if abs(value.numerator) >= 10**limit else "denominator"
        digits = _digits(getattr(value, what), limit)
        raise BudgetError(
            f"answer-too-large: a rational's {what} has {digits} digits, over "
            f"the limit of {limit} on integer text"
        ) from None


def _digits(n: int, limit: int) -> int:
    """The number of decimal digits of `n`, counted `limit` digits at a
    time so that no text written is past the limit."""
    n, digits, step = abs(n), 0, 10**limit
    while n >= step:
        n //= step
        digits += limit
    return digits + len(str(n))


# number text: ASCII digits, an optional leading "-" and an optional "/digits"
_NUMBER = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    match = _NUMBER.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"malformed rational {text!r}")
    den = _to_int(match[2] or "1", "denominator")
    if den == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return Fraction(_to_int(match[1], "numerator"), den)


def _to_int(token: str, what: str) -> int:
    """`int(token)` for integer text; refused, naming `what`, when it has
    more digits than `int()` converts (`sys.get_int_max_str_digits()`)."""
    digits, limit = len(token.lstrip("-")), sys.get_int_max_str_digits()
    if 0 < limit < digits:
        raise ValueError(
            f"{what} {token[:12]}... has {digits} digits, over the limit of {limit}"
        )
    return int(token)


def _definition_line(text: str, id_value: str) -> int:
    """Best-effort line number of the duplicate id definition: the last
    occurrence of an `"id": "<value>"` pair in the raw text."""
    pattern = re.compile(r'"id"\s*:\s*' + re.escape(json.dumps(id_value)))
    line = 1
    for match in pattern.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
    return line


def _json(text: str) -> dict:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except ValueError as exc:
        # not a syntax error: an integer past int()'s digit limit; name it
        if not isinstance(exc, json.JSONDecodeError):
            json.loads(text, parse_int=lambda token: _to_int(token, "JSON number"))
        raise
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data


# ---------------------------------------------------------------------------
# instances, profiles, games


def dumps_instance(inst: Instance) -> str:
    return _instance_text(inst, "") + "\n"


_quote = json.encoder.encode_basestring_ascii


def _scalar(value) -> str:
    """`json.dumps(value)`, with an exact str or int encoded inline."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    return repr(value) if kind is int else json.dumps(value)


def _array(items: list[str], pad: str) -> str:
    """The `indent=2` layout of a JSON array of encoded `items`, for an
    array that opens on a line indented by `pad`."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _instance_text(built: Instance | SequentialGame, pad: str) -> str:
    """`json.dumps(document, indent=2)` of an instance, or of a game (its
    instance's fields plus the move order as agent ids), nested in a line
    indented by `pad`.  Each id is encoded once; a strategy is one join."""
    inst = built.instance if isinstance(built, SequentialGame) else built
    # p<k>: the indentation of nesting level k below the document's line
    p1, p2, p3, p4, p5 = (pad + "  " * k for k in range(1, 6))
    ids = [_scalar(n.id) for n in inst.nodes]
    nodes = [
        f'{{\n{p3}"id": {i},\n{p3}"value": {_scalar(n.value)}\n{p2}}}'
        for i, n in zip(ids, inst.nodes)
    ]
    agent_ids = [_scalar(a.id) for a in inst.agents]
    # a strategy's array: `_array` at level 4, inlined as strategies are
    # the most numerous arrays
    start, sep, end = f"[\n{p5}", f",\n{p5}", f"\n{p4}]"
    agents = [
        f'{{\n{p3}"id": {i},\n{p3}"weight": {_scalar(a.weight)},\n{p3}"strategies": '
        + _array([start + sep.join([ids[j] for j in s]) + end if s else "[]"
                  for s in a.strategies], p3)
        + f"\n{p2}}}"
        for i, a in zip(agent_ids, inst.agents)
    ]
    text = f'{{\n{p1}"nodes": {_array(nodes, p1)},\n{p1}"agents": {_array(agents, p1)}'
    if built is not inst:
        order = _array([agent_ids[i] for i in built.order], p1)
        text += f',\n{p1}"order": {order}'
    return text + f"\n{pad}}}"


def loads_instance(text: str) -> Instance:
    return _instance_from_dict(_json(text), text)


def _int(value, what: str, positive: bool = False) -> int:
    """`value` itself if it is an int (`model.is_int`), and at least 1 if
    `positive`; anything else is rejected rather than coerced.  The
    loaders check only the type where the object they build checks
    ranges."""
    if not is_int(value) or positive and value < 1:
        kind = "a positive integer" if positive else "an integer"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


def _field(obj, key: str, where: str):
    """`obj[key]`; `obj`, the entry named by `where`, must be a JSON object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    return obj[key]


def _id(entry, where: str) -> str:
    """`entry["id"]`, which must be a string: ids are matched as text."""
    value = _field(entry, "id", where)
    if not isinstance(value, str):
        raise ValueError(f"{where}: id must be a string, got {value!r}")
    return value


def _list(value, what: str, size: int | None = None) -> list:
    """`value` itself if it is a JSON list, of `size` items if given."""
    if not isinstance(value, list) or size is not None and len(value) != size:
        kind = "a list" if size is None else f"a list of {size} items"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


def _one_of(value, what: str, allowed: tuple[str, ...]) -> str:
    """`value` itself if it is one of the strings `allowed`."""
    if value not in allowed:
        kinds = " or ".join(map(repr, allowed))
        raise ValueError(f"{what} must be {kinds}, got {value!r}")
    return value


def _profile(value, what: str) -> StrategyProfile:
    choices = _list(value, f"{what} choices")
    return StrategyProfile(tuple(_int(c, f"{what} choice") for c in choices))


def _instance_from_dict(data: dict, text: str) -> Instance:
    nodes = []
    index: dict[str, int] = {}
    for k, entry in enumerate(_list(data.get("nodes", []), "nodes")):
        node_id = _id(entry, f"nodes[{k}]")
        value = _field(entry, "value", f"node {node_id!r}")
        if node_id in index:
            raise ValueError(
                f"duplicate node id {node_id!r} "
                f"(line {_definition_line(text, node_id)})"
            )
        index[node_id] = len(nodes)
        value = _int(value, f"node {node_id!r}: value", positive=True)
        nodes.append(Node(node_id, value))

    agents = []
    seen: set[str] = set()
    for k, entry in enumerate(_list(data.get("agents", []), "agents")):
        agent_id = _id(entry, f"agents[{k}]")
        where = f"agent {agent_id!r}"
        space = _list(_field(entry, "strategies", where), f"{where}: strategies")
        weight = _field(entry, "weight", where)
        if agent_id in seen:
            raise ValueError(
                f"duplicate agent id {agent_id!r} "
                f"(line {_definition_line(text, agent_id)})"
            )
        seen.add(agent_id)
        strategies = []
        what = f"{where}: strategy"
        for strategy in space:
            refs = []
            for ref in _list(strategy, what):
                if not isinstance(ref, str) or ref not in index:
                    raise ValueError(f"{where}: unknown node id {ref!r}")
                refs.append(index[ref])
            if len(set(refs)) != len(refs):
                raise ValueError(f"{where}: duplicate node in strategy {strategy}")
            strategies.append(tuple(sorted(refs)))
        weight = _int(weight, f"{where}: weight", positive=True)
        agents.append(Agent(agent_id, weight, tuple(strategies)))
    return Instance(tuple(nodes), tuple(agents))


def dumps_profile(profile: StrategyProfile) -> str:
    return json.dumps({"choices": list(profile.choices)}) + "\n"


def loads_profile(text: str) -> StrategyProfile:
    return _profile(_field(_json(text), "choices", "profile"), "profile")


def dumps_game(game: SequentialGame) -> str:
    return _instance_text(game, "") + "\n"


def loads_game(text: str) -> SequentialGame:
    data = _json(text)
    inst = _instance_from_dict(data, text)
    if "order" not in data:
        return SequentialGame.natural(inst)
    index = {a.id: i for i, a in enumerate(inst.agents)}
    order = []
    for ref in _list(_field(data, "order", "game"), "order"):
        if not isinstance(ref, str) or ref not in index:
            raise ValueError(f"order references unknown agent id {ref!r}")
        order.append(index[ref])
    return SequentialGame(inst, tuple(order))


# ---------------------------------------------------------------------------
# reductions and their inputs


def dumps_reduction(red: ReductionOutput) -> str:
    """The built instance or game and the back-mapping, with every rational
    of the mapping as a "p/q" string."""
    mapping = json.dumps(red.mapping, indent=2, default=rational_str)
    # a JSON string holds no raw newline, so this indents the mapping a level
    mapping = mapping.replace("\n", "\n  ")
    instance = _instance_text(red.instance, "  ")
    return f'{{\n  "instance": {instance},\n  "mapping": {mapping}\n}}\n'


def dumps_graph(graph: CutGraph) -> str:
    data = {"vertices": graph.num_vertices, "edges": [list(e) for e in graph.edges]}
    return json.dumps(data) + "\n"


def loads_graph(text: str) -> CutGraph:
    data = _json(text)
    edges = _list(_field(data, "edges", "graph"), "edges")
    return CutGraph(
        _field(data, "vertices", "graph"),
        tuple(_list(e, f"edges[{k}]", 3) for k, e in enumerate(edges)),
    )


def dumps_tdm(tdm: ThreeDMInstance) -> str:
    data = {"n": tdm.n, "triples": [list(t) for t in tdm.triples]}
    return json.dumps(data) + "\n"


def loads_tdm(text: str) -> ThreeDMInstance:
    data = _json(text)
    triples = _list(_field(data, "triples", "matching instance"), "triples")
    return ThreeDMInstance(
        _field(data, "n", "matching instance"),
        tuple(_list(t, f"triples[{k}]", 3) for k, t in enumerate(triples)),
    )


def dumps_tqbf(formula: TqbfFormula) -> str:
    data = {"vars": formula.num_vars, "clauses": [list(c) for c in formula.clauses]}
    return json.dumps(data) + "\n"


def loads_tqbf(text: str) -> TqbfFormula:
    data = _json(text)
    clauses = _list(_field(data, "clauses", "formula"), "clauses")
    return TqbfFormula(
        _field(data, "vars", "formula"),
        tuple(_list(c, f"clauses[{k}]") for k, c in enumerate(clauses)),
    )


# ---------------------------------------------------------------------------
# reports and traces


def dumps_report(report: EquilibriumReport) -> str:
    """`json.dumps(fields, indent=2)` of the report, written as literal text
    like `_instance_text`."""
    pne = _array([_array([*map(_scalar, p.choices)], "    ") for p in report.pne], "  ")
    opt = _array([*map(_scalar, report.opt_profile.choices)], "  ")
    poa = "undefined-no-pne" if report.poa is None else rational_str(report.poa)
    return (
        f'{{\n  "pne": {pne},\n  "opt-welfare": {_scalar(report.opt_welfare)},\n'
        f'  "opt-profile": {opt},\n  "poa": {_quote(poa)},\n'
        f'  "profile-count-scanned": {_scalar(report.profiles_scanned)}\n}}\n'
    )


def loads_report(text: str) -> EquilibriumReport:
    data = _json(text)
    keys = ("pne", "opt-welfare", "opt-profile", "poa", "profile-count-scanned")
    pne, welfare, opt, poa, scanned = (_field(data, k, "report") for k in keys)
    return EquilibriumReport(
        pne=tuple(_profile(p, "pne") for p in _list(pne, "pne")),
        opt_welfare=_int(welfare, "opt-welfare"),
        opt_profile=_profile(opt, "opt-profile"),
        poa=None if poa == "undefined-no-pne" else parse_rational(poa),
        profiles_scanned=_int(scanned, "profile-count-scanned"),
    )


def dumps_spe_result(result: SpeResult) -> str:
    data = {
        "mode": result.mode,
        "outcomes": [
            {
                "profile": list(o.profile.choices),
                "utilities": [rational_str(u) for u in o.utilities],
            }
            for o in result.outcomes
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def loads_spe_result(text: str) -> SpeResult:
    data = _json(text)
    outcomes = tuple(
        SpeOutcome(
            profile=_profile(_field(o, "profile", f"outcomes[{k}]"), "outcome"),
            utilities=tuple(
                parse_rational(u)
                for u in _list(_field(o, "utilities", f"outcomes[{k}]"), "utilities")
            ),
        )
        for k, o in enumerate(_list(_field(data, "outcomes", "result"), "outcomes"))
    )
    mode = _field(data, "mode", "result")
    return SpeResult(outcomes, _one_of(mode, "mode", ("deterministic", "exhaustive")))


def dumps_trace(trace: DynamicsTrace) -> str:
    """Line-delimited records: one per step, then a summary line.  Each
    step line is `json.dumps` of its record written as literal text, like
    `dumps_report`; a gain's ``"p/q"`` text needs no escaping."""
    lines = [
        f'{{"step": {k}, "agent": {_scalar(step.agent)}, "from": {_scalar(step.old)}, '
        f'"to": {_scalar(step.new)}, "gain": "{rational_str(step.gain)}"}}'
        for k, step in enumerate(trace.steps, 1)
    ]
    lines.append(
        json.dumps(
            {
                "start": list(trace.start.choices),
                "final": list(trace.final.choices),
                "termination": trace.termination,
            }
        )
    )
    return "\n".join(lines) + "\n"


def loads_trace(text: str) -> DynamicsTrace:
    lines = [_json(line) for line in text.splitlines() if line.strip()]
    if not lines or "termination" not in lines[-1]:
        raise ValueError("trace must end with a summary record")
    summary = lines[-1]
    termination = _field(summary, "termination", "summary")
    steps = tuple(
        DynamicsStep(
            agent=_int(_field(rec, "agent", f"step {k}"), "agent"),
            old=_int(_field(rec, "from", f"step {k}"), "from"),
            new=_int(_field(rec, "to", f"step {k}"), "to"),
            gain=parse_rational(_field(rec, "gain", f"step {k}")),
        )
        for k, rec in enumerate(lines[:-1], 1)
    )
    return DynamicsTrace(
        start=_profile(_field(summary, "start", "summary"), "start"),
        steps=steps,
        final=_profile(_field(summary, "final", "summary"), "final"),
        termination=_one_of(termination, "termination", ("converged", "step-limit")),
    )
