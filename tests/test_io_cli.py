import copy
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cag import (
    Agent,
    CutGraph,
    DynamicsConfig,
    Instance,
    Node,
    SequentialGame,
    StrategyProfile,
    ThreeDMInstance,
    TqbfFormula,
    analyze,
    build_named_instance,
    gen_random,
    maxcut_to_cag,
    run_dynamics,
    spe_solve,
    symmetrize_weighted,
    tdm_to_cag,
    tqbf_to_cag,
)
from cag import cli, io, model
from cag.cli import run_cli
from cag.dynamics import DynamicsStep, DynamicsTrace
from cag.equilibria import EquilibriumReport

from conftest import instances, instances_with_profiles, src_env


# ---------------------------------------------------------------------------
# serialization round trips


def test_rational_strings():
    assert io.rational_str(Fraction(7, 3)) == "7/3"
    assert io.rational_str(5) == "5/1"
    assert io.parse_rational("7/3") == Fraction(7, 3)
    assert io.parse_rational("4") == 4
    assert io.parse_rational("-1/2") == Fraction(-1, 2)
    assert io.parse_rational("06/4") == Fraction(3, 2)


@given(st.fractions())
def test_rational_str_parses_back(value):
    assert io.parse_rational(io.rational_str(value)) == value


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/2/3", "malformed rational '1/2/3'"),
        ("1/0", "malformed rational '1/0': zero denominator"),
        (5, "malformed rational 5"),
        (None, "malformed rational None"),
        (" 1/2", "malformed rational ' 1/2'"),
        ("1_0/3", "malformed rational '1_0/3'"),
        ("\u0663/4", "malformed rational '\u0663/4'"),
        ("", "malformed rational ''"),
        ("1/", "malformed rational '1/'"),
        ("0.5", "malformed rational '0.5'"),
    ],
    ids=repr,
)
def test_parse_rational_takes_only_ascii_number_text(text, message):
    with pytest.raises(ValueError) as refusal:
        io.parse_rational(text)
    assert str(refusal.value) == message


@pytest.mark.parametrize(
    "loads, text, message",
    [
        (io.loads_report, '{"pne": [], "opt-welfare": 1, "opt-profile": [0], '
         '"poa": 1, "profile-count-scanned": 1}', "malformed rational 1"),
        (io.loads_spe_result, '{"mode": "exhaustive", '
         '"outcomes": [{"profile": [0], "utilities": [1]}]}', "malformed rational 1"),
        (io.loads_trace, '{"agent": 0, "from": 0, "to": 1, "gain": 1}\n'
         '{"start": [0], "final": [1], "termination": "converged"}\n',
         "malformed rational 1"),
        # values of a known field that no dumper writes
        (io.loads_spe_result, '{"mode": 5, "outcomes": []}',
         "mode must be 'deterministic' or 'exhaustive', got 5"),
        (io.loads_spe_result, '{"mode": "Exhaustive", "outcomes": []}',
         "mode must be 'deterministic' or 'exhaustive', got 'Exhaustive'"),
        (io.loads_trace, '{"start": [0], "final": [0], "termination": [1]}',
         "termination must be 'converged' or 'step-limit', got [1]"),
        (io.loads_trace, '{"start": [0], "final": [0], "termination": null}',
         "termination must be 'converged' or 'step-limit', got None"),
    ],
    ids=["report", "spe-result", "trace", "spe-mode-number", "spe-mode-case",
         "trace-termination-list", "trace-termination-null"],
)
def test_loaders_refuse_numbers_for_rationals(loads, text, message):
    with pytest.raises(ValueError) as refusal:
        loads(text)
    assert str(refusal.value) == message


_LIMIT = sys.get_int_max_str_digits()
_HUGE = "1" * (_LIMIT + 700)
# the largest int of `_LIMIT` digits, the most `int()` converts to text;
# its sum with any positive value has more
_LARGEST = 10**_LIMIT - 1


@pytest.mark.parametrize(
    "text, part", [(_HUGE, "numerator"), ("-" + _HUGE, "numerator"),
                   ("1/" + _HUGE, "denominator")]
)
def test_parse_rational_refuses_text_past_the_digit_limit(text, part):
    with pytest.raises(ValueError) as refusal:
        io.parse_rational(text)
    assert str(refusal.value) == (
        f"{part} {text.split('/')[-1][:12]}... has {_LIMIT + 700} digits, "
        f"over the limit of {_LIMIT}"
    )
    # exactly the limit is still number text
    assert io.parse_rational("-" + "1" * _LIMIT) == -int("1" * _LIMIT)


@pytest.mark.parametrize(
    "value, part, digits",
    [
        (Fraction(10**_LIMIT, 7), "numerator", _LIMIT + 1),
        (Fraction(-(10 ** (2 * _LIMIT + 5)), 3), "numerator", 2 * _LIMIT + 6),
        (Fraction(1, _LARGEST + 2), "denominator", _LIMIT + 1),
        (Fraction(10**_LIMIT + 1, _LARGEST + 3), "numerator", _LIMIT + 1),
    ],
    ids=["numerator", "negative-twice-the-limit", "denominator", "both"],
)
def test_rational_str_refuses_text_past_the_digit_limit(value, part, digits):
    """An answer too long to write is refused in one line naming its size
    and the limit, as an answer's size, not an input error."""
    with pytest.raises(model.BudgetError) as refusal:
        io.rational_str(value)
    assert str(refusal.value) == (
        f"answer-too-large: a rational's {part} has {digits} digits, over the "
        f"limit of {_LIMIT} on integer text"
    )
    # exactly the limit is still written
    assert io.rational_str(Fraction(-_LARGEST, _LARGEST - 1)) == (
        f"-{_LARGEST}/{_LARGEST - 1}"
    )


@pytest.mark.parametrize(
    "argv, named",
    [
        (["dynamics", "INST", "--eps", _HUGE], "--eps: numerator"),
        (["dynamics", "INST", "--eps", "1/" + _HUGE], "--eps: denominator"),
        (["eval", "INST", "--profile", "0,0," + _HUGE], "--profile choice"),
        (["potential", "INST", "--profile", _HUGE + ",0,0"], "--profile choice"),
        (["dynamics", "INST", "--start", "0," + _HUGE + ",0"], "--start choice"),
        (["analyze", "HUGE"], "JSON number"),
        (["eval", "INST", "--profile", "HUGE"], "JSON number"),
        (["gen", "--kind", "symmetric", "--seed", _HUGE], "--seed:"),
        (["analyze", "INST", "--jobs", _HUGE], "--jobs:"),
    ],
    ids=["eps", "eps-denominator", "eval-profile", "potential-profile",
         "dynamics-start", "instance-file", "profile-file", "seed", "jobs"],
)
def test_cli_refuses_number_text_past_the_digit_limit(
    example1_file, tmp_path, capsys, argv, named
):
    huge = tmp_path / "huge.json"
    if "--profile" in argv:
        huge.write_text('{"choices": [0, 0, %s]}' % _HUGE)
    else:
        huge.write_text('{"nodes": [{"id": "q", "value": %s}]}' % _HUGE)
    paths = {"INST": str(example1_file), "HUGE": str(huge)}
    assert run_cli([paths.get(a, a) for a in argv]) == 2
    line = _single_error_line(capsys)
    assert line.startswith(f"cag: {named} 111111111111... ")
    assert line.endswith(f"has {_LIMIT + 700} digits, over the limit of {_LIMIT}")
    assert len(line) < 200


@pytest.mark.parametrize(
    "argv",
    [["validate", "FILE"], ["analyze", "FILE"], ["eval", "FILE", "--profile", "0,0"],
     ["spoa", "FILE"], ["dynamics", "FILE"], ["gadget", "symmetrize", "FILE"]],
    ids=lambda argv: argv[0] if argv[0] != "gadget" else "gadget",
)
def test_cli_refuses_a_total_value_past_the_digit_limit(tmp_path, capsys, argv):
    """Each value is number text `int()` converts, but their total, which
    bounds the welfare, is not: every command refuses the file up front."""
    huge = str(_LARGEST)
    path = tmp_path / "huge.json"
    path.write_text(
        '{"nodes": [{"id": "q1", "value": %s}, {"id": "q2", "value": %s}], '
        '"agents": [{"id": "a1", "weight": 1, "strategies": [["q1"], ["q2"]]}, '
        '{"id": "a2", "weight": 1, "strategies": [["q1", "q2"]]}]}' % (huge, huge)
    )
    assert run_cli([str(path) if a == "FILE" else a for a in argv]) == 2
    error = capsys.readouterr().err
    prefix = "" if argv[0] == "validate" else "cag: "
    assert error == f"{prefix}node values: total exceeds the limit of {_LIMIT} digits\n"


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_cli_refuses_a_total_weight_past_the_digit_limit(tmp_path, capsys, command):
    """Each weight is number text `int()` converts, but their total is not,
    so no refusal could name it: the file is refused up front."""
    huge = str(_LARGEST)
    path = tmp_path / "huge.json"
    path.write_text(
        '{"nodes": [{"id": "q1", "value": 1}, {"id": "q2", "value": 1}], '
        '"agents": [{"id": "a1", "weight": %s, "strategies": [["q1"], ["q2"]]}, '
        '{"id": "a2", "weight": %s, "strategies": [["q1", "q2"]]}]}' % (huge, huge)
    )
    assert run_cli([command, str(path)]) == 2
    error = capsys.readouterr().err
    prefix = "" if command == "validate" else "cag: "
    assert error == f"{prefix}agent weights: total exceeds the limit of {_LIMIT} digits\n"


@given(instances())
def test_instance_round_trip(inst):
    assert io.loads_instance(io.dumps_instance(inst)) == inst


@given(instances_with_profiles())
def test_profile_round_trip(case):
    _, profile = case
    assert io.loads_profile(io.dumps_profile(profile)) == profile


def test_game_round_trip():
    game = build_named_instance("spoa-family", m=3)
    assert io.loads_game(io.dumps_game(game)) == game


def test_game_without_order_uses_natural_order():
    game = build_named_instance("spoa-two-agent")
    data = json.loads(io.dumps_game(game))
    del data["order"]
    assert io.loads_game(json.dumps(data)) == game


def _document(built) -> dict:
    """The reference for `io`'s text writer: the JSON object of an instance,
    or of a game (its instance's plus the move order as agent ids), which
    the writer must lay out exactly as `json.dumps(..., indent=2)` does."""
    inst = built.instance if isinstance(built, SequentialGame) else built
    data = {
        "nodes": [{"id": n.id, "value": n.value} for n in inst.nodes],
        "agents": [
            {
                "id": a.id,
                "weight": a.weight,
                "strategies": [
                    [inst.nodes[j].id for j in s] for s in a.strategies
                ],
            }
            for a in inst.agents
        ],
    }
    if built is not inst:
        data["order"] = [inst.agents[i].id for i in built.order]
    return data


# ids from all of Unicode, lone surrogates included, with the characters
# JSON escapes drawn often
_ID_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600"]),
    st.characters(blacklist_categories=()),
)
_IDS = st.text(_ID_CHARS, max_size=5)
_NUMBERS = st.one_of(st.integers(1, 10), st.integers(1, _LARGEST))


@st.composite
def _any_games(draw):
    """Games whose instances need not be valid: any ids, numbers within the
    digit limit, empty strategies and spaces, and a shuffled move order."""
    nodes = draw(st.lists(st.builds(Node, _IDS, _NUMBERS), max_size=5))
    strategy = st.lists(st.integers(0, len(nodes) - 1), max_size=4).map(tuple)
    space = st.lists(strategy if nodes else st.just(()), max_size=3).map(tuple)
    agents = draw(st.lists(st.builds(Agent, _IDS, _NUMBERS, space), max_size=4))
    order = draw(st.permutations(range(len(agents))))
    return SequentialGame(Instance(tuple(nodes), tuple(agents)), tuple(order))


@settings(max_examples=300)
@example(SequentialGame(Instance((Node("q", True),), (Agent("a", 1, ((0,),)),)), (0,)))
@given(_any_games())
def test_instance_and_game_text_match_json_dumps(game):
    assert io.dumps_game(game) == json.dumps(_document(game), indent=2) + "\n"
    inst = game.instance
    assert io.dumps_instance(inst) == json.dumps(_document(inst), indent=2) + "\n"


def test_instance_text_refuses_a_value_past_the_digit_limit():
    inst = Instance((Node("q", 10**_LIMIT),), (Agent("a", 1, ((0,),)),))
    with pytest.raises(ValueError) as expected:
        json.dumps(_document(inst), indent=2)
    with pytest.raises(ValueError) as refusal:
        io.dumps_instance(inst)
    assert str(refusal.value) == str(expected.value)


_choices = st.lists(st.integers(0, 2**70), max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_choices, max_size=4),
    st.integers(0, 2**70),
    _choices,
    st.none() | st.fractions(min_value=1).filter(lambda f: f.numerator < 2**70),
    st.integers(0, 2**70),
)
@example([], 0, [], None, 0)
def test_report_writer_matches_json_dumps(pne, welfare, opt, poa, scanned):
    """The report comes from literal text; `json.dumps(..., indent=2)` of
    its fields is the oracle, for empty lists, no equilibrium and integers
    past 2^64."""
    report = EquilibriumReport(
        tuple(StrategyProfile(c) for c in pne), welfare, StrategyProfile(opt),
        poa, scanned,
    )
    fields = {
        "pne": pne,
        "opt-welfare": welfare,
        "opt-profile": opt,
        "poa": "undefined-no-pne" if poa is None else io.rational_str(poa),
        "profile-count-scanned": scanned,
    }
    assert io.dumps_report(report) == json.dumps(fields, indent=2) + "\n"


_index = st.integers(0, 10**6)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_index, _index, _index,
                  st.fractions(min_value=Fraction(1, 2**70), max_value=2**70)
                  .filter(lambda f: f > 0)),
        max_size=50,
    ),
    st.lists(_index, max_size=4),
    st.lists(_index, max_size=4),
    st.sampled_from(["converged", "step-limit"]),
)
@example([(12, 345, 6789, Fraction(2**65 + 1, 2**66 + 1))], [0], [1], "converged")
def test_trace_writer_matches_json_dumps(steps, start, final, termination):
    """Step lines come from literal text; `json.dumps` of each record is
    the oracle, for no steps, multi-digit agents and choices, and gains
    whose numerators and denominators pass 2^64."""
    trace = DynamicsTrace(
        StrategyProfile(tuple(start)),
        tuple(DynamicsStep(*step) for step in steps),
        StrategyProfile(tuple(final)),
        termination,
    )
    records = [
        {"step": k, "agent": a, "from": old, "to": new, "gain": io.rational_str(g)}
        for k, (a, old, new, g) in enumerate(steps, 1)
    ]
    records.append({"start": start, "final": final, "termination": termination})
    assert io.dumps_trace(trace) == "".join(json.dumps(r) + "\n" for r in records)


def test_report_round_trip(example1_minus_dummy, example1):
    for inst in (example1_minus_dummy, example1):
        report = analyze(inst)
        assert io.loads_report(io.dumps_report(report)) == report


def test_spe_result_round_trip():
    result = spe_solve(build_named_instance("spoa-two-agent"), mode="exhaustive")
    parsed = io.loads_spe_result(io.dumps_spe_result(result))
    assert parsed.outcomes == result.outcomes
    assert parsed.mode == result.mode


def test_trace_round_trip():
    inst = build_named_instance("poa-lb", n=4, m=2)
    trace = run_dynamics(
        inst,
        StrategyProfile((1, 1)),
        DynamicsConfig(mode="epsilon", epsilon=Fraction(0), max_steps=50),
    )
    assert io.loads_trace(io.dumps_trace(trace)) == trace


@pytest.mark.parametrize("text", ["", '{"step": 1, "agent": 0, "from": 0, "to": 1, "gain": "1"}\n'])
def test_trace_without_a_summary_record_is_refused(text):
    with pytest.raises(ValueError, match="^trace must end with a summary record$"):
        io.loads_trace(text)


def test_instance_text_must_be_a_json_object():
    with pytest.raises(ValueError, match="^expected a JSON object$"):
        io.loads_instance("[]")


def test_graph_tdm_tqbf_round_trips():
    graph = CutGraph(3, ((0, 1, 2), (1, 2, 7)))
    assert io.loads_graph(io.dumps_graph(graph)) == graph
    tdm = ThreeDMInstance(2, ((0, 1, 0), (1, 0, 1)))
    assert io.loads_tdm(io.dumps_tdm(tdm)) == tdm
    formula = TqbfFormula(3, ((1, -2, 3),))
    assert io.loads_tqbf(io.dumps_tqbf(formula)) == formula


def test_empty_strategy_round_trip():
    # the no-potential counterexample carries a deliberately empty strategy
    inst = build_named_instance("no-potential-counterexample")
    assert io.loads_instance(io.dumps_instance(inst)) == inst


def test_duplicate_ids_rejected_with_line():
    text = io.dumps_instance(build_named_instance("example1"))
    broken = text.replace('"id": "q2"', '"id": "q1"', 1)
    with pytest.raises(ValueError) as err:
        io.loads_instance(broken)
    message = str(err.value)
    assert "duplicate node id 'q1'" in message
    assert "line" in message


def test_unknown_node_reference_rejected():
    data = {
        "nodes": [{"id": "q1", "value": 1}],
        "agents": [{"id": "a1", "weight": 1, "strategies": [["q9"]]}],
    }
    with pytest.raises(ValueError, match="unknown node id"):
        io.loads_instance(json.dumps(data))


@pytest.mark.parametrize(
    "entry, index, field, message",
    [
        ("nodes", 1, "id", "nodes[1]: missing field 'id'"),
        ("nodes", 1, "value", "node 'q2': missing field 'value'"),
        ("agents", 0, "id", "agents[0]: missing field 'id'"),
        ("agents", 0, "weight", "agent 'a1': missing field 'weight'"),
        ("agents", 0, "strategies", "agent 'a1': missing field 'strategies'"),
    ],
)
def test_instance_missing_field_named(entry, index, field, message):
    data = json.loads(io.dumps_instance(build_named_instance("example1")))
    del data[entry][index][field]
    with pytest.raises(ValueError) as err:
        io.loads_instance(json.dumps(data))
    assert str(err.value) == message


def test_game_missing_field_named():
    data = json.loads(io.dumps_game(build_named_instance("spoa-two-agent")))
    data["nodes"][0]["name"] = data["nodes"][0].pop("id")
    with pytest.raises(ValueError) as err:
        io.loads_game(json.dumps(data))
    assert str(err.value) == "nodes[0]: missing field 'id'"


def test_duplicate_node_within_strategy_rejected():
    data = {
        "nodes": [{"id": "q1", "value": 1}],
        "agents": [{"id": "a1", "weight": 1, "strategies": [["q1", "q1"]]}],
    }
    with pytest.raises(ValueError, match="duplicate node in strategy"):
        io.loads_instance(json.dumps(data))


# ---------------------------------------------------------------------------
# command line


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.json"
    run_cli(["gadget", "example1", "-o", str(path)])
    return path


def test_cli_analyze_reports_no_equilibrium(example1_file, capsys):
    assert run_cli(["analyze", str(example1_file)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pne"] == []
    assert data["poa"] == "undefined-no-pne"


def test_cli_spoa_value(tmp_path, capsys):
    game_file = tmp_path / "spoa2.json"
    run_cli(["gadget", "spoa-two-agent", "-o", str(game_file)])
    assert run_cli(["spoa", str(game_file)]) == 0
    assert json.loads(capsys.readouterr().out) == "3/2"
    with pytest.raises(SystemExit):  # spoa has no --mode
        run_cli(["spoa", str(game_file), "--mode", "exhaustive"])


@pytest.mark.parametrize("module", ["cag", "cag.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    game_file = tmp_path / "spoa2.json"
    run_cli(["gadget", "spoa-two-agent", "-o", str(game_file)])
    done = subprocess.run(
        [sys.executable, "-m", module, "spoa", str(game_file)],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == "3/2"


def test_cli_validate_bad_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "nodes": [{"id": "q1", "value": 1}],
                "agents": [{"id": "a1", "weight": 1, "strategies": [[]]}],
            }
        )
    )
    assert run_cli(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "empty strategy" in captured.err


def test_cli_validate_good_instance(example1_file):
    assert run_cli(["validate", str(example1_file)]) == 0


def test_cli_eval(example1_file, capsys):
    assert run_cli(["eval", str(example1_file), "--profile", "0,0,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["loads"] == [6, 4, 1, 1]
    assert data["utilities"][0] == "7/3"
    assert data["social-welfare"] == 6


def test_cli_eval_passes_over_the_loads_a_fixed_number_of_times(
    tmp_path, capsys, monkeypatch
):
    """`eval` scores every agent from one set of loads, so its load passes
    do not grow with the agents; each utility is `model.utility`'s."""
    all_loads, passes = model._all_loads, []

    def counted(inst, profile):
        passes.append(inst.num_agents)
        return all_loads(inst, profile)

    counts, reports = [], []
    for agents in (1, 40):
        inst = gen_random("w-asymmetric", 1, num_nodes=5, num_agents=agents,
                          num_strategies=2)
        path = tmp_path / f"{agents}.json"
        path.write_text(io.dumps_instance(inst))
        profile = StrategyProfile(tuple(i % 2 for i in range(agents)))
        with monkeypatch.context() as patch:
            patch.setattr(model, "_all_loads", counted)
            patch.setattr(cli, "_all_loads", counted)
            passes.clear()
            argv = ["eval", str(path), "--profile", ",".join(map(str, profile.choices))]
            assert run_cli(argv) == 0
            counts.append(len(passes))
        reports.append((inst, profile, json.loads(capsys.readouterr().out)))
    assert counts[0] == counts[1] <= 2
    for inst, profile, data in reports:
        assert data["utilities"] == [
            io.rational_str(model.utility(inst, profile, i))
            for i in range(inst.num_agents)
        ]


def test_cli_potential(example1_file, tmp_path, capsys):
    unit = tmp_path / "unit.json"
    run_cli(["gadget", "poa-lb", "--n", "3", "--m", "2", "-o", str(unit)])
    assert run_cli(
        ["potential", str(unit), "--profile", "0,0", "--kind", "rosenthal"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == "3/1"  # both agents share {q1, q2}: 2 * H(2)
    assert run_cli(
        ["potential", str(example1_file), "--profile", "0,0,0", "--kind", "log"]
    ) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["value"], float)


def test_cli_potential_refuses_an_answer_past_the_digit_limit(tmp_path, capsys):
    """The Rosenthal potential of 10,000 agents sharing one strategy has a
    4,346-digit numerator: exit 1 with one worded line, not Python's."""
    inst = tmp_path / "big.json"
    argv = ["gen", "--kind", "symmetric", "--seed", "1", "--nodes", "10",
            "--agents", "10000", "--strategies", "1", "-o", str(inst)]
    assert run_cli(argv) == 0
    profile = tmp_path / "zeros.json"
    profile.write_text(io.dumps_profile(StrategyProfile((0,) * 10000)))
    argv = ["potential", str(inst), "--profile", str(profile), "--kind", "rosenthal"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "cag: answer-too-large: a rational's numerator has 4346 digits, over the "
        f"limit of {_LIMIT} on integer text\n"
    )


def test_cli_dynamics_trace(tmp_path, capsys):
    inst_file = tmp_path / "lb.json"
    run_cli(["gadget", "poa-lb", "--n", "4", "--m", "2", "-o", str(inst_file)])
    rc = run_cli(
        [
            "dynamics",
            str(inst_file),
            "--mode",
            "epsilon",
            "--eps",
            "1/10",
            "--max-steps",
            "50",
            "--start",
            "1,1",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["termination"] == "converged"
    step = json.loads(lines[0])
    assert set(step) == {"step", "agent", "from", "to", "gain"}
    # epsilon defaults to 0; alpha mode runs without --eps
    traces = []
    for eps in ([], ["--eps", "0"]):
        assert run_cli(["dynamics", str(inst_file), "--start", "1,1", *eps]) == 0
        traces.append(capsys.readouterr().out)
    assert traces[0] == traces[1]
    assert run_cli(["dynamics", str(inst_file), "--mode", "alpha"]) == 0


def test_cli_spe_deterministic(tmp_path, capsys):
    game_file = tmp_path / "g.json"
    run_cli(["gadget", "spoa-family", "--m", "2", "-o", str(game_file)])
    assert run_cli(["spe", str(game_file), "--mode", "deterministic"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["outcomes"]) == 1


def test_cli_analyze_byte_identical(example1_file, tmp_path):
    a, b = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(["analyze", str(example1_file), "-o", str(a)]) == 0
    assert run_cli(["analyze", str(example1_file), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--kind", "w-asymmetric", "--seed", "3", "--nodes", "5"]
    assert run_cli(args + ["-o", str(a)]) == 0
    assert run_cli(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    inst = io.loads_instance(a.read_text())
    assert any(agent.weight > 1 for agent in inst.agents)
    assert len({agent.strategies for agent in inst.agents}) == 1


def test_cli_gen_single_agent_on_one_node(capsys):
    args = ["gen", "--kind", "s-asymmetric", "--seed", "0", "--nodes", "1",
            "--agents", "1", "--strategies", "1"]
    assert run_cli(args) == 0
    inst = io.loads_instance(capsys.readouterr().out)
    assert [agent.strategies for agent in inst.agents] == [((0,),)]


def test_cli_analyze_jobs_flag(tmp_path, capsys):
    inst_file = tmp_path / "r.json"
    run_cli(["gen", "--kind", "symmetric", "--seed", "14", "-o", str(inst_file)])
    assert run_cli(["analyze", str(inst_file)]) == 0
    serial = capsys.readouterr().out
    assert run_cli(["analyze", str(inst_file), "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(example1_file, capsys, jobs):
    assert run_cli(["analyze", str(example1_file), "--jobs", jobs]) == 2
    assert "jobs must be at least 1" in _single_error_line(capsys)


def test_cli_budget_env(example1_file, monkeypatch, capsys):
    monkeypatch.setenv("CAG_BUDGET", "2")
    assert run_cli(["analyze", str(example1_file)]) == 1
    assert "search-space-too-large" in capsys.readouterr().err
    # --budget wins over CAG_BUDGET; 1e1 is exactly 10 >= 8 profiles
    assert run_cli(["analyze", str(example1_file), "--budget", "1e1"]) == 0


def _single_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cag: ")
    return lines[0]


BAD_BUDGETS = ["abc", "inf", "nan", "1.5", "0", "-5", "1e-400", "1e400",
               "1_000", " 10", "10 ", "\u0661\u0660", "1e1_0"]


@pytest.mark.parametrize("value", BAD_BUDGETS)
def test_cli_bad_budget_env_is_input_error(example1_file, monkeypatch, capsys, value):
    monkeypatch.setenv("CAG_BUDGET", value)
    assert run_cli(["analyze", str(example1_file)]) == 2
    assert "CAG_BUDGET" in _single_error_line(capsys)


@pytest.mark.parametrize("value", BAD_BUDGETS)
def test_cli_bad_budget_flag_is_input_error(example1_file, capsys, value):
    assert run_cli(["analyze", str(example1_file), "--budget", value]) == 2
    assert "invalid budget" in _single_error_line(capsys)


def test_cli_refuses_total_weight_above_budget(tmp_path, capsys):
    w = 6_000_000
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({
        "nodes": [{"id": "q1", "value": 3}, {"id": "q2", "value": 2}],
        "agents": [
            {"id": "a1", "weight": w, "strategies": [["q1"], ["q2"]]},
            {"id": "a2", "weight": w + 1, "strategies": [["q1"], ["q2"]]},
        ],
    }))
    assert run_cli(["analyze", str(path)]) == 1
    assert _single_error_line(capsys).startswith("cag: search-space-too-large: ")


def _one_node_instance(weight=1, value=1, strategies=(("q1",),)) -> str:
    return json.dumps(
        {
            "nodes": [{"id": "q1", "value": value}],
            "agents": [
                {"id": "a1", "weight": weight, "strategies": list(strategies)}
            ],
        }
    )


@pytest.mark.parametrize(
    "field, bad", [("weight", w) for w in (1.5, 0, -1, True, "2")]
    + [("value", v) for v in (1.5, 0, -3, False)],
)
def test_cli_rejects_non_positive_integer_fields(tmp_path, capsys, field, bad):
    path = tmp_path / "bad.json"
    path.write_text(_one_node_instance(**{field: bad}))
    assert run_cli(["analyze", str(path)]) == 2
    assert f"{field} must be a positive integer" in _single_error_line(capsys)


@pytest.mark.parametrize(
    "command",
    [
        ["analyze"],
        ["spe"],
        ["spoa"],
        ["dynamics"],
        ["potential", "--profile", "0"],
        ["eval", "--profile", "0"],
    ],
    ids=lambda command: command[0],
)
def test_cli_rejects_empty_strategy_space(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text(_one_node_instance(strategies=()))
    assert run_cli([command[0], str(path), *command[1:]]) == 2
    assert "empty strategy space" in _single_error_line(capsys)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eps", "1/0"], "zero denominator"),
        (["--eps", " 1/2"], "malformed rational ' 1/2'"),
        (["--eps", "1_0/3"], "malformed rational '1_0/3'"),
        (["--eps", "\u0663/4"], "malformed rational '\u0663/4'"),
        (["--mode", "alpha", "--alpha", "inf"], "alpha must be finite"),
        (["--mode", "alpha", "--alpha", "nan"], "alpha must be finite"),
        (
            ["--mode", "alpha", "--alpha", "nan", "--allow-any-alpha"],
            "alpha must be finite",
        ),
        (["--mode", "alpha", "--eps", "1/2"], "--mode alpha does not take --eps"),
        (["--mode", "alpha", "--eps", "0"], "--mode alpha does not take --eps"),
        (["--alpha", "2"], "--mode epsilon does not take --alpha"),
        (
            ["--eps", "0", "--alpha", "2", "--allow-any-alpha"],
            "does not take --alpha, --allow-any-alpha",
        ),
    ],
    ids=[
        "eps-1/0", "eps-space", "eps-underscore", "eps-arabic-digit", "alpha-inf", "alpha-nan", "alpha-nan-allow-any",
        "alpha-with-eps", "alpha-with-eps-0", "epsilon-with-alpha",
        "epsilon-with-alpha-and-allow-any",
    ],
)
def test_cli_dynamics_rejects_bad_eps_and_alpha(example1_file, capsys, flags, message):
    assert run_cli(["dynamics", str(example1_file), *flags]) == 2
    assert message in _single_error_line(capsys)


@pytest.mark.parametrize("text", ["0,1_0,0", " 0,1,0", "\u0660,1,0", "0,,1", "0,1/1,0", "0;1;0"])
@pytest.mark.parametrize(
    "flag", [["eval", "--profile"], ["potential", "--profile"], ["dynamics", "--start"]],
    ids=lambda flag: flag[0],
)
def test_cli_refuses_malformed_profile_text(example1_file, capsys, flag, text):
    assert run_cli([flag[0], str(example1_file), flag[1], text]) == 2
    assert _single_error_line(capsys) == (
        f"cag: malformed profile {text!r}: expected integers like 0,1,0"
    )


@pytest.mark.parametrize("flag", ["--max-strategy-size", "--max-weight", "--max-value"])
def test_cli_gen_rejects_bounds_below_one(capsys, flag):
    assert run_cli(["gen", "--kind", "asymmetric", "--seed", "1", flag, "0"]) == 2
    assert "must be at least 1" in _single_error_line(capsys)


_INT_FLAG_COMMANDS = {
    flag: ["gen", "--kind", "asymmetric", "--seed", "1"]
    for flag in ("--seed", "--nodes", "--agents", "--strategies",
                 "--max-strategy-size", "--max-weight", "--max-value")
} | {
    "--n": ["gadget", "poa-lb", "--m", "2"],
    "--m": ["gadget", "poa-lb", "--n", "2"],
    "--max-steps": ["dynamics", "INST"],
    "--jobs": ["analyze", "INST"],
}


@pytest.mark.parametrize(
    "text", ["1_0", " 2", "+1", "\u0663", "1/1", "1.0", "x"]
)
@pytest.mark.parametrize("flag", list(_INT_FLAG_COMMANDS))
def test_cli_integer_flags_take_only_ascii_integer_text(example1_file, capsys, flag, text):
    """An integer flag reads the number text `--eps` and profiles read,
    and refuses anything else in one line instead of coercing it."""
    argv = [str(example1_file) if a == "INST" else a for a in _INT_FLAG_COMMANDS[flag]]
    assert run_cli([*argv, flag, text]) == 2
    assert _single_error_line(capsys) == f"cag: {flag}: malformed integer {text!r}"


def test_cli_missing_file_is_input_error(capsys):
    assert run_cli(["analyze", "/nonexistent/file.json"]) == 2


def _reduction_via_round_trip(red) -> str:
    """The reduction document built by re-parsing the dumped instance and
    converting the mapping's rationals by hand: what `dumps_reduction`
    writes in one pass."""
    def plain(obj):
        if isinstance(obj, Fraction):
            return io.rational_str(obj)
        if isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        return obj

    dump = io.dumps_game if hasattr(red.instance, "order") else io.dumps_instance
    data = {"instance": json.loads(dump(red.instance)), "mapping": plain(red.mapping)}
    return json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize(
    "build",
    [
        lambda: maxcut_to_cag(CutGraph(3, ((0, 1, 2), (1, 2, 3)))),
        lambda: tdm_to_cag(ThreeDMInstance(2, ((0, 1, 0), (1, 0, 1))), True),
        lambda: tqbf_to_cag(TqbfFormula(3, ((1, -2, 3), (-1, 2, -3)))),
        lambda: symmetrize_weighted(build_named_instance("example1"), True),
    ],
    ids=["maxcut", "3dm-symmetrized", "tqbf", "symmetrize-split"],
)
def test_dumps_reduction_matches_the_round_trip(build):
    red = build()
    assert io.dumps_reduction(red) == _reduction_via_round_trip(red)


def test_cli_gadget_reduction_with_mapping(tmp_path, capsys):
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps({"vertices": 2, "edges": [[0, 1, 1]]}))
    assert run_cli(["gadget", "maxcut", str(graph_file)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mapping"]["lambda"] == "1/2"
    assert "instance" in data
    assert run_cli(["gadget", "maxcut", str(graph_file), "--instance-only"]) == 0
    instance_only = json.loads(capsys.readouterr().out)
    assert "nodes" in instance_only


@pytest.mark.parametrize(
    "argv, message",
    [
        (["maxcut"], "requires an input file"),
        (["tqbf", "--pad"], "requires an input file"),
        (["maxcut", "GRAPH", "--pad"], "does not take --pad"),
        (["maxcut", "GRAPH", "--n", "3"], "does not take --n"),
        (["3dm", "GRAPH", "--m", "2"], "does not take --m"),
        (["symmetrize", "GRAPH", "--symmetrize"], "does not take --symmetrize"),
        (["example1", "--instance-only"], "does not take --instance-only"),
        (["example1", "GRAPH"], "takes no input file"),
        (["example1", "--n", "5"], "takes no parameter n"),
        (["spoa-family", "--n", "3", "--m", "2"], "takes no parameter n"),
        (["poa-lb", "--n", "4"], "requires parameters n and m"),
        (["poa-lb(4,2)"], "unknown gadget kind"),
        (["poa-lb", "--n", "3", "--m", "0"], "m must be at least 1, got 0"),
        (["poa-lb", "--n", "3", "--m", "-2"], "m must be at least 1, got -2"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_cli_gadget_rejects_unused_or_missing_input(tmp_path, capsys, argv, message):
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps({"vertices": 2, "edges": [[0, 1, 1]]}))
    argv = [str(graph_file) if a == "GRAPH" else a for a in argv]
    assert run_cli(["gadget", *argv]) == 2
    assert message in _single_error_line(capsys)


@pytest.mark.parametrize(
    "kind, data",
    [
        ("profile", {"choices": [0.9, True, 0]}),
        ("profile", {"choices": [0, "1", 0]}),
        ("maxcut", {"vertices": 2.7, "edges": [[0, 1, 1]]}),
        ("maxcut", {"vertices": 2, "edges": [[0, 1, "3"]]}),
        ("maxcut", {"vertices": 2, "edges": [[False, 1, 1]]}),
        ("3dm", {"n": 1, "triples": [[0.2, 0, 0]]}),
        ("3dm", {"n": True, "triples": [[0, 0, 0]]}),
        ("tqbf", {"vars": 3, "clauses": [[1, -2, 3.0]]}),
        ("tqbf", {"vars": "3", "clauses": [[1, -2, 3]]}),
    ],
)
def test_cli_loaders_reject_non_integers(example1_file, tmp_path, capsys, kind, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if kind == "profile":
        argv = ["eval", str(example1_file), "--profile", str(path)]
    else:
        argv = ["gadget", kind, str(path)]
    assert run_cli(argv) == 2
    assert "must be an integer" in _single_error_line(capsys)


def test_cli_analyze_rejects_file_without_agents(tmp_path, capsys):
    """A cut graph passed as an instance parses to no nodes and no agents."""
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps({"vertices": 2, "edges": [[0, 1, 1]]}))
    assert run_cli(["analyze", str(graph_file)]) == 2
    assert "no agents" in _single_error_line(capsys)


@pytest.mark.parametrize("kind", ["symmetrize", "unionize", "split"])
@pytest.mark.parametrize(
    "agents",
    [[], [{"id": "a1", "weight": 1, "strategies": [[]]}]],
    ids=["no-agents", "empty-strategy"],
)
def test_cli_gadget_refuses_invalid_instance_like_analyze(
    tmp_path, capsys, kind, agents
):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": [{"id": "q1", "value": 1}], "agents": agents}))
    assert run_cli(["analyze", str(path)]) == 2
    refusal = _single_error_line(capsys)
    assert run_cli(["gadget", kind, str(path)]) == 2
    assert _single_error_line(capsys) == refusal


def test_cli_gadget_tqbf_pad(tmp_path, capsys):
    formula_file = tmp_path / "f.json"
    formula_file.write_text(json.dumps({"vars": 1, "clauses": [[1, 1, 1]]}))
    assert run_cli(["gadget", "tqbf", str(formula_file)]) == 2  # needs padding
    capsys.readouterr()
    assert run_cli(["gadget", "tqbf", str(formula_file), "--pad"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mapping"]["num_vars"] == 3


def test_cli_verify_single_criterion(capsys):
    assert run_cli(["verify", "--only", "payoff-matrix-with-dummy"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")


_UNIT_INSTANCE = {
    "nodes": [{"id": "q", "value": 1}],
    "agents": [{"id": "a1", "weight": 1, "strategies": [["q"]]}],
}


def _with(key, value) -> dict:
    """The unit instance with one top-level field, or agent a1's field
    `strategies`, replaced."""
    if key == "strategies":
        agent = {**_UNIT_INSTANCE["agents"][0], key: value}
        return {**_UNIT_INSTANCE, "agents": [agent]}
    return {**_UNIT_INSTANCE, key: value}


def _unit_cycles() -> dict:
    """A graph of 300 unit-weight cycles through the same 2,000 vertices."""
    return {
        "vertices": 2000,
        "edges": [[k % 2000, (k + 1) % 2000, 1] for k in range(600_000)],
    }


def _crowd(agents: int, nodes: int, strategies: int) -> dict:
    """A unit instance whose `agents` agents each choose one of the first
    `strategies` of its `nodes` nodes."""
    space = [[f"q{j + 1}"] for j in range(strategies)]
    return {
        "nodes": [{"id": f"q{j + 1}", "value": 1} for j in range(nodes)],
        "agents": [
            {"id": f"a{i + 1}", "weight": 1, "strategies": space}
            for i in range(agents)
        ],
    }


# (command, file contents, the one refusal line after "cag: ")
_MALFORMED = [
    ("profile", {"choices": 3}, "profile choices must be a list, got 3"),
    ("profile", {"choice": [0]}, "profile: missing field 'choices'"),
    ("maxcut", {"vertices": 2, "edges": 5}, "edges must be a list, got 5"),
    (
        "maxcut",
        {"vertices": 2, "edges": [5]},
        "edges[0] must be a list of 3 items, got 5",
    ),
    ("maxcut", {"vertices": 2}, "graph: missing field 'edges'"),
    (
        "maxcut",
        {"vertices": 2, "edges": [[0, 1]]},
        "edges[0] must be a list of 3 items, got [0, 1]",
    ),
    ("3dm", {"n": 1, "triples": None}, "triples must be a list, got None"),
    (
        "3dm",
        {"n": 1, "triples": [[0, 0]]},
        "triples[0] must be a list of 3 items, got [0, 0]",
    ),
    ("tqbf", {"vars": 3, "clauses": [1]}, "clauses[0] must be a list, got 1"),
    ("tqbf", {"vars": 3, "clauses": ["abc"]}, "clauses[0] must be a list, got 'abc'"),
    ("analyze", _with("strategies", 5), "agent 'a1': strategies must be a list, got 5"),
    ("analyze", _with("strategies", [[["q"]]]), "agent 'a1': unknown node id ['q']"),
    (
        "analyze",
        _with("strategies", ["q", ["q"]]),
        "agent 'a1': strategy must be a list, got 'q'",
    ),
    ("analyze", _with("agents", None), "agents must be a list, got None"),
    ("analyze", _with("nodes", {"a": 1}), "nodes must be a list, got {'a': 1}"),
    ("spe", _with("order", 3), "order must be a list, got 3"),
    ("spe", _with("order", [["a1"], "a2"]), "order references unknown agent id ['a1']"),
    ("analyze", "[" * 100_000 + "]" * 100_000, "JSON nested too deeply"),
] + [
    (command, data, message)
    for command in ("analyze", "validate")
    for data, message in [
        (
            _with("nodes", [{"id": 5, "value": 1}]),
            "nodes[0]: id must be a string, got 5",
        ),
        (
            {**_with("nodes", [{"id": None, "value": 1}]),
             "agents": [{"id": "a1", "weight": 1, "strategies": [["None"]]}]},
            "nodes[0]: id must be a string, got None",
        ),
        (
            {**_UNIT_INSTANCE,
             "agents": [{"id": True, "weight": 1, "strategies": [["q"]]}]},
            "agents[0]: id must be a string, got True",
        ),
    ]
]


@pytest.mark.parametrize(
    "command, text, message", _MALFORMED, ids=[m for _, _, m in _MALFORMED]
)
def test_cli_refuses_malformed_file_with_one_line(
    example1_file, tmp_path, capsys, command, text, message
):
    path = tmp_path / "input.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    argv = {
        "profile": ["eval", str(example1_file), "--profile", str(path)],
        "maxcut": ["gadget", "maxcut", str(path)],
        "3dm": ["gadget", "3dm", str(path)],
        "tqbf": ["gadget", "tqbf", str(path)],
    }.get(command, [command, str(path)])
    assert run_cli(argv) == 2
    assert _single_error_line(capsys) == f"cag: {message}"


@pytest.mark.parametrize(
    "argv, data",
    [
        (["gen", "--kind", "symmetric", "--seed", "1", "--nodes", "100000000"], None),
        (["gen", "--kind", "symmetric", "--seed", "1", "--agents", "100000000"], None),
        (["gadget", "3dm", "FILE"], {"n": 5 * 10**7, "triples": [[0, 0, 0]]}),
        (["gadget", "tqbf", "FILE"], {"vars": 99_999_999, "clauses": [[1, 2, 3]]}),
        (["gadget", "poa-lb", "--n", "100000000", "--m", "1"], None),
        (["gadget", "spoa-family", "--m", "100000000"], None),
        (["gadget", "maxcut", "FILE"], {"vertices": 2**64, "edges": [[0, 1, 1]]}),
        (["gadget", "maxcut", "FILE"], {"vertices": 2, "edges": [[0, 1, 2**300]]}),
        (["gadget", "split", "FILE"], _with("nodes", [{"id": "q", "value": 2**64}])),
        # under the count bound, but past the bytes the build and its text take
        (["gen", "--kind", "symmetric", "--seed", "1", "--nodes", "3000000",
          "--agents", "1", "--strategies", "1"], None),
        (["gen", "--kind", "symmetric", "--seed", "1", "--nodes", "1",
          "--agents", "3000000", "--strategies", "1"], None),
        (["gadget", "poa-lb", "--n", "1500000", "--m", "1"], None),
        (["gadget", "tqbf", "FILE"], {"vars": 1_500_001, "clauses": [[1, 2, 3]]}),
        # small files whose every agent writes the whole shared list
        (["gadget", "unionize", "FILE"], _crowd(110, 110, 8)),
        (["gadget", "symmetrize", "FILE"], _crowd(3000, 1, 1)),
        # a 45-byte graph whose one edge needs 997,460 agents
        (["gadget", "maxcut", "FILE"], {"vertices": 2, "edges": [[0, 1, 2057625]]}),
        # 600,000 unit edges on 2,000 vertices (9.5 MB, made by the test)
        (["gadget", "maxcut", "FILE"], _unit_cycles),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_cli_refuses_oversized_builds_before_allocating(tmp_path, argv, data):
    """Each size is refused from a closed-form bound; the child process runs
    under an 800 MB address-space limit, so a builder that allocated first
    would fail with a MemoryError traceback instead.  A callable `data`
    makes its file when the test runs."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data() if callable(data) else data))
    limit = 800 * 2**20
    done = subprocess.run(
        [sys.executable, "-m", "cag", *(str(path) if a == "FILE" else a for a in argv)],
        env=src_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 1, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cag: search-space-too-large: ")


def test_cli_verify_refuses_unknown_criterion(capsys):
    argv = ["verify", "--only", "payoff-matrix-with-dummy", "no-such-criterion"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion ran
    assert captured.err == "cag: unknown criterion 'no-such-criterion'\n"


# ---------------------------------------------------------------------------
# fuzzed input files

_FUZZ_BASES = {
    "instance": io.dumps_instance(build_named_instance("example1-minus-dummy")),
    "unit": io.dumps_instance(build_named_instance("poa-lb", n=3, m=2)),
    "game": io.dumps_game(build_named_instance("spoa-two-agent")),
    "profile": io.dumps_profile(StrategyProfile((0, 1))),
    "graph": io.dumps_graph(CutGraph(3, ((0, 1, 2), (1, 2, 1)))),
    "3dm": io.dumps_tdm(ThreeDMInstance(2, ((0, 1, 0), (1, 0, 1), (0, 0, 1)))),
    "tqbf": io.dumps_tqbf(TqbfFormula(3, ((1, -2, 3), (-1, 2, -3)))),
}

# every subcommand that reads a file, with the base file it reads as FILE;
# INST is the unmutated example instance
_FUZZ_COMMANDS = [
    ("instance", ["validate", "FILE"]),
    ("instance", ["eval", "FILE", "--profile", "0,1"]),
    ("instance", ["potential", "FILE", "--profile", "1,0", "--kind", "two-agent"]),
    ("instance", ["dynamics", "FILE", "--mode", "alpha", "--max-steps", "20"]),
    ("instance", ["analyze", "FILE"]),
    ("instance", ["gadget", "symmetrize", "FILE", "--split"]),
    ("unit", ["potential", "FILE", "--profile", "0,1", "--kind", "log"]),
    ("unit", ["dynamics", "FILE", "--eps", "1/10", "--max-steps", "20"]),
    ("unit", ["gadget", "unionize", "FILE"]),
    ("unit", ["gadget", "split", "FILE"]),
    ("game", ["spe", "FILE", "--mode", "exhaustive"]),
    ("game", ["spoa", "FILE"]),
    ("profile", ["eval", "INST", "--profile", "FILE"]),
    ("profile", ["potential", "INST", "--profile", "FILE"]),
    ("profile", ["dynamics", "INST", "--start", "FILE", "--max-steps", "20"]),
    ("graph", ["gadget", "maxcut", "FILE"]),
    ("3dm", ["gadget", "3dm", "FILE", "--symmetrize"]),
    ("tqbf", ["gadget", "tqbf", "FILE", "--pad"]),
]

# a wrong JSON type, a negative, huge or out-of-range int, an empty list
_REPLACEMENTS = [None, True, 1.5, "q1", {}, [], [[]], -1, 0, 3, 2**64]


def _slots(node):
    """Every (container, key) pair in a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def _mutated(draw, text: str) -> bytes:
    """`text` with one to three mutations: a dropped key or item, a replaced
    value, a duplicated item (a duplicate id in an id list), an int made
    `_LARGEST`, or a byte that is not valid UTF-8."""
    if draw(st.integers(0, 9)) == 0:
        raw = text.encode()
        k = draw(st.integers(0, len(raw)))
        return raw[:k] + b"\xff" + raw[k:]
    data = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["drop", "replace", "duplicate", "huge"]))
        slots = list(_slots(data))
        if action == "huge":
            slots = [(parent, key) for parent, key in slots if type(parent[key]) is int]
        if not slots:
            continue
        parent, key = draw(st.sampled_from(slots))
        if action == "drop":
            del parent[key]
        elif action == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
        elif action == "huge":
            parent[key] = _LARGEST
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return json.dumps(data).encode()


def _total(raw: bytes, items: str, field: str) -> int:
    """The sum of the int `field`s of the `items` list (node values or agent
    weights) in an instance or game file; 0 if it is not JSON or holds no
    such list."""
    try:
        data = json.loads(raw)
    except ValueError:
        return 0
    entries = data.get(items) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        return 0
    numbers = [e.get(field) for e in entries if isinstance(e, dict)]
    return sum(v for v in numbers if type(v) is int)


def _parses_back(command: str, out: str) -> None:
    if command == "analyze":
        io.loads_report(out)
    elif command == "spe":
        io.loads_spe_result(out)
    elif command == "dynamics":
        io.loads_trace(out)
    elif command == "gadget":
        data = json.loads(out)
        io.loads_game(json.dumps(data.get("instance", data)))
    else:
        json.loads(out)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_cli_fuzzed_files_exit_cleanly(tmp_path_factory, data):
    """No exception escapes `run_cli` on a mutated input file: it exits 0
    with output that parses back, or 1 or 2 with one `cag: ` line."""
    kind, argv = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    directory = tmp_path_factory.mktemp("fuzz", numbered=True)
    inst, path = directory / "inst.json", directory / "input.json"
    inst.write_text(_FUZZ_BASES["instance"])
    raw = data.draw(_mutated(_FUZZ_BASES[kind]))
    path.write_bytes(raw)
    argv = [{"FILE": str(path), "INST": str(inst)}.get(a, a) for a in argv]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_cli(argv)
    out, err = out.getvalue(), err.getvalue()
    lines = err.splitlines()
    if kind in ("instance", "unit", "game") and max(
        _total(raw, "nodes", "value"), _total(raw, "agents", "weight")
    ) > _LARGEST:
        assert rc == 2  # refused up front, by the loader or the validation
    if rc == 0:
        assert not err
        _parses_back(argv[0], out)
    elif argv[0] == "validate" and out:  # the report, its errors on stderr
        assert rc == 2 and lines == ["; ".join(json.loads(out)["errors"])]
    elif argv[0] == "dynamics" and out:  # stopped at the step limit
        assert rc == 1 and not err
        assert io.loads_trace(out).termination == "step-limit"
    else:
        assert rc in (1, 2) and len(lines) == 1 and lines[0].startswith("cag: ")
