"""Command-line interface.

One binary exposes every operation with stable file formats: instances,
profiles, and games are JSON documents; reports serialize rationals as
"p/q" strings so outputs are byte-identical across runs.  Exit codes:
0 success, 1 domain errors (budget exceeded, a dynamics step limit, failed
verification), 2 input errors (one line naming the bad flag, file or
field).  A game without a pure equilibrium is not an error: `analyze`
reports it.  Any other exception is a bug and surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import io
from .acceptance import CRITERIA, run_all
from .dynamics import DynamicsConfig, min_alpha, run_dynamics
from .equilibria import analyze
from .gadgets import (
    maxcut_to_cag,
    pad_tqbf,
    split_unit_values,
    symmetrize_weighted,
    tdm_to_cag,
    tqbf_to_cag,
    unionize_strategies,
)
from .generators import GENERATOR_KINDS, gen_random
from .instances import NAMED_INSTANCES, build_named_instance
from .model import (
    DEFAULT_BUDGET,
    BudgetError,
    StrategyProfile,
    _all_loads,
    _utility_at,
    check_profile,
    classify_symmetry,
    social_welfare,
    validate_instance,
)
from .potentials import log_potential, rosenthal_potential, two_agent_potential
from .sequential import SequentialGame, spe_solve, spoa

__all__ = ["main", "run_cli"]


_DECIMAL = re.compile(r"[0-9.eE+-]+")


def _budget(flag: str | None) -> int:
    """--budget if given, else CAG_BUDGET if set, else the default; each a
    whole number >= 1 in ASCII decimal text, such as "5000" or "1e7",
    parsed exactly."""
    env = os.environ.get("CAG_BUDGET")
    if flag is None and not env:
        return DEFAULT_BUDGET
    text, source = (flag, "") if flag is not None else (env, "CAG_BUDGET: ")
    try:
        # ASCII decimal text only: float() and Fraction() would also take
        # underscores, spaces and non-ASCII digits.  float() first, so that
        # an exponent like 1e-999999999 is refused before Fraction builds a
        # power of ten that large
        ok = _DECIMAL.fullmatch(text) and 1 <= float(text) < math.inf
        value = Fraction(text) if ok else None
    except ValueError:
        value = None
    if value is None or value.denominator != 1:
        raise ValueError(
            f"{source}invalid budget {text!r}: expected a whole number >= 1"
        )
    return int(value)


# flags read as text and converted by `_int_flags` after parsing, so that a
# malformed value is refused in one line, not with argparse's usage block
_INT_FLAGS = (
    "--seed", "--nodes", "--agents", "--strategies", "--max-strategy-size",
    "--max-weight", "--max-value", "--n", "--m", "--max-steps", "--jobs",
)


def _int_flags(args) -> None:
    """Convert each of `_INT_FLAGS` given as text through the number text
    of `io` (ASCII digits, an optional leading "-"); anything else, such
    as "1_0", " 2", "+1" or a non-ASCII digit, is a ValueError naming the
    flag."""
    for flag in _INT_FLAGS:
        name = flag[2:].replace("-", "_")
        text = getattr(args, name, None)
        if not isinstance(text, str):
            continue
        match = io._NUMBER.fullmatch(text)
        if match is None or match[2] is not None:
            raise ValueError(f"{flag}: malformed integer {text!r}")
        setattr(args, name, io._to_int(match[1], f"{flag}:"))


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _checked(inst):
    """The instance itself, or ValueError naming every invariant it breaks."""
    errors = validate_instance(inst).errors
    if errors:
        raise ValueError("; ".join(errors))
    return inst


def _parse_instance(text: str):
    return _checked(io.loads_instance(text))


def _load_instance(path: str):
    return _parse_instance(_read(path))


def _load_game(path: str) -> SequentialGame:
    game = io.loads_game(_read(path))
    _checked(game.instance)
    return game


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _profile_arg(value: str, flag: str) -> StrategyProfile:
    if os.path.exists(value):
        return io.loads_profile(_read(value))
    fields = [io._NUMBER.fullmatch(c) for c in value.split(",")]
    if not all(m and m[2] is None for m in fields):
        raise ValueError(f"malformed profile {value!r}: expected integers like 0,1,0")
    choices = tuple(io._to_int(m[1], f"{flag} choice") for m in fields)
    return StrategyProfile(choices)


def _dump_built(built) -> str:
    if isinstance(built, SequentialGame):
        return io.dumps_game(built)
    return io.dumps_instance(built)


def _reject_stray(args, what: str, flags, takes) -> None:
    """ValueError naming each of `flags` given but not in `takes`; a flag is
    given when its value is not its default, None or False."""
    given = {f: getattr(args, f[2:].replace("-", "_")) for f in flags if f not in takes}
    stray = [f for f, v in given.items() if v is not None and v is not False]
    if stray:
        raise ValueError(f"{what} does not take {', '.join(stray)}")


def _cmd_validate(args) -> int:
    report = validate_instance(io.loads_instance(_read(args.instance)))
    _emit(
        args,
        json.dumps(
            {"errors": list(report.errors), "warnings": list(report.warnings)},
            indent=2,
        )
        + "\n",
    )
    if report.errors:
        print("; ".join(report.errors), file=sys.stderr)
        return 2
    return 0


def _cmd_eval(args) -> int:
    inst = _load_instance(args.instance)
    profile = _profile_arg(args.profile, "--profile")
    check_profile(inst, profile)
    flags = classify_symmetry(inst)
    # one load pass for every agent's utility, not one per agent
    loads = _all_loads(inst, profile)
    data = {
        "loads": loads,
        "utilities": [
            io.rational_str(_utility_at(inst, loads, i, choice))
            for i, choice in enumerate(profile.choices)
        ],
        "social-welfare": social_welfare(inst, profile),
        "symmetry": {
            "asymmetric-strategy-spaces": flags.asymmetric_strategy_spaces,
            "asymmetric-weights": flags.asymmetric_weights,
            "asymmetric-values": flags.asymmetric_values,
        },
    }
    _emit(args, json.dumps(data, indent=2) + "\n")
    return 0


def _cmd_potential(args) -> int:
    inst = _load_instance(args.instance)
    profile = _profile_arg(args.profile, "--profile")
    if args.kind == "rosenthal":
        value = io.rational_str(rosenthal_potential(inst, profile))
    elif args.kind == "two-agent":
        value = io.rational_str(two_agent_potential(inst, profile))
    else:
        value = log_potential(inst, profile)
    _emit(args, json.dumps({"kind": args.kind, "value": value}) + "\n")
    return 0


def _cmd_dynamics(args) -> int:
    alpha_flags = ("--alpha", "--allow-any-alpha")
    takes = alpha_flags if args.mode == "alpha" else ("--eps",)
    _reject_stray(args, f"dynamics --mode {args.mode}", ("--eps",) + alpha_flags, takes)
    inst = _load_instance(args.instance)
    start = (
        _profile_arg(args.start, "--start")
        if args.start
        else StrategyProfile((0,) * inst.num_agents)
    )
    alpha = args.alpha if args.alpha is not None else (
        min_alpha(inst) if args.mode == "alpha" else 1.0
    )
    try:
        epsilon = io.parse_rational("0" if args.eps is None else args.eps)
    except ValueError as exc:
        raise ValueError(f"--eps: {exc}") from None
    cfg = DynamicsConfig(
        mode=args.mode,
        epsilon=epsilon,
        alpha=alpha,
        max_steps=args.max_steps,
        allow_any_alpha=args.allow_any_alpha,
    )
    trace = run_dynamics(inst, start, cfg)
    _emit(args, io.dumps_trace(trace))
    return 0 if trace.termination == "converged" else 1


def _cmd_analyze(args) -> int:
    inst = _load_instance(args.instance)
    report = analyze(inst, budget=args.budget, jobs=args.jobs)
    _emit(args, io.dumps_report(report))
    return 0


def _cmd_spe(args) -> int:
    game = _load_game(args.game)
    result = spe_solve(game, mode=args.mode, budget=args.budget)
    _emit(args, io.dumps_spe_result(result))
    return 0


def _cmd_spoa(args) -> int:
    game = _load_game(args.game)
    value = spoa(game, budget=args.budget)
    _emit(args, json.dumps(io.rational_str(value)) + "\n")
    return 0


# kind -> (input reader, builder, the flags it reads besides --instance-only);
# a named instance reads no input file and rejects parameters it does not take
_GADGETS = {
    "maxcut": (io.loads_graph, lambda g, _: maxcut_to_cag(g), ()),
    "3dm": (io.loads_tdm, lambda t, a: tdm_to_cag(t, a.symmetrize), ("--symmetrize",)),
    "tqbf": (
        io.loads_tqbf, lambda f, a: tqbf_to_cag(pad_tqbf(f) if a.pad else f), ("--pad",)
    ),
    "symmetrize": (
        _parse_instance, lambda i, a: symmetrize_weighted(i, a.split), ("--split",)
    ),
    "unionize": (_parse_instance, lambda i, _: unionize_strategies(i), ()),
    "split": (_parse_instance, lambda i, _: split_unit_values(i), ()),
} | dict.fromkeys(
    NAMED_INSTANCES,
    (None, lambda _, a: build_named_instance(a.kind, n=a.n, m=a.m), ("--n", "--m")),
)


def _cmd_gadget(args) -> int:
    kind = args.kind
    if kind not in _GADGETS:
        raise ValueError(f"unknown gadget kind {kind!r}")
    reader, build, takes = _GADGETS[kind]
    if reader is not None:
        takes += ("--instance-only",)
    flags = ("--n", "--m", "--symmetrize", "--split", "--pad", "--instance-only")
    _reject_stray(args, f"gadget {kind}", flags, takes)
    if reader is None:
        if args.input is not None:
            raise ValueError(f"gadget {kind} takes no input file")
        _emit(args, _dump_built(build(None, args)))
        return 0
    if args.input is None:
        raise ValueError(f"gadget {kind} requires an input file")
    red = build(reader(_read(args.input)), args)
    if args.instance_only:
        _emit(args, _dump_built(red.instance))
    else:
        _emit(args, io.dumps_reduction(red))
    return 0


def _cmd_gen(args) -> int:
    inst = gen_random(
        args.kind,
        args.seed,
        num_nodes=args.nodes,
        num_agents=args.agents,
        num_strategies=args.strategies,
        max_strategy_size=args.max_strategy_size,
        max_weight=args.max_weight,
        max_value=args.max_value,
    )
    _emit(args, io.dumps_instance(inst))
    return 0


def _cmd_verify(args) -> int:
    names = args.only if args.only else None
    return 0 if run_all(names) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cag",
        description="Exact-arithmetic toolkit for customer attraction games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_output(p):
        p.add_argument("-o", "--output", help="write to file instead of stdout")
        return p

    p = with_output(sub.add_parser("validate", help="check instance invariants"))
    p.add_argument("instance")
    p.set_defaults(func=_cmd_validate)

    p = with_output(
        sub.add_parser("eval", help="loads, utilities, welfare of a profile")
    )
    p.add_argument("instance")
    p.add_argument("--profile", required=True, help="profile file or '0,1,0'")
    p.set_defaults(func=_cmd_eval)

    p = with_output(sub.add_parser("potential", help="evaluate a potential"))
    p.add_argument("instance")
    p.add_argument("--profile", required=True)
    p.add_argument(
        "--kind", choices=("rosenthal", "two-agent", "log"), default="rosenthal"
    )
    p.set_defaults(func=_cmd_potential)

    p = with_output(sub.add_parser("dynamics", help="run improvement dynamics"))
    p.add_argument("instance")
    p.add_argument("--mode", choices=("epsilon", "alpha"), default="epsilon")
    p.add_argument("--eps", help="epsilon mode: rational like 1/10 (default 0)")
    p.add_argument("--alpha", type=float, default=None, help="alpha mode")
    p.add_argument("--allow-any-alpha", action="store_true", help="alpha mode")
    p.add_argument("--max-steps", default=100_000)
    p.add_argument("--start", help="profile file or '0,1,0'")
    p.set_defaults(func=_cmd_dynamics)

    p = with_output(sub.add_parser("analyze", help="equilibrium report"))
    p.add_argument("instance")
    p.add_argument("--budget")
    p.add_argument("--jobs", default=1)
    p.set_defaults(func=_cmd_analyze)

    p = with_output(sub.add_parser("spe", help="subgame-perfect outcomes"))
    p.add_argument("game")
    p.add_argument(
        "--mode", choices=("deterministic", "exhaustive"), default="deterministic"
    )
    p.add_argument("--budget")
    p.set_defaults(func=_cmd_spe)

    p = with_output(sub.add_parser("spoa", help="sequential price of anarchy"))
    p.add_argument("game")
    p.add_argument("--budget")
    p.set_defaults(func=_cmd_spoa)

    p = with_output(
        sub.add_parser("gadget", help="build reductions and named instances")
    )
    p.add_argument("kind", help="|".join(_GADGETS))
    p.add_argument("input", nargs="?", help="input file for reductions")
    p.add_argument("--n")
    p.add_argument("--m")
    p.add_argument("--symmetrize", action="store_true", help="3dm: symmetrize output")
    p.add_argument("--split", action="store_true", help="symmetrize: unit-split values")
    p.add_argument("--pad", action="store_true", help="tqbf: pad to a valid shape")
    p.add_argument(
        "--instance-only",
        action="store_true",
        help="emit only the instance, without the mapping",
    )
    p.set_defaults(func=_cmd_gadget)

    p = with_output(sub.add_parser("gen", help="deterministic random instance"))
    p.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--nodes", default=6)
    p.add_argument("--agents", default=3)
    p.add_argument("--strategies", default=3)
    p.add_argument("--max-strategy-size")
    p.add_argument("--max-weight", default=9)
    p.add_argument("--max-value", default=9)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="replay the acceptance suite")
    p.add_argument(
        "--only",
        nargs="*",
        metavar="NAME",
        help="criterion names: " + ", ".join(c.name for c in CRITERIA),
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _int_flags(args)
        if hasattr(args, "budget"):
            args.budget = _budget(args.budget)
        return args.func(args)
    except BudgetError as exc:
        print(f"cag: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"cag: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
