"""Best-response computation and improvement dynamics.

Two modes are provided:

* ``epsilon``: textbook best-response dynamics for unit-weight instances.
  While some agent can multiply its utility by more than ``1 + epsilon``,
  the globally most beneficial deviation (over all agents and strategies)
  is applied.  Every step raises the harmonic potential by the step's gain,
  which exceeds ``epsilon / m``, so the run converges within
  ``ceil(total_value * H(m) * m / epsilon)`` steps.

* ``alpha``: for weighted instances.  While some agent can multiply its
  utility by more than ``alpha``, the first such deviation in lexicographic
  (agent, strategy) order is applied.  With
  ``alpha >= ln(1 + w_max) + 1`` the logarithmic potential strictly
  increases per step, so the run terminates at an alpha-approximate
  equilibrium.

All improvement conditions are checked on exact rationals.  Identical
inputs produce identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .engine import Evaluator
from .model import Instance, StrategyProfile, check_profile

__all__ = [
    "DynamicsConfig",
    "DynamicsStep",
    "DynamicsTrace",
    "best_response",
    "epsilon_step_bound",
    "min_alpha",
    "run_dynamics",
]


def min_alpha(inst: Instance) -> float:
    """Smallest improvement factor with guaranteed termination,
    ``ln(1 + w_max) + 1``."""
    return math.log(1 + max(inst.weights)) + 1.0


@dataclass(frozen=True)
class DynamicsConfig:
    mode: str  # "epsilon" | "alpha"
    epsilon: Fraction = Fraction(0)
    alpha: float = 1.0
    max_steps: int = 100_000
    allow_any_alpha: bool = False
    tie_break: str = "lexicographic"


@dataclass(frozen=True)
class DynamicsStep:
    agent: int
    old: int
    new: int
    gain: Fraction  # utility gain of the deviating agent, always > 0


@dataclass(frozen=True)
class DynamicsTrace:
    start: StrategyProfile
    steps: tuple[DynamicsStep, ...]
    final: StrategyProfile
    termination: str  # "converged" | "step-limit"


def best_response(
    inst: Instance, profile: StrategyProfile, agent: int
) -> tuple[int, Fraction]:
    """The deviation maximizing the agent's utility given the others.

    Returns ``(strategy index, gain)``.  If no strategy strictly beats the
    current one, returns the current index with gain 0; among strictly
    better strategies, ties break to the smallest index.
    """
    check_profile(inst, profile)
    if not 0 <= agent < inst.num_agents:
        raise IndexError(f"agent index {agent} out of range")
    ev = Evaluator(inst)
    choices = profile.choices
    loads = ev.loads(choices)
    current = ev.utility_scaled(choices, loads, agent)
    choice, best = ev.best_deviation(choices, loads, agent)
    return choice, ev.frac(best - current)


def epsilon_step_bound(inst: Instance, epsilon: Fraction) -> int:
    """Convergence bound for epsilon mode:
    ``ceil(total_value * H(m) * m / epsilon)``."""
    if epsilon <= 0:
        raise ValueError("step bound requires epsilon > 0")
    m = inst.num_agents
    harmonic = sum(Fraction(1, k) for k in range(1, m + 1))
    bound = Fraction(sum(inst.values)) * harmonic * m / epsilon
    return -(-bound.numerator // bound.denominator)


def _check_config(inst: Instance, cfg: DynamicsConfig) -> None:
    if cfg.mode not in ("epsilon", "alpha"):
        raise ValueError(f"invalid dynamics mode {cfg.mode!r}")
    if cfg.tie_break != "lexicographic":
        raise ValueError(f"unsupported tie-break rule {cfg.tie_break!r}")
    if cfg.max_steps < 1:
        raise ValueError("max_steps must be positive")
    if cfg.mode == "epsilon":
        if cfg.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if any(w != 1 for w in inst.weights):
            raise ValueError(
                "weighted-agents-unsupported: epsilon mode requires unit "
                "agent weights"
            )
    else:
        # only a float can be non-finite; an exact alpha may exceed float range
        if isinstance(cfg.alpha, float) and not math.isfinite(cfg.alpha):
            raise ValueError(f"alpha must be finite, got {cfg.alpha}")
        if cfg.alpha < 1:
            raise ValueError("alpha must be >= 1")
        # Tiny tolerance so callers may pass the float threshold itself.
        if not cfg.allow_any_alpha and cfg.alpha < min_alpha(inst) - 1e-12:
            raise ValueError(
                f"alpha {cfg.alpha} below ln(1 + w_max) + 1 = "
                f"{min_alpha(inst)}; termination is not guaranteed "
                "(set allow_any_alpha to override)"
            )


def run_dynamics(
    inst: Instance, start: StrategyProfile, cfg: DynamicsConfig
) -> DynamicsTrace:
    """Run improvement dynamics from `start` until no qualifying deviation
    remains or the step limit is hit."""
    check_profile(inst, start)
    _check_config(inst, cfg)
    ev = Evaluator(inst)
    choices = list(start.choices)
    loads = ev.loads(choices)
    steps: list[DynamicsStep] = []

    if cfg.mode == "epsilon":
        # improvement test: dev * q > cur * (q + p)  <=>  dev > (1+eps) cur
        p, q = cfg.epsilon.numerator, cfg.epsilon.denominator
        select = _max_gain_step
        args = (p, q)
    else:
        alpha = Fraction(cfg.alpha)
        select = Evaluator.first_improvement
        args = (alpha.numerator, alpha.denominator)

    termination = "step-limit"
    for _ in range(cfg.max_steps):
        step = select(ev, choices, loads, *args)
        if step is None:
            termination = "converged"
            break
        agent, new_choice, gain = step
        old_choice = choices[agent]
        steps.append(DynamicsStep(agent, old_choice, new_choice, ev.frac(gain)))
        w = ev.weights[agent]
        for j in ev.spaces[agent][old_choice]:
            loads[j] -= w
        choices[agent] = new_choice
        for j in ev.spaces[agent][new_choice]:
            loads[j] += w
    else:
        if select(ev, choices, loads, *args) is None:
            termination = "converged"

    return DynamicsTrace(
        start=start,
        steps=tuple(steps),
        final=StrategyProfile(tuple(choices)),
        termination=termination,
    )


def _max_gain_step(ev: Evaluator, choices, loads, p: int, q: int):
    """Globally maximal-gain deviation, or None once the profile is a
    (1 + p/q)-approximate equilibrium.  Ties break on (agent, strategy)."""
    best_gain = 0
    best = None
    improvable = False
    for i in range(ev.num_agents):
        current = ev.utility_scaled(choices, loads, i)
        for alt in range(len(ev.spaces[i])):
            if alt == choices[i]:
                continue
            dev = ev.deviation_scaled(choices, loads, i, alt)
            if dev * q > current * (q + p):
                improvable = True
            gain = dev - current
            if gain > best_gain:
                best_gain, best = gain, (i, alt, gain)
    if not improvable:
        return None
    return best

