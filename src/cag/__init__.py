"""Exact-arithmetic toolkit for customer attraction games.

Agents pick topics (node subsets); each attracted node's value is split
among the attracting agents in proportion to their weights.  The package
evaluates instances, runs equilibrium dynamics, enumerates and appraises
pure Nash and subgame-perfect equilibria, and builds verified
hardness-reduction gadgets.  All equilibrium arithmetic is exact.
"""

from .dynamics import (
    DynamicsConfig,
    DynamicsStep,
    DynamicsTrace,
    best_response,
    epsilon_step_bound,
    min_alpha,
    run_dynamics,
)
from .engine import Evaluator
from .equilibria import (
    EquilibriumReport,
    analyze,
    is_approx_pne,
    optimal_social_welfare,
    pne_exists,
)
from .gadgets import (
    CutGraph,
    EdgeGadget,
    FractionDecomposition,
    ReductionOutput,
    ThreeDMInstance,
    TqbfFormula,
    cut_from_profile,
    cutweight,
    decompose_fraction,
    edge_gadget_terms,
    lift_profile,
    maxcut_to_cag,
    oracle_local_maxcut,
    oracle_perfect_3dm,
    oracle_tqbf,
    pad_tqbf,
    pullback_profile,
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
    Agent,
    BudgetError,
    Instance,
    Node,
    StrategyProfile,
    SymmetryClass,
    ValidationReport,
    classify_symmetry,
    load,
    social_welfare,
    utility,
    validate_instance,
)
from .potentials import (
    harmonic_numbers,
    log_potential,
    psi,
    rosenthal_potential,
    two_agent_potential,
)
from .sequential import (
    SequentialGame,
    SpeOutcome,
    SpeResult,
    spe_decision,
    spe_solve,
    spoa,
)

__version__ = "0.1.0"
