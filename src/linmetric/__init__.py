"""Linear lambda calculus over the reals with four program metrics.

The package parses, typechecks, evaluates and normalizes terms of a
linear calculus with real-number symbols, and computes sound enclosures
of four distances between typed terms: the observational lower bound,
the denotational and interactive (wire-strategy) distances, and the
equational upper bound, which always satisfy obs ≤ den ≤ int ≤ equ.
"""

from .core import (
    Env,
    EMPTY_ENV,
    DistInterval,
    SymbolRegistry,
    default_registry,
    env_of,
    parse_env,
    parse_term,
    parse_type,
    print_term,
    print_type,
    typecheck,
    check_context,
)
from .dynamics import beta_normalize, eq_canonical, eq_decide, evaluate, substitute
from .semden import ProbeBattery, den_distance, ground_l1, interp_den
from .semint import decompose, export_diagram, int_distance, interp_int, trace, wire_signature
from .metrics import (
    ObsBudget,
    EngineConfig,
    admissibility_suite,
    check_qderivation,
    equ_upper_bound,
    obs_lower_bound,
    ordering_report,
)

__all__ = [
    "Env",
    "EMPTY_ENV",
    "DistInterval",
    "SymbolRegistry",
    "default_registry",
    "env_of",
    "parse_env",
    "parse_term",
    "parse_type",
    "print_term",
    "print_type",
    "typecheck",
    "check_context",
    "beta_normalize",
    "eq_canonical",
    "eq_decide",
    "evaluate",
    "substitute",
    "ProbeBattery",
    "den_distance",
    "ground_l1",
    "interp_den",
    "decompose",
    "export_diagram",
    "int_distance",
    "interp_int",
    "trace",
    "wire_signature",
    "ObsBudget",
    "EngineConfig",
    "admissibility_suite",
    "check_qderivation",
    "equ_upper_bound",
    "obs_lower_bound",
    "ordering_report",
]

__version__ = "0.1.0"
