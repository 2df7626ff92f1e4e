"""Bounded-plan-length tooling for SAS+ planning instances.

Solvers are routed by syntactic restriction class: a search-tree solver for
post-unique instances, a Steiner-tree pipeline for no-precondition
two-effect instances, model-checking translations for unary and general
instances, and a breadth-first oracle that everything is cross-validated
against.  The ground truth the routes are tested against lives in
planlab.reference, which this package does not import.
"""

from .core import (Action, ContractError, EffectPolarity, Instance,
                   PartialState, Plan, PlanLabError, RestrictionProfile,
                   StructuralError, TotalState, ValidationReport, classify,
                   delta_vars, diff_set, effect_polarity, lint_instance,
                   restrict, validate_plan)
from .io import ParseError, parse_instance, parse_plan, serialize_instance
from .oracle import BudgetExhausted, shortest_plan

__version__ = "0.1.0"

__all__ = [
    "Action", "BudgetExhausted", "ContractError", "EffectPolarity",
    "Instance", "ParseError", "PartialState", "Plan", "PlanLabError",
    "RestrictionProfile", "StructuralError", "TotalState",
    "ValidationReport", "classify", "delta_vars", "diff_set",
    "effect_polarity", "lint_instance", "parse_instance", "parse_plan",
    "restrict", "serialize_instance", "shortest_plan", "validate_plan",
]
