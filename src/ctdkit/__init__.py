"""Combinatorial test design over symbolically represented test spaces.

Build a model of attributes, values, and constraints; the legal space is
held as reduced ordered binary decision diagrams, one per constraint
component, so counting, projection and enumeration stay exact.  Generate t-way interaction requirements,
produce a near-minimal covering plan with a greedy heuristic, measure
coverage of existing plans, augment plans across budget-limited test
cycles, and concretize subdomain values into executable inputs.
"""

from .bdd import BDD, Function
from .coverage import (
    CoverageReport,
    Residual,
    coverage_of,
    feasible_count,
    filter_feasible,
    generate_requirements,
    lower_bound,
)
from .cycles import AugmentResult, CycleRecord, CycleState, augment_plan, run_cycles
from .errors import (
    BddError,
    ConstraintError,
    ConstraintSyntaxError,
    CtdError,
    InfeasibleModelError,
    LexicalError,
    ModelFormatError,
    PlanFormatError,
    UnknownAttributeError,
    UnknownValueError,
)
from .generator import generate_plan
from .instantiate import (
    ConcretePlan,
    FreeAttribute,
    abstract_candidates,
    instantiate,
    randomize_free,
    recover_abstract,
)
from .model import (
    Attribute,
    Encoding,
    Model,
    ModelSpace,
    ValidationReport,
    Value,
    build_encoding,
    load_model,
    parse_model,
    validate_model,
)
from .plans import TestPlan, read_plan_csv, read_results_csv, row_hash

__version__ = "0.1.0"

__all__ = [
    "BDD", "Function",
    "Model", "Attribute", "Value", "Encoding", "ModelSpace",
    "ValidationReport", "build_encoding", "load_model", "parse_model",
    "validate_model",
    "Residual", "CoverageReport",
    "generate_requirements", "filter_feasible", "feasible_count", "coverage_of",
    "TestPlan", "read_plan_csv", "read_results_csv", "row_hash",
    "generate_plan", "lower_bound",
    "AugmentResult", "CycleRecord", "CycleState", "augment_plan", "run_cycles",
    "ConcretePlan", "FreeAttribute", "instantiate", "randomize_free",
    "abstract_candidates", "recover_abstract",
    "CtdError", "BddError", "ModelFormatError", "PlanFormatError",
    "InfeasibleModelError", "ConstraintError", "LexicalError",
    "ConstraintSyntaxError", "UnknownAttributeError", "UnknownValueError",
    "__version__",
]
