"""Model checking for multi-agent epistemic probability logic with
ambiguous interpretations.

The package evaluates formulas under five truth relations over finite
structures, validates the structural assumptions those relations rely on,
derives priors from cell measures, applies the constructive model
transformations that eliminate ambiguity, and compiles ambiguous formulas
into an unambiguous indexed language.
"""

from .errors import (
    AlreadyIndexed,
    AmbilogicError,
    ClaimSpecMismatch,
    CoreInvalid,
    FormulaSyntaxError,
    FormulaTooDeep,
    MissingSignals,
    ModelFormatError,
    ModePrereqMissing,
    NotCommonInterpretation,
    NotMeasurable,
    UndefinedConditional,
    UnknownAgent,
    UnknownProp,
    UnknownState,
)
from .formula import (
    And,
    B,
    CB,
    EB,
    FalseF,
    Iff,
    Implies,
    IndexedProp,
    Not,
    Or,
    ProbGe,
    ProbTerm,
    Prop,
    TrueF,
    agents_in,
    expand,
    is_propositional,
    parse,
    print_formula,
    propositions,
    subformulas,
)
from .modes import EvalMode
from .reporting import Report, Violation
from .structure import (
    CellBeliefs,
    Structure,
    dump_structure,
    dumps_structure,
    generate_priors,
    is_common_interpretation,
    load_structure,
    loads_structure,
    reachable,
    singleton_cell,
    structure_from_dict,
    structure_to_dict,
    validate_core,
    validate_signals,
)
from .semantics import Evaluator, valid_in_model
from .transforms import (
    TransformClaim,
    attach_cell_signals,
    disjoint_copies,
    fix_interpretation,
    label_partitions,
    verify_transform_equivalence,
)
from .translation import (
    indexed_prop_name,
    lift_to_indexed,
    translate_in,
    translate_in_naive,
    translate_ou,
    verify_theorem2,
)

__version__ = "0.1.0"
