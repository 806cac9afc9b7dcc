"""Graded polynomial identities and central polynomials of matrix algebras.

The package decides whether a graded polynomial is an identity or a central
polynomial of the n-by-n matrix algebra under an elementary grading, using an
exact generic-matrix model over integer polynomial rings.  On top of the
decision procedure it implements the constructive machinery: rewriting of
monomials modulo the commutation rules with replayable proofs, enumeration of
monomial identities, and construction plus verification of the known
identity and central-polynomial generator families.
"""

from .grading import (
    CyclicGroup,
    ElementaryGrading,
    GradingError,
    GradingStructure,
    IntegerGroup,
    MAX_CAYLEY_FILE_BYTES,
    MAX_COMPLETE_SEQUENCES,
    MAX_GROUP_ORDER,
    MAX_MATRIX_SIZE,
    MU_ZERO,
    MatrixUnitSemigroup,
    TableGroup,
    complete_sequence_unit_witness,
    enumerate_complete_sequences,
    is_complete_sequence,
    parse_grading_spec,
)
from .freealg import (
    MAX_INPUT_ROW_STEPS,
    MAX_TERM_DEGREE,
    Monomial,
    MonomialClass,
    ONE,
    Polynomial,
    PolynomialSyntaxError,
    TwinBlocks,
    Var,
    apply_substitution,
    classify,
    format_monomial,
    format_polynomial,
    parse_monomial,
    parse_polynomial,
    twin_block_threshold,
)
from .genericmodel import (
    PolyMatrix,
    SparsePoly,
    centrality_witness,
    entry_match,
    evaluate,
    identity_witness,
    is_central,
    is_identity,
    monomial_product,
)
from .rewrite import (
    CongruenceProof,
    RuleError,
    Step,
    apply_rule,
    find_congruence,
    proof_from_json,
    proof_to_json,
    replay,
)
from .bases import (
    BasisInstances,
    GeneratorInstance,
    MAX_SCAN_STEPS,
    basis_report,
    build_basis,
    cyclic_symmetrization,
    enumerate_monomial_identities,
    verify_instance,
)

__version__ = "0.1.0"
