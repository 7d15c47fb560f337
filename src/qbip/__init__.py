"""Exact q-analogue bipartite distance matrices of trees with perfect matchings.

Builders for the structured matrices and vectors, their closed-form inverses,
an independent exact linear-algebra oracle, and a machine-verification suite
for the inverse and determinant identities.  All arithmetic is exact: integer
polynomials, their fraction field, and rationals.
"""

from .polyalg import (
    NotDivisible,
    Poly,
    PoleAtPoint,
    Q,
    RatFun,
    divexact,
    poly_gcd,
    qdeg,
    qint,
    qpow,
)
from .treecore import (
    MatchedTree,
    NotATree,
    NotNonsingular,
    Tree,
    attach_p2,
    canonical_code,
    detach_p2,
    diff,
    enumerate_nonsingular,
    perfect_matching,
    random_nonsingular,
    standard_labeling,
)
from .qmatrices import (
    bdq_det,
    bdq_recursive,
    build_E,
    build_full_eD,
    build_full_qD,
    build_qB,
    build_qL,
    eval_matrix,
    inverse_B_q1,
    inverse_E_formula,
    inverse_qB_formula,
    qsigned_degree_vector,
    qtau,
)
from .exactla import (
    DimensionMismatch,
    IndexKindMismatch,
    Matrix,
    SingularMatrix,
    Vector,
    charpoly_exact,
    conjecture_evidence,
    count_real_roots,
    det_bareiss,
    inverse_gauss,
    mat_mul,
)
from .verify import run_enumerated, run_random, run_suite

__version__ = "0.1.0"
