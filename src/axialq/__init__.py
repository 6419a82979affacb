"""Exact computer algebra for primitive axial algebras of Jordan type 1/2."""

from .algcore import (
    Algebra,
    Element,
    Word,
    find_unit,
    ideal_closure,
    jordan_identity_check,
    make_algebra,
    multiply,
    restrict_to_subspace,
    subalgebra_closure,
)
from .axial import (
    AxisReport,
    EigDecomposition,
    FusionReport,
    GramForm,
    check_axis,
    check_fusion,
    eigendecompose,
    frobenius_projection,
    frobenius_solve,
    fusion_verdicts,
    peirce_components,
    primitive_decomposition,
    quasi_definite_basis_check,
    radical,
)
from .exactla import Fraction, Matrix, SubspaceBasis, kernel_basis, rref, solve
from .jordanhalf import (
    CapacityResult,
    PairDecomposition,
    SpecialChain,
    a0_axis_basis,
    build_unit,
    capacity_decomposition,
    pair_decompose,
    pair_identity_suite,
    special_chain,
    triple_form_identity,
    word_to_axis,
    x_of,
)

__version__ = "0.1.0"
