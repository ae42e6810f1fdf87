"""Exact computational algebra for skew matrices over symplectic spaces.

Everything computes over one of three exact coefficient fields (the
rationals, a prime field, or a rational function field over one), so all
equalities asserted anywhere in the library are exact, never numerical.
"""

from .errors import SkewplusError
from .fields import Field, Scalar, parse_scalar
from .matrices import Matrix, PermutationMap
from .pfaffian import (
    SkewMatrix,
    SkewPlusMatrix,
    is_skew_plus,
    pf_eliminate,
    pf_recursive,
)
from .symplectic import (
    SpMatrix,
    Subspace,
    SymplecticSpace,
    gram,
    pairing,
    psi_matrix,
    witt_extend,
)
from .unimod import NonDegSeq, good_position_sample, is_nondeg_unimodular
from .sections import section_V, section_v_det1
from .chains import FormalSum, GroupRingElt, build_sm, diff_seq, diff_skew
from .gamma import gamma_map, gamma_oracle_c, check_certificate

__all__ = [
    "SkewplusError",
    "Field", "Scalar", "parse_scalar",
    "Matrix", "PermutationMap",
    "SkewMatrix", "SkewPlusMatrix", "is_skew_plus",
    "pf_eliminate", "pf_recursive",
    "SpMatrix", "Subspace", "SymplecticSpace",
    "gram", "pairing", "psi_matrix", "witt_extend",
    "NonDegSeq", "good_position_sample", "is_nondeg_unimodular",
    "section_V", "section_v_det1",
    "FormalSum", "GroupRingElt", "build_sm", "diff_seq", "diff_skew",
    "gamma_map", "gamma_oracle_c", "check_certificate",
]

__version__ = "0.1.0"
