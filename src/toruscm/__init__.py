"""Exact computation with CM abelian varieties, generalized Kahler
structures, mirror pairs, and the chiral sublattice controlling rationality
of toroidal lattice vertex algebras."""

from .numfield import (
    Embedding,
    FieldElement,
    NumberField,
    exact_sign,
    make_field,
    rationals,
    trace_q,
)
from .exactla import (
    FieldMatrix,
    SnfResult,
    hnf,
    positive_definite,
    saturate_integer_solutions,
    snf,
)
from .torus import (
    ComplexTorusData,
    GksPair,
    KahlerData,
    charge_isometry_check,
    ij_rational,
    induce_gks,
)
from .cm import (
    CmInput,
    EndAlgebra,
    cm_certificate,
    cm_torus,
    endomorphism_algebra,
    eta_checks,
    find_beta,
    rational_kahler_search,
    simplicity_check,
)
from .mirror import (
    MirrorMap,
    MirrorPair,
    construct_mirror,
    isogeny_from_mirror,
    psi_maps,
    section4_demo,
    verify_isogeny_certificate,
    verify_mirror,
)
from .valattice import (
    ChiralReport,
    PairingLattice,
    build_pairing_lattice,
    chiral_sublattice,
    module_count,
    supercommutator,
    va_rational,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
