"""Exact-arithmetic toolkit for symmetric-group and general-linear
representation theory around labeled set partitions, Schur functors, and the
stable cohomology calculator built on them."""

from .errors import (
    InvalidArgs,
    NegativeMultiplicity,
    NonIntegralMultiplicity,
    NonPolynomialAction,
    OracleDisagreement,
    SizeBudgetExceeded,
    StableRepError,
)
from .partitions import (
    Partition,
    SkewShape,
    enumerate_partitions,
    hook_lengths,
    schur_gl_dimension,
    specht_dimension,
    transpose,
)
from .characters import (
    BiClassFunction,
    ClassFunction,
    IrredDecomposition,
    cycle_types,
    decompose,
    external_product,
    graded_sym_algebra_dimension,
    induce,
    inner_product,
    irreducible_character,
    kostka,
    lr_coefficient,
    restrict,
    sign_character,
    skew_schur_decompose,
    trivial_character,
)
from .modules import (
    Report,
    gl_decompose,
    schur_apply,
    specht_module,
    split_extension_filtration_check,
    tensor_power_module,
    verify_cauchy,
    verify_schur_weyl,
    young_symmetrizer,
)
from .labeled import (
    GeneralLabeledPartition,
    LabelAlphabet,
    QLabeledPartition,
    build_fw_piece,
    enumerate_general,
    enumerate_pq,
    hom_bicharacter,
    hom_space_dimension_gl,
    splitting_map,
    verify_rw_prop,
    verify_splitting_lemma,
)
from .stable import (
    StableCohomologyResult,
    SymbolicCoefficient,
    dimension_table,
    hom_side_total,
    stable_cohomology,
    step1_dimension_identity,
    theorem_a_induction_check,
    three_way_dimension_agreement,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
