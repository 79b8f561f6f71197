"""Exact-arithmetic toolkit for symmetric-group and general-linear
representation theory around labeled set partitions, Schur functors, and the
stable cohomology calculator built on them.

The exports load lazily (PEP 562): ``import stablerep`` imports no
submodule, and the first use of a name imports only the module defining it,
so a command pays for the modules it runs and no others."""

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": (
        "InvalidArgs",
        "NegativeMultiplicity",
        "NonIntegralMultiplicity",
        "NonPolynomialAction",
        "OracleDisagreement",
        "SizeBudgetExceeded",
        "StableRepError",
    ),
    "partitions": (
        "IrredDecomposition",
        "Partition",
        "enumerate_partitions",
        "hook_lengths",
        "schur_gl_dimension",
        "specht_dimension",
        "transpose",
    ),
    "characters": (
        "ClassFunction",
        "cycle_types",
        "decompose",
        "irreducible_character",
    ),
    "induction": (
        "induce",
        "theorem_a_induction_check",
    ),
    "report": ("Report",),
    "schur": ("kostka",),
    "functors": (
        "graded_sym_algebra_dimension",
        "lr_coefficient",
        "split_extension_filtration_check",
        "step1_dimension_identity",
        "verify_cauchy",
        "verify_schur_weyl",
    ),
    "modules": (
        "gl_decompose",
        "schur_apply",
        "specht_module",
        "young_symmetrizer",
    ),
    "labeled": (
        "GeneralLabeledPartition",
        "enumerate_general",
        "enumerate_pq",
        "hom_bicharacter",
        "hom_space_dimension_gl",
        "verify_rw_prop",
        "verify_splitting_lemma",
    ),
    "stable": (
        "StableCohomologyResult",
        "dimension_table",
        "stable_cohomology",
    ),
}

# Exported name -> defining submodule.  These submodules are exported under
# their own names; cli, cache, counts, functors, induction, report, usage not.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update(
    (module, module)
    for module in (
        "characters", "errors", "labeled", "linalg", "modules", "partitions", "schur", "stable"
    )
)

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
