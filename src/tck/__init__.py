"""Exact twisted-conjugacy toolkit.

Root systems and Chevalley generators in the adjoint representation, twisted
conjugacy and isogredience counting in finite groups, Reidemeister spectra
of lattice, Heisenberg, lamplighter and metabelian families, and the
eigencharacter obstruction certificate for diagonal witness sequences.
All arithmetic is exact: rationals, rational functions, and integers.

The names below are loaded on first use (PEP 562), so `import tck` runs no
submodule; `from tck import x` and `tck.x` import the home module of x.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConsistencyError", "DomainError", "ResourceLimitError"),
    "linalg": ("SmithNormalForm", "int_det", "smith_normal_form"),
    "fields": ("Polynomial", "RationalFunction", "ScalingAutomorphism", "apply_scaling",
               "character_lattice_member", "exponent_vector", "supports_pairwise_disjoint"),
    "roots": ("DiagramSymmetry", "RootSystem", "RootSystemType", "build_root_system",
              "diagram_symmetries"),
    "chevalley": ("ChevalleyAutomorphism", "adjoint_dimension", "commutator_factors",
                  "commutator_relation_check", "h_alpha", "n_alpha", "reduce_mod_p", "x_alpha"),
    "twisted": ("FiniteGroup", "GroupAutomorphism", "IsogredienceClassCount",
                "all_automorphisms", "automorphism_from_descriptor", "center", "closure",
                "group_descriptor", "group_from_descriptor",
                "induced_reidemeister_number", "inner_twist_invariance", "isogredience_count",
                "reidemeister_number", "subgroup", "telescoping_product_check",
                "twisted_classes"),
    "spectrum": ("INFINITY", "ExtendedCount", "SpectrumDescriptor", "abelian_oracle_count",
                 "cokernel_order_mod", "heisenberg_automorphism", "heisenberg_cokernel_product",
                 "heisenberg_group", "heisenberg_oracle", "heisenberg_reidemeister",
                 "lamplighter_r_infinity", "metabelian_spectrum", "reidemeister_zn",
                 "zn_fullness_witness"),
    "witness": ("FirstFactorReduction", "ObstructionCertificate", "ProductAutomorphism",
                "WitnessSequence", "ZeroEntryWitness", "generate_witnesses",
                "obstruction_check", "pattern_determinant", "project_product_to_first_factor",
                "reduced_obstruction_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
