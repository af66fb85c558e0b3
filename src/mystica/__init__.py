"""Exact computational algebra for monomial reflection groups and their
det-twisted counterparts.

Public names resolve lazily: ``import mystica`` loads no submodule, and the
first use of a name imports its home module, so a caller pays only for the
modules it uses.
"""

import importlib

# home module -> the public names it exports
_EXPORTS = {
    "cyclo": ("Cyclotomic", "cyc_make", "in_gaussian_half_ring", "parse_scalar", "scalar_to_text"),
    "monomial": ("MonomialElement", "adjacent_swap", "central_scalar", "torus_gen"),
    "groups": (
        "CapExceededError",
        "FiniteMonomialGroup",
        "GroupTag",
        "TorusSubgroup",
        "closure_generate",
        "enumerate_thick",
        "is_thick",
        "make_gmpn",
        "make_w",
        "mu_group",
        "torus_part",
    ),
    "qpoly": (
        "QMatrix",
        "QPolynomial",
        "act_c",
        "commute_check",
        "fundamental_invariants",
        "hilbert_free",
        "invariant_dimension",
        "operator_matrix",
        "phi_eval",
        "phi_w_eval",
        "qform_bracket",
        "qmul",
    ),
    "groupalg": ("GroupAlgebraElement", "e_group", "ga_mul", "j_c", "psi_eval", "q_w_element"),
    "mystic": (
        "EquivalenceReport",
        "faithfulness_rank",
        "group_ring_iso_check",
        "mystic_equiv_check",
        "unique_equivalent_thick",
    ),
    "classify": ("Fingerprint", "fingerprint", "isomorphic", "regular_singular"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
