"""Robinson-Schensted symbols, Kazhdan-Lusztig cells, and tensor-product
crystals for small symmetric groups, with exhaustive verification suites.

Importing the package loads only the permutation, polynomial, KL and cell
layers.  The other exported names load their module on first use, so a
``klpoly`` process never imports the tableaux, crystals, Hecke algebra or
verification suites."""

import importlib

from .permutations import (
    Perm,
    all_permutations,
    compose,
    format_permutation,
    identity,
    inverse,
    left_descents,
    length,
    longest_element,
    multiply_simple,
    parse_permutation,
    right_descents,
)
from .polynomials import IntPolynomial, LaurentPoly
from .kl import KLTable, default_table, kl_polynomial, mu, mu_sym
# eager: the package attribute ``cells`` is the function, and loading the
# submodule after this line would rebind it to the module
from .cells import CellPartition, cells, left_cell_graph

# exported name -> the submodule that defines it, imported on first use
_LAZY = {
    name: module
    for module, names in (
        ("tableaux", "Tableau evacuation insert_word p_symbol q_symbol reading_word rs_inverse"),
        ("knuth", "knuth_class knuth_neighbors"),
        ("hecke", "HeckeElement bar c_prime canonical_basis_by_bar"),
        ("crystal", "CrystalComponent decompose e_op eps f_op phi signature_rule"),
        ("verify", "Report run_suite"),
    )
    for name in names.split()
}

__all__ = [
    "Perm",
    "all_permutations",
    "compose",
    "format_permutation",
    "identity",
    "inverse",
    "left_descents",
    "length",
    "longest_element",
    "multiply_simple",
    "parse_permutation",
    "right_descents",
    "IntPolynomial",
    "LaurentPoly",
    "KLTable",
    "default_table",
    "kl_polynomial",
    "mu",
    "mu_sym",
    "CellPartition",
    "cells",
    "left_cell_graph",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value
