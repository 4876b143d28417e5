"""Robinson-Schensted symbols, Kazhdan-Lusztig cells, and tensor-product
crystals for small symmetric groups, with exhaustive verification suites."""

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
from .tableaux import (
    Tableau,
    evacuation,
    insert_word,
    p_symbol,
    q_symbol,
    reading_word,
    rs_inverse,
)
from .knuth import knuth_class, knuth_neighbors
from .kl import KLTable, default_table, kl_polynomial, mu, mu_sym
from .hecke import HeckeElement, bar, c_prime, canonical_basis_by_bar
from .cells import CellPartition, cells, left_cell_graph
from .crystal import (
    CrystalComponent,
    decompose,
    e_op,
    eps,
    f_op,
    phi,
    signature_rule,
)
from .verify import Report, run_suite

__version__ = "0.1.0"
