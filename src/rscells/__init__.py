"""Robinson-Schensted symbols, Kazhdan-Lusztig cells, and tensor-product
crystals for small symmetric groups, with exhaustive verification suites."""

from .permutations import (
    Perm,
    all_permutations,
    bruhat_leq,
    compose,
    format_permutation,
    identity,
    inverse,
    left_descents,
    length,
    longest_element,
    min_coset_rep,
    multiply_simple,
    parse_permutation,
    reduced_word,
    right_descents,
)
from .polynomials import IntPolynomial, LaurentPoly
from .tableaux import (
    Tableau,
    evacuation,
    insert_word,
    jdt_slide,
    p_symbol,
    permutation_tableau,
    q_symbol,
    reading_word,
    rectify,
    row_insert,
    column_insert,
    rs_inverse,
    superstandard,
)
from .knuth import in_knuth_domain, knuth_class, knuth_move, knuth_neighbors
from .kl import KLTable, default_table, kl_polynomial, mu, mu_sym
from .hecke import (
    HeckeElement,
    bar,
    c_prime,
    c_prime_product_expansion,
    canonical_basis_by_bar,
    kl_action_q1,
    t_multiply,
)
from .cells import CellPartition, cells, left_cell_graph
from .crystal import (
    CrystalComponent,
    component,
    decompose,
    e_op,
    eps,
    f_op,
    phi,
    signature_rule,
    tableau_reading_embedding,
    word_p_symbol,
    word_q_symbol,
)
from .verify import Report, run_suite

__version__ = "0.1.0"
