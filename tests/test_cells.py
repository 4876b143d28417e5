import gc
import weakref

import pytest

from oracles import (
    all_perms,
    as_sets,
    cells_by_tuples,
    involution_count,
    left_cell_graph_by_tuples,
    kl_action_q1,
    leq_elements,
    left_closure,
)
from rscells.cells import cells, left_cell_graph, strongly_connected_components
from rscells.kl import KLTable, default_table
from rscells.verify import _TABLE_SUITES, run_suite
from rscells.permutations import identity, inverse, left_descents, longest_element


def test_s1_graph_is_trivial():
    adj = left_cell_graph(1)
    assert adj == {(1,): ()}
    part = cells(1)
    assert part.cells == (((1,),),)


def test_s3_cells_match_worked_example():
    part = cells(3, "left")
    assert as_sets(part) == {
        frozenset({(1, 2, 3)}),
        frozenset({(2, 1, 3), (3, 1, 2)}),
        frozenset({(1, 3, 2), (2, 3, 1)}),
        frozenset({(3, 2, 1)}),
    }


def test_cell_counts_equal_involution_counts():
    for n in range(1, 6):
        part = cells(n, "left")
        assert len(part.cells) == involution_count(n)


def test_right_cells_are_inverses_of_left_cells():
    for n in range(2, 5):
        left = cells(n, "left")
        right = cells(n, "right")
        mapped = {frozenset(inverse(w) for w in cell) for cell in left.cells}
        assert as_sets(right) == mapped
        for y in all_perms(n):
            for w in all_perms(n):
                assert leq_elements(right, y, w) == leq_elements(
                    left, inverse(y), inverse(w)
                )


def test_cell_order_is_reflexive_transitive():
    part = cells(4, "left")
    k = len(part.cells)
    for i in range(k):
        assert (i, i) in part.leq
    for i, j in part.leq:
        for j2, l in part.leq:
            if j2 == j:
                assert (i, l) in part.leq


def test_left_closure():
    w0 = longest_element(3)
    assert left_closure(w0) == frozenset({w0})
    for w in all_perms(3):
        assert w in left_closure(w)
    # monotone: y <=_L w implies closure(y) subset of closure(w)
    for n in (3, 4):
        closures = {w: left_closure(w) for w in all_perms(n)}
        for w, clo in closures.items():
            for y in clo:
                assert closures[y] <= clo
        # the preorder of the cell partition answers the same question
        part = cells(n, "left")
        for w, clo in closures.items():
            assert clo == {y for y in all_perms(n) if leq_elements(part, y, w)}


def test_left_closure_of_identity_by_reachability():
    # computed from the graph, not assumed: every chain ends at e
    assert left_closure(identity(3)) == frozenset(all_perms(3))
    assert left_closure(identity(4)) == frozenset(all_perms(4))


def test_left_closure_is_the_action_closure_of_a_w():
    # grow {w} by taking supports of the q=1 action: the fixpoint is the
    # index set of the smallest a-spanned left ideal containing a(w), and
    # must equal graph reachability
    for n in (3, 4):
        tbl = default_table(n)
        for w in all_perms(n):
            span = {w}
            frontier = [w]
            while frontier:
                y = frontier.pop()
                for i in range(1, n):
                    for x in kl_action_q1(i, y, tbl):
                        if x not in span:
                            span.add(x)
                            frontier.append(x)
            assert frozenset(span) == left_closure(w, tbl), w


def test_edges_satisfy_basal_module_characterization():
    tbl = default_table(4)
    adj = left_cell_graph(4, tbl)
    for x, nbrs in adj.items():
        ldx = left_descents(x)
        for x2 in nbrs:
            witness = ldx - left_descents(x2)
            assert witness
            assert any(kl_action_q1(i, x2, tbl).get(x, 0) for i in witness), (x, x2)


def test_scc_on_a_known_graph():
    adj = [(1,), (2,), (0,), (2, 4), (3,), ()]
    comps = strongly_connected_components(adj)
    assert sorted(comps) == [[0, 1, 2], [3, 4], [5]]
    # a component comes after every component it reaches
    assert comps.index([0, 1, 2]) < comps.index([3, 4])


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rank_cells_match_the_tuple_oracle(n, side):
    table = KLTable(n)
    if side == "left":
        assert left_cell_graph(n, table) == left_cell_graph_by_tuples(n, table)
    part = cells(n, side, table)
    assert (part.cells, part.leq) == cells_by_tuples(n, side, table)
    assert [part.cell_index(w) for w in table.perms] == part.of_rank


def test_a_table_of_another_degree_is_refused():
    with pytest.raises(ValueError, match="degree 5.*got 4"):
        cells(5, "left", KLTable(4))
    with pytest.raises(ValueError, match="degree 5.*got 4"):
        left_cell_graph(5, KLTable(4))


def test_the_cell_layer_keeps_no_process_wide_table():
    default_table.cache_clear()
    cells(4)
    left_cell_graph(4, None)
    for name in sorted(_TABLE_SUITES):
        run_suite(name, 4)
    assert default_table.cache_info().currsize == 0
    # the process-wide table is shared per degree, and only the last
    # degree's is kept
    s4 = default_table(4)
    assert default_table(4) is s4
    released = weakref.ref(s4)
    del s4
    default_table(5)
    gc.collect()
    assert released() is None


def test_graph_is_deterministic():
    a = left_cell_graph(4)
    b = left_cell_graph(4)
    assert a == b
