import pytest

from oracles import all_perms, in_knuth_domain, knuth_class, knuth_move, knuth_neighbors
from rscells.permutations import identity, right_descents
from rscells.tableaux import p_symbol


def test_neighbors_examples():
    assert knuth_neighbors(identity(5)) == frozenset()
    assert knuth_neighbors((2, 1, 3)) == frozenset({(2, 3, 1)})


def test_neighbors_symmetric_and_preserve_p_symbol():
    for n in range(1, 6):
        for w in all_perms(n):
            for y in knuth_neighbors(w):
                assert w in knuth_neighbors(y)
                assert p_symbol(y) == p_symbol(w)


def test_class_examples():
    assert knuth_class(identity(4)) == frozenset({identity(4)})
    assert knuth_class((2, 1, 3)) == frozenset({(2, 1, 3), (2, 3, 1)})


def test_classes_are_p_symbol_fibers_s4():
    fibers = {}
    for w in all_perms(4):
        fibers.setdefault(p_symbol(w), set()).add(w)
    assert len(fibers) == 10
    for w in all_perms(4):
        assert knuth_class(w) == frozenset(fibers[p_symbol(w)])


def test_domain_examples():
    assert in_knuth_domain((2, 1, 3), 1, 2)
    assert not in_knuth_domain((2, 1, 3), 2, 1)
    with pytest.raises(ValueError):
        in_knuth_domain((1, 2, 3, 4), 1, 3)


def test_move_examples():
    assert knuth_move((2, 1, 3), 1, 2) == (2, 3, 1)
    with pytest.raises(ValueError):
        knuth_move((1, 2, 3), 1, 2)


def test_move_is_a_bijection_onto_opposite_domain():
    for n in range(3, 6):
        for i in range(1, n - 1):
            for i2, j2 in ((i, i + 1), (i + 1, i)):
                domain = [w for w in all_perms(n) if in_knuth_domain(w, i2, j2)]
                images = set()
                for w in domain:
                    img = knuth_move(w, i2, j2)
                    assert in_knuth_domain(img, j2, i2)
                    assert knuth_move(img, j2, i2) == w
                    images.add(img)
                assert len(images) == len(domain)


def test_move_descent_pattern():
    # K_ij exchanges which of s_i, s_j descends, keeping the other descents
    for w in all_perms(4):
        for i2, j2 in ((1, 2), (2, 1), (2, 3), (3, 2)):
            if not in_knuth_domain(w, i2, j2):
                continue
            img = knuth_move(w, i2, j2)
            des_w, des_img = right_descents(w), right_descents(img)
            assert i2 in des_w and j2 not in des_w
            assert j2 in des_img and i2 not in des_img
