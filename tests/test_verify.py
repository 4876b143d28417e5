import bisect
import hashlib
import json

import pytest

import rscells.tableaux
import rscells.verify
from kl_entries import computed, expanded_column, read_column, write_column
from oracles import (
    descents_by_scan,
    evacuation_by_insertion,
    knuth_by_insertion,
    knuth_mu_by_scan,
    knuth_neighbors,
    theorem_a_by_scan,
)
from rscells import crystal
from rscells.kl import KLTable
from rscells.permutations import Ranks, format_permutation, rank_arrays
from rscells.polynomials import ONE, IntPolynomial
from rscells.verify import SUITES, Report, run_suite


def test_report_shape():
    rep = Report("demo", 3, cases=6)
    assert rep.ok
    rep.violations.append("something broke")
    assert not rep.ok
    lines = rep.lines()
    assert lines[0] == "suite: demo"
    assert lines[-1] == "result: FAIL"
    assert "  something broke" in lines
    data = Report("demo", 3, cases=6).to_json()
    assert data == {
        "suite": "demo",
        "n": 3,
        "cases": 6,
        "info": {},
        "violations": [],
        "result": "pass",
    }


def test_report_defaults_are_fresh_per_report():
    a, b = Report("demo", 3, cases=6), Report("demo", 3, 6)
    a.violations.append("x")
    a.info["k"] = "v"
    assert (b.violations, b.info, b.wall_time) == ([], {}, 0.0)
    c = Report("demo", 3, 6, ["y"], {"k": "v"}, 1.5)
    assert (c.suite, c.n, c.cases, c.violations, c.info, c.wall_time) == (
        "demo", 3, 6, ["y"], {"k": "v"}, 1.5
    )


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("no-such-suite", 3)


def test_run_suite_rejects_table_of_wrong_degree():
    table = KLTable(6)
    for name in SUITES:
        with pytest.raises(ValueError, match="degree 4 .*degree 6"):
            run_suite(name, 4, table)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_at_n3(name):
    rep = run_suite(name, 3)
    assert rep.ok, rep.violations[:5]
    assert rep.cases > 0
    assert rep.wall_time >= 0


def test_theorem_a_reports_cell_count():
    rep = run_suite("theorem-a", 4)
    assert rep.ok
    assert rep.info["cells"] == "10"
    assert rep.cases == 24


def test_descents_suite_counts_reachable_pairs():
    # the number of pairs y <=_L w
    for n, cases in {3: 19, 4: 199, 5: 3121, 6: 68101}.items():
        rep = run_suite("descents", n)
        assert rep.ok, rep.violations[:3]
        assert rep.cases == cases


def test_knuth_mu_suite_n4():
    for n, cases in {3: 8, 4: 108, 5: 1420, 6: 20904}.items():
        rep = run_suite("knuth-mu", n)
        assert rep.ok, rep.violations[:3]
        assert rep.cases == cases


def test_crystal_suites_n4():
    assert run_suite("crystal-djm", 4).ok
    rep = run_suite("crystal-theorem-a", 4)
    assert rep.ok
    assert rep.info["components"] == "10"


class _PoisonedMuTable(KLTable):
    """Poisoned input at the rank level: a table warmed by the true
    recursion, whose mu lists and mu values are then read through
    ``poison_list`` and ``poison_mu``.  The suites read both, and so do the
    pair scans, through the cells and ``mu_sym``.  ``poison_list`` edits a
    mu list as a tuple of (z, mu) pairs, z ascending, and the table serves
    it back as the two sequences and bounds ``_mu_list`` returns."""

    def __init__(self, n):
        self._poisoned = False
        super().__init__(n)
        self.warm()
        self._poisoned = True

    def _mu_list(self, w):
        zs, ms, lo, hi = super()._mu_list(w)
        if not self._poisoned:
            return zs, ms, lo, hi
        pairs = self.poison_list(w, tuple(zip(zs[lo:hi], ms[lo:hi])))
        return [z for z, _ in pairs], [m for _, m in pairs], 0, len(pairs)

    def _mu(self, y, w):
        m = super()._mu(y, w)
        return self.poison_mu(y, w, m) if self._poisoned else m


class _NoMuTable(_PoisonedMuTable):
    """Every mu list is empty and every mu is 0, so every cell is a singleton."""

    def poison_list(self, w, got):
        return ()

    def poison_mu(self, y, w, m):
        return 0


class _SpuriousEdgeTable(_PoisonedMuTable):
    """A mu edge between s_{n-1} and s_1, which have the same length, so
    the cells of S_n change (1243 and 2134 at n = 4)."""

    def edge(self):
        n = self.n
        y = tuple(range(1, n - 1)) + (n, n - 1)
        w = (2, 1) + tuple(range(3, n + 1))
        return self.ranks.rank(y), self.ranks.rank(w)

    def poison_list(self, w, got):
        y, top = self.edge()
        return tuple(sorted(got + ((y, 1),))) if w == top else got

    def poison_mu(self, y, w, m):
        return 1 if {y, w} == set(self.edge()) else m


class _SpuriousDomainEdgeTable(_SpuriousEdgeTable):
    """A mu edge between 2134... and 3142..., two elements of the Knuth
    domain D_12 two lengths apart: it merges their left cells but not the
    cells of their images under K_12."""

    def edge(self):
        rest = tuple(range(5, self.n + 1))
        return self.ranks.rank((2, 1, 3, 4) + rest), self.ranks.rank((3, 1, 4, 2) + rest)


def _short_mu_table(n):
    """Poisoned input: every mu(y, w) with l(w) - l(y) >= 3 cut to 0 by
    dropping the top coefficient of P_{y,w}, so mu fails to survive some
    Knuth moves while the cells stay as they are."""
    table = KLTable(n)
    table.warm()
    lengths = table.ranks.lengths
    for w in computed(table):
        col = read_column(table, w)
        for y, p in col.items():
            d = lengths[w] - lengths[y]
            if d >= 3 and d % 2 and p.coeff((d - 1) // 2):
                col[y] = IntPolynomial(p.coeffs[: (d - 1) // 2])
        write_column(table, w, col)
    return table


# the pair scans the cell suites replaced, and the suite names they report
_SCANS = {
    "theorem-a": theorem_a_by_scan,
    "descents": descents_by_scan,
    "knuth-mu": knuth_mu_by_scan,
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cell_suites_match_the_pair_scans(n):
    table = KLTable(n)
    table.warm()
    for name, scan in _SCANS.items():
        rep, want = run_suite(name, n, table), scan(n, table)
        assert rep.ok
        assert rep.lines() == want.lines()
        assert rep.to_json() == want.to_json()


@pytest.mark.parametrize(
    "poison", [_NoMuTable, _SpuriousEdgeTable, _SpuriousDomainEdgeTable, _short_mu_table]
)
@pytest.mark.parametrize("n", [4, 5])
def test_cell_suites_match_the_pair_scans_on_poisoned_tables(poison, n):
    for name, scan in _SCANS.items():
        rep, want = run_suite(name, n, poison(n)), scan(n, poison(n))
        assert rep.lines() == want.lines()
        assert rep.to_json() == want.to_json()


def test_knuth_mu_fails_on_poisoned_mu_lists():
    # singleton cells: every move leaves a right cell and no pair shares a
    # left cell; the cases are the 32 domain elements, with no mu pair left
    rep = run_suite("knuth-mu", 4, _NoMuTable(4))
    assert (rep.cases, len(rep.violations)) == (32, 32)
    assert rep.violations[0] == "w=2134 K_12(w)=2314 not in one right cell"
    assert rep.lines()[-1] == "result: FAIL"


def test_knuth_mu_fails_when_mu_is_lost():
    rep = run_suite("knuth-mu", 4, _short_mu_table(4))
    assert (rep.cases, len(rep.violations)) == (104, 4)
    assert rep.violations[0] == (
        "y=3124 w=3142 mu=1 but mu(K(y)|K(w))=0 for (i,j)=(1,2), K(y)=1324 K(w)=3412"
    )


def test_knuth_mu_fails_when_a_left_cell_is_not_kept():
    rep = run_suite("knuth-mu", 4, _SpuriousDomainEdgeTable(4))
    # the spurious edge is also a mu pair of D_12 that the move loses
    assert (rep.cases, len(rep.violations)) == (115, 7)
    assert "y=2134 w=3142 share a left cell but K_12 images do not" in rep.violations
    assert (
        "y=2134 w=3142 mu=1 but mu(K(y)|K(w))=0 for (i,j)=(1,2), K(y)=2314 K(w)=3412"
        in rep.violations
    )


def test_descents_fails_on_a_spurious_mu_edge():
    rep = run_suite("descents", 4, _SpuriousEdgeTable(4))
    assert (rep.cases, len(rep.violations)) == (235, 54)
    assert "y=1243 w=2134 in one left cell but R(y)=[3] != R(w)=[1]" in rep.violations
    assert rep.lines()[-1] == "result: FAIL"


def test_theorem_a_fails_on_poisoned_mu_lists():
    rep = run_suite("theorem-a", 4, _NoMuTable(4))
    assert not rep.ok
    assert rep.info["cells"] == "24"
    assert "y=1243 w=1342 same-cell=False same-Q=True" in rep.violations
    assert rep.lines()[-1] == "result: FAIL"


@pytest.fixture
def clean_operator_caches():
    """Empty the cached tuple operators after a test that patched the rule
    they are computed by."""
    yield
    for op in (crystal.f_op, crystal.e_op, crystal.phi, crystal.eps):
        op.cache_clear()


def test_crystal_djm_fails_when_f_hits_the_leftmost_surviving_i(
    monkeypatch, clean_operator_caches
):
    cancel = crystal._cancel

    def leftmost(i, word):
        down, up = cancel(i, word)
        return down, up[:1]

    monkeypatch.setattr(crystal, "_cancel", leftmost)
    rep = run_suite("crystal-djm", 4)
    assert not rep.ok
    # check (c): f_1 turns the reading word 1111 into 2111, whose row is
    # not weakly increasing
    assert "word (1, 1, 1, 1), op f_op i=1: reading word left the tableau crystal" in (
        rep.violations
    )


def test_crystal_djm_fails_when_the_bump_replaces_an_equal_entry(monkeypatch):
    monkeypatch.setattr(rscells.tableaux, "bisect_right", bisect.bisect_left)
    rep = run_suite("crystal-djm", 4)
    assert not rep.ok
    # check (b): 1111 now inserts to one column of 1s, and the one tableau
    # of that shape is not the image of the 35 words of the component
    assert "component (1, 1, 1, 1): image has 35 tableaux, B(lambda) has 1" in rep.violations


def test_crystal_djm_fails_on_a_recording_tableau_that_varies(monkeypatch):
    # check (a): the last word, 333 in the component of 111, gets a
    # recording code of its own
    symbols = crystal._symbols

    def poisoned(n, r):
        pidx, qcode, prows, pindex = symbols(n, r)
        qcode[-1] += 1
        return pidx, qcode, prows, pindex

    monkeypatch.setattr(crystal, "_symbols", poisoned)
    rep = run_suite("crystal-djm", 3)
    assert rep.violations == [
        "component (1, 1, 1): word (3, 3, 3) has a different recording tableau"
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_permutation_suites_match_one_insertion_per_permutation(n):
    for name, oracle in (("knuth", knuth_by_insertion), ("evacuation", evacuation_by_insertion)):
        rep, want = run_suite(name, n), oracle(n)
        assert rep.ok
        assert rep.lines() == want.lines()
        assert rep.to_json() == want.to_json()


def _slide_to_the_larger(rows, x, y):
    """A jeu de taquin slide whose hole swallows the larger of its right and
    lower neighbours.  The vacated cell is still an outer corner, so
    evacuation still returns a standard tableau, only the wrong one."""
    while True:
        row = rows[x]
        right = row[y + 1] if y + 1 < len(row) else None
        below = rows[x + 1][y] if x + 1 < len(rows) and y < len(rows[x + 1]) else None
        if below is None and right is None:
            row.pop()
            return x, y
        if right is None or (below is not None and below > right):
            row[y] = below
            x += 1
        else:
            row[y] = right
            y += 1


def test_evacuation_fails_on_a_slide_to_the_larger_neighbour(monkeypatch):
    monkeypatch.setattr(rscells.tableaux, "_slide", _slide_to_the_larger)
    rep = run_suite("evacuation", 4)
    assert (rep.cases, len(rep.violations)) == (24, 24)
    # both checks fail, one line per permutation and check, in the order of
    # the suite that evacuated each Q(w) twice
    assert "w=1324: evacuation is not involutive" in rep.violations
    assert (
        "w=1243: transpose(evac(Q(w))) != Q(w.w0), Q(w)={'rows': [[1, 2, 3], [4]]}"
        in rep.violations
    )
    assert rep.lines() == evacuation_by_insertion(4).lines()
    assert rep.lines()[-1] == "result: FAIL"


def test_knuth_fails_when_the_walk_merges_two_p_indices(monkeypatch):
    symbols = rscells.verify._symbols

    def merged(n, r, permutations=False):
        # the P-symbols of 1234 and 1243 get one index
        pidx, qcode, prows, pindex = symbols(n, r, permutations)
        first, second = pidx[0], pidx[1]
        return [first if p == second else p for p in pidx], qcode, prows, pindex

    monkeypatch.setattr(rscells.verify, "_symbols", merged)
    rep = run_suite("knuth", 4)
    assert rep.info["classes"] == "9"
    assert rep.violations == [
        "w=1234 knuth class ['1234'] != P-fiber ['1234', '1243', '1423', '4123']",
        "w=1243 knuth class ['1243', '1423', '4123'] != P-fiber ['1234', '1243', '1423', '4123']",
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_star_moves_are_the_elementary_knuth_relations(n):
    ranks = rank_arrays(n)
    perms = ranks.perms
    pairs = {
        (perms[w], perms[kw])
        for _, _, image in rscells.verify._star_moves(ranks)
        for w, kw in image.items()
    }
    assert pairs == {(w, y) for w in perms for y in knuth_neighbors(w)}


def _poison_star_moves(monkeypatch, poison):
    """Run every star move's image through ``poison(ranks, i, j, image)``."""
    moves = rscells.verify._star_moves

    def poisoned(ranks):
        for i, j, image in moves(ranks):
            yield i, j, poison(ranks, i, j, image)

    monkeypatch.setattr(rscells.verify, "_star_moves", poisoned)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_knuth_fails_on_a_one_way_star_pair(monkeypatch, n):
    def w0_to_e(ranks, i, j, image):
        # w0 is in no domain, and no move takes e back to it
        if (i, j) == (1, 2):
            image[len(ranks.rmasks) - 1] = 0
        return image

    _poison_star_moves(monkeypatch, w0_to_e)
    rep = run_suite("knuth", n)
    e, w0 = "".join(map(str, range(1, n + 1))), "".join(map(str, range(n, 0, -1)))
    assert rep.violations == [f"w={e} knuth class ['{e}', '{w0}'] != P-fiber ['{e}']"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_knuth_fails_when_each_move_takes_w_s_i(monkeypatch, n):
    def w_s_i(ranks, i, j, image):
        si = ranks.rsteps[i - 1]
        return {w: si[w] for w in image}

    _poison_star_moves(monkeypatch, w_s_i)
    ranks = rank_arrays(n)
    # S_n falls into two classes: w0 alone, and the rest
    assert len(set(rscells.verify.knuth_class(ranks))) == 2
    rep = run_suite("knuth", n)
    rest = [format_permutation(w) for w in ranks.perms[:-1]]
    assert rep.violations == [f"w={rest[0]} knuth class {rest} != P-fiber ['{rest[0]}']"]


def test_crystal_theorem_a_fails_when_no_letter_cancels(monkeypatch, clean_operator_caches):
    def never(i, word):
        return (
            [pos for pos, a in enumerate(word) if a == i + 1],
            [pos for pos, a in enumerate(word) if a == i],
        )

    # every e_i then turns each letter i + 1 into i, so every word reaches
    # 11...1 and all of S_n lies in one component
    monkeypatch.setattr(crystal, "_cancel", never)
    rep = run_suite("crystal-theorem-a", 4)
    assert rep.info["components"] == "1"
    assert rep.violations == ["crystal components (1) differ from Q-symbol fibers (10)"]


def test_crystal_theorem_a_reads_no_kl_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("crystal-theorem-a reached the KL layer")

    monkeypatch.setattr(rscells.verify, "KLTable", forbidden)
    monkeypatch.setattr(rscells.verify, "cell_partition", forbidden)
    for n in range(1, 6):
        assert run_suite("crystal-theorem-a", n).ok


def test_crystal_theorem_a_fails_when_the_walk_merges_two_q_codes(monkeypatch):
    symbols = rscells.verify._symbols

    def merged(n, r, permutations=False):
        # the Q-symbols of 1234 and 1243 get one code
        pidx, qcode, prows, pindex = symbols(n, r, permutations)
        first, second = qcode[0], qcode[1]
        return pidx, [first if q == second else q for q in qcode], prows, pindex

    monkeypatch.setattr(rscells.verify, "_symbols", merged)
    rep = run_suite("crystal-theorem-a", 4)
    assert rep.info["components"] == "10"
    assert rep.violations == ["crystal components (10) differ from Q-symbol fibers (9)"]
    assert rep.lines()[-1] == "result: FAIL"


def test_crystal_theorem_a_fills_no_operator_cache(clean_operator_caches):
    caches = (crystal.f_op, crystal.e_op, crystal.phi, crystal.eps)
    for op in caches:
        op.cache_clear()
    assert run_suite("crystal-theorem-a", 5).ok
    assert [op.cache_info().currsize for op in caches] == [0, 0, 0, 0]


# sha256 of "\n".join(Report.lines()) and of json.dumps(Report.to_json(),
# sort_keys=True) for crystal-djm, recorded while the suite still built a
# Tableau per word, operator and reading word
CRYSTAL_DJM_SHA256 = {
    1: (
        "45ef0c667887e77f010131ab5d825506d1cc5fb6297df581cb5e42c3a1a1acf2",
        "af9b32cf72e913802bfdba2b8db62206ea6e45a7f53a7bf75935c0644ada0389",
    ),
    2: (
        "a48d2641b3093ed05b96f77cb0e42bc7e0c470b3575b603372e5abb779f6b944",
        "beb9e071f7b8c68fd420daa5e13584044a313e62dd2d9a89bff93f3e29c5142d",
    ),
    3: (
        "4fa989259c5cfd364f3a136795f547a09e42b07b9f76fa2d0018a8ead85ba45e",
        "bb97050bab00d3a7c94fc1ed516a4bf09f1aadf7ec31711b196c709591ba466e",
    ),
    4: (
        "160da494c373898d3901ffd95919f52cdd322d591b22fa817453ad30259fa98f",
        "e875699673687fb705862df97ba9cdaccd6924d002f8cd7803d1594b20c30234",
    ),
    5: (
        "530c5642b102803917ec5fcbcaa24e324d2e7d33c5646ed41d580bea61171ec9",
        "ddb53824d7e32358c6e0a785f42ab2fca1ffb9b2a95da8cedd9960fd9063d710",
    ),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_crystal_djm_report_is_pinned(n):
    rep = run_suite("crystal-djm", n)
    lines = hashlib.sha256("\n".join(rep.lines()).encode()).hexdigest()
    data = hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()
    assert (lines, data) == CRYSTAL_DJM_SHA256[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bar_invariance_report_lines_are_unchanged(n):
    # the lines the bar-solve version of the suite printed
    cases = {1: 1, 2: 2, 3: 6, 4: 24, 5: 120}[n]
    assert run_suite("bar-invariance", n).lines() == [
        "suite: bar-invariance",
        f"n: {n}",
        f"cases: {cases}",
        "violations: 0",
        "result: PASS",
    ]


def _poisoned(n, y, w):
    """A warm table of S_n and the ranks of the stored entry P_{y,w}."""
    table = KLTable(n)
    table.warm()
    y, w = table.ranks.rank(y), table.ranks.rank(w)
    assert read_column(table, w)[y] == ONE
    return table, y, w


def _replace(table, y, w, p):
    """Set the entry P_{y,w} of ``table`` to p, or delete it when p is None."""
    col = read_column(table, w)
    if p is None:
        del col[y]
    else:
        col[y] = p
    write_column(table, w, col)


# (n, y, w) of a stored entry P_{y,w} = 1 with y != w, y two-sided
# extremal: the one that serves P_{12354,51234} at n = 5, and others with
# l(w) - l(y) = 1 at n = 4 and 3 at n = 6.  Up to n = 5 every such entry has
# l(w) - l(y) <= 2, so only at n = 6 does 1 + q keep the degree bound
_ENTRIES = [
    (4, (2, 1, 4, 3), (2, 3, 4, 1)),
    (5, (2, 1, 3, 5, 4), (5, 1, 2, 3, 4)),
    (6, (2, 1, 3, 4, 6, 5), (2, 3, 4, 5, 6, 1)),
]


@pytest.mark.parametrize("n, y, w", _ENTRIES)
def test_bar_invariance_fails_on_a_changed_entry(n, y, w):
    table, yr, wr = _poisoned(n, y, w)
    _replace(table, yr, wr, IntPolynomial((1, 1)))
    rep = run_suite("bar-invariance", n, table)
    assert not rep.ok
    assert rep.lines()[-1] == "result: FAIL"
    wname = "".join(map(str, w))
    assert any(
        v.startswith(f"w={wname} x=") and "= 1 + q" in v and " s_" in v and " v=" in v
        for v in rep.violations
    ), rep.violations[:5]
    if n == 6:
        assert not any("degree" in v for v in rep.violations)


@pytest.mark.parametrize("n, y, w", _ENTRIES)
def test_bar_invariance_fails_on_a_deleted_entry(n, y, w):
    table, yr, wr = _poisoned(n, y, w)
    _replace(table, yr, wr, None)
    rep = run_suite("bar-invariance", n, table)
    assert not rep.ok
    yname, wname = "".join(map(str, y)), "".join(map(str, w))
    assert rep.violations[0].startswith(f"w={wname}: column holds ")
    # the identity at x = y now reads P_{y,w} = 0 on its right side
    assert any(
        v.startswith(f"w={wname} x={yname} s_") and v.endswith("q^k P_{x,z} = 0")
        for v in rep.violations
    ), rep.violations[:5]


@pytest.mark.parametrize("n, y, w", _ENTRIES)
def test_bar_invariance_fails_on_a_degree_breach(n, y, w):
    table, yr, wr = _poisoned(n, y, w)
    _replace(table, yr, wr, IntPolynomial((7, 7, 7)))
    rep = run_suite("bar-invariance", n, table)
    assert not rep.ok
    yname, wname = "".join(map(str, y)), "".join(map(str, w))
    assert any(
        v.startswith(f"w={wname} y={yname}: P_{{y,w}} = 7 + 7q + 7q^2 has degree 2 > bound")
        for v in rep.violations
    ), rep.violations[:5]


def test_bar_invariance_fails_on_a_diagonal_entry():
    # the identity rule never reads P_{w,w}: lookups answer 1 for y = w
    table, _, wr = _poisoned(*_ENTRIES[1])
    _replace(table, wr, wr, IntPolynomial((1, 1)))
    rep = run_suite("bar-invariance", 5, table)
    assert rep.violations[0] == "w=51234: P_{w,w} = 1 + q != 1"


def test_bar_invariance_fails_on_poisoned_mu_lists():
    # with every mu list empty the identity subtracts no mu(z, v) C'_z, so
    # it fails at each x where a true correction term is nonzero
    counts = [len(run_suite("bar-invariance", n, _NoMuTable(n)).violations) for n in (3, 4, 5)]
    assert counts == [2, 44, 1012]
    rep = run_suite("bar-invariance", 4, _NoMuTable(4))
    assert rep.violations[0] == (
        "w=1432 x=1234 s_2 v=1423: q P_{sx,v} + P_{x,v} = 1 + q "
        "but P_{x,w} + sum mu(z,v) q^k P_{x,z} = 1"
    )
    assert rep.lines()[-1] == "result: FAIL"


# (number, sha256 of "\n".join(Report.violations)) of poisoned bar-invariance
# reports, every violation and not only the 100 that lines() shows; recorded
# while the suite still walked the interval one x at a time
POISONED_BAR_SHA256 = {
    ("changed", 4): (
        7,
        "253cae97e667487b3063926a8e3c4c5b98c93e4665be64e5301722a718f6dc0e",
    ),
    ("changed", 5): (
        25,
        "d479c3ce625a7efe5d156ed0363cb20c038279ec2ad17c5e0a61199b95c0a5c1",
    ),
    ("changed", 6): (
        4,
        "1380029806e90f801a1a3ec8f2e37c14f5f068b8889b4479cbab3b19c0cf6ed0",
    ),
    ("deleted", 4): (
        5,
        "95dfd492df88eeb76bcd932d92bbb7acc2ab3ecf752f9dd9f27c03fd70e85f09",
    ),
    ("deleted", 5): (
        25,
        "685b4ce487e5b6f5c8beec9bba2500a0b1ccfa4a45f9103bbd574005cfb2e05f",
    ),
    ("deleted", 6): (
        5,
        "d31c3d9ffaee36037c0d210f42936defb338d6c70c86ec02f10596b3d8d41bb7",
    ),
    ("degree", 4): (
        8,
        "fae8135fb982e79557481bfef7f08484138f718a77f0c0f3c2b2e0248b5a8d6d",
    ),
    ("degree", 5): (
        28,
        "7d98e428fb6c4df6f5f0d7a2ea1b76ee220caa840498d1b605345409f2b04835",
    ),
    ("degree", 6): (
        7,
        "5c28fbdbde1c31a399b1087eeae0854c2bac567add78636ceba6d661c2bf3c54",
    ),
    ("no-mu", 4): (
        44,
        "46e7dff2cbf9207d4941eb73d016050f7d213796523b2da2ad50c21027263e62",
    ),
    ("short-mu", 4): (
        10,
        "ce4432918a386e9bde869f888c23036a8fdac268ce7b805a586e17be3b80f36b",
    ),
    ("no-mu", 5): (
        1012,
        "28da8819c83d65a292a19aa38f486addcb4031efc54a20825766f10768244248",
    ),
    ("short-mu", 5): (
        448,
        "6916a1bc3e553672f22b67ce72451d371617f0949506ce6c4a9e2c1585b781e2",
    ),
}


def _bar_poison(kind, n):
    if kind == "no-mu":
        return _NoMuTable(n)
    if kind == "short-mu":
        return _short_mu_table(n)
    table, yr, wr = _poisoned(*next(e for e in _ENTRIES if e[0] == n))
    p = {"changed": IntPolynomial((1, 1)), "deleted": None, "degree": IntPolynomial((7, 7, 7))}
    _replace(table, yr, wr, p[kind])
    return table


@pytest.mark.parametrize("kind, n", list(POISONED_BAR_SHA256))
def test_poisoned_bar_invariance_reports_are_pinned(kind, n):
    rep = run_suite("bar-invariance", n, _bar_poison(kind, n))
    digest = hashlib.sha256("\n".join(rep.violations).encode()).hexdigest()
    assert (len(rep.violations), digest) == POISONED_BAR_SHA256[kind, n]


def _left_raise(ranks):
    """Poisoned raise_to: y is raised through the left descents of w only,
    so a lookup misses the entry of a y that lacks a right descent of w."""
    masks, steps, lowest = ranks.masks, ranks.steps, ranks.lowest

    def raise_to(y, wmask, wrmask):
        while rest := wmask & ~masks[y]:
            y = steps[lowest[rest]][y]
        return y

    return raise_to


def test_lookups_that_skip_the_right_raise_are_caught(monkeypatch):
    # the recursion raises with raise_to and the certificate reads the
    # stored columns by the walk of _expand, which does not.  The S_3
    # columns stay right, so bar-invariance passes there while lookups go
    # wrong, and only their tie to the expanded columns catches it
    monkeypatch.setattr(Ranks, "raise_to", property(_left_raise))
    counts = [len(run_suite("bar-invariance", n).violations) for n in (3, 4, 5)]
    assert counts == [0, 10, 486]
    table = KLTable(3)
    wrong = [
        (x, w)
        for w in range(6)
        for x, p in expanded_column(table, w).items()
        if table._lookup(x, w) != p
    ]
    assert wrong, "the tie of _lookup to _expand misses the one-sided raise"


def test_suites_without_a_table_build_no_step_arrays():
    # crystal-theorem-a 9 and the degree-9 script run stay under their
    # memory bounds only while these suites leave the n! * n step arrays
    # and the descent masks unbuilt; knuth reads the right steps and
    # descents, and no other array
    rank_arrays.cache_clear()
    assert run_suite("knuth", 5).ok
    built = vars(rank_arrays(5))
    assert {"rsteps", "rmasks"} <= built.keys()
    assert not built.keys() & {"steps", "masks", "inverse", "index"}, sorted(built)
    rank_arrays.cache_clear()
    for name in ("evacuation", "crystal-theorem-a"):
        assert run_suite(name, 5).ok
    built = vars(rank_arrays(5))
    assert "perms" in built
    assert not built.keys() & {"steps", "rsteps", "masks", "rmasks", "inverse"}, sorted(built)
