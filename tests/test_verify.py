import pytest

from rscells.kl import KLTable
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
    rep = run_suite("descents", 3)
    assert rep.ok
    # reflexive pairs alone give n! cases
    assert rep.cases >= 6


def test_knuth_mu_suite_n4():
    rep = run_suite("knuth-mu", 4)
    assert rep.ok
    assert rep.cases > 0


def test_crystal_suites_n4():
    assert run_suite("crystal-djm", 4).ok
    rep = run_suite("crystal-theorem-a", 4)
    assert rep.ok
    assert rep.info["components"] == "10"


class _NoMuTable(KLTable):
    """Poisoned input: every mu list is empty, so every cell is a singleton."""

    def mu_list(self, w):
        return ()


def test_theorem_a_fails_on_poisoned_mu_lists():
    rep = run_suite("theorem-a", 4, _NoMuTable(4))
    assert not rep.ok
    assert rep.info["cells"] == "24"
    assert "y=1243 w=1342 same-cell=False same-Q=True" in rep.violations
    assert rep.lines()[-1] == "result: FAIL"


def test_crystal_theorem_a_fails_on_poisoned_mu_lists():
    rep = run_suite("crystal-theorem-a", 4, _NoMuTable(4))
    assert rep.violations == ["Q-symbol fibers (10) differ from left cells (24)"]
    assert rep.lines()[-1] == "result: FAIL"


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bar_invariance_passes_on_right_sided_tables(n):
    rep = run_suite("bar-invariance", n, KLTable(n, "right"))
    assert rep.ok, rep.violations[:3]


def _poisoned(n, y, w):
    """A warm table of S_n and the ranks of the raised entry P_{y,w}."""
    table = KLTable(n)
    table.warm()
    y, w = table._rank(y), table._rank(w)
    assert table._columns[w][y] == ONE
    return table, y, w


# (n, y, w) of a raised entry P_{y,w} = 1: at n = 4 every such entry has
# l(w) - l(y) <= 2, at n = 5 this one has 3, so 1 + q keeps the degree bound
_ENTRIES = [(4, (1, 3, 2, 4), (1, 3, 4, 2)), (5, (1, 2, 3, 5, 4), (5, 1, 2, 3, 4))]


@pytest.mark.parametrize("n, y, w", _ENTRIES)
def test_bar_invariance_fails_on_a_changed_entry(n, y, w):
    table, yr, wr = _poisoned(n, y, w)
    table._columns[wr][yr] = IntPolynomial((1, 1))
    rep = run_suite("bar-invariance", n, table)
    assert not rep.ok
    assert rep.lines()[-1] == "result: FAIL"
    wname = "".join(map(str, w))
    assert any(
        v.startswith(f"w={wname} x=") and "= 1 + q" in v and " s_" in v and " v=" in v
        for v in rep.violations
    ), rep.violations[:5]
    if n == 5:
        assert not any("degree" in v for v in rep.violations)


@pytest.mark.parametrize("n, y, w", _ENTRIES)
def test_bar_invariance_fails_on_a_deleted_entry(n, y, w):
    table, yr, wr = _poisoned(n, y, w)
    del table._columns[wr][yr]
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
    table._columns[wr][yr] = IntPolynomial((7, 7, 7))
    rep = run_suite("bar-invariance", n, table)
    assert not rep.ok
    yname, wname = "".join(map(str, y)), "".join(map(str, w))
    assert any(
        v.startswith(f"w={wname} y={yname}: P_{{y,w}} = 7 + 7q + 7q^2 has degree 2 > bound")
        for v in rep.violations
    ), rep.violations[:5]
