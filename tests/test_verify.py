import pytest

from rscells.kl import KLTable
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
