"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Long runs (n = 6, 7 and 8 for the cell/Q partition, n = 6 and 7 for the
bar-invariance certificate, n = 5 to 8 for the descent and mu/Knuth-move
checks, n = 6 for the crystal checks, n = 8 and 9 for crystal-theorem-a,
n = 8 and 9 for evacuation and knuth) are gated behind RSCELLS_LONG=1.
"""

import hashlib
import itertools
import os

import pytest

from children import MAIN, run_child
from oracles import (
    all_perms,
    as_sets,
    column_strict_fillings,
    inner_corners,
    involution_count,
    jdt_slide,
    max_exponent,
    partitions,
    permutation_tableau,
    rectify,
    standard_tableaux,
)
from rscells.cells import cells
from rscells.cli import main
from rscells.crystal import djm_violations, e_op, f_op, signature_rule
from rscells.hecke import bar, c_prime, canonical_basis_by_bar
from rscells.kl import KLTable, default_table
from rscells.permutations import inverse, length
from rscells.polynomials import IntPolynomial
from rscells.tableaux import (
    Tableau,
    p_symbol,
    q_symbol,
    rs_inverse,
)
from rscells.verify import run_suite

LONG = bool(os.environ.get("RSCELLS_LONG"))
long_run = pytest.mark.skipif(not LONG, reason="long run; set RSCELLS_LONG=1")


@pytest.fixture(scope="module")
def warm_table():
    """One warm table per degree, shared by the long runs of this module:
    S_8 warms in about 180 MB and 35-45 s."""
    tables = {}

    def get(n):
        if n not in tables:
            tables[n] = KLTable(n)
            tables[n].warm()
        return tables[n]

    return get


def _ok(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_criterion_01_s3_cells_and_q_symbols():
    part = cells(3, "left")
    expected = {
        frozenset({(1, 2, 3)}): Tableau([[1, 2, 3]]),
        frozenset({(2, 1, 3), (3, 1, 2)}): Tableau([[1, 3], [2]]),
        frozenset({(1, 3, 2), (2, 3, 1)}): Tableau([[1, 2], [3]]),
        frozenset({(3, 2, 1)}): Tableau([[1], [2], [3]]),
    }
    assert as_sets(part) == set(expected)
    for cell, q in expected.items():
        for w in cell:
            assert q_symbol(w) == q
    _ok(1, "S3 left cells and their Q-symbols match the worked example")


def test_criterion_02_theorem_a_n4_n5():
    for n in (4, 5):
        rep = run_suite("theorem-a", n)
        assert rep.ok, rep.violations[:3]
    _ok(2, "left-cell partition equals Q-symbol partition for n = 4, 5")


@long_run
def test_criterion_02_theorem_a_n6_long(warm_table):
    rep = run_suite("theorem-a", 6, warm_table(6))
    assert rep.ok, rep.violations[:3]
    assert rep.info["cells"] == "76"
    _ok(2, "left-cell partition equals Q-symbol partition for n = 6 (long)")


@long_run
@pytest.mark.parametrize("n, count", [(7, 232), (8, 764)])
def test_criterion_02_theorem_a_n7_n8_long(warm_table, n, count):
    rep = run_suite("theorem-a", n, warm_table(n))
    assert rep.ok, rep.violations[:3]
    assert involution_count(n) == count
    assert rep.info["cells"] == rep.info["q-symbols"] == str(count)
    _ok(2, f"left-cell partition equals Q-symbol partition for n = {n}, {count} cells (long)")


def test_criterion_03_cell_counts_are_involution_counts():
    expected = {3: 4, 4: 10, 5: 26, 6: 76}
    for n, count in expected.items():
        assert involution_count(n) == count
        assert len(cells(n, "left").cells) == count
    _ok(3, "cell counts 4/10/26/76 equal involution counts for n = 3..6")


def test_criterion_04_worked_rs_example():
    w = (3, 1, 5, 2, 4)
    assert p_symbol(w) == Tableau([[1, 2, 4], [3, 5]])
    assert q_symbol(w) == Tableau([[1, 3, 5], [2, 4]])
    _ok(4, "RS symbols of 31524 match the worked example")


def test_criterion_05_kl_oracle_s4():
    n = 4
    table = default_table(n)
    oracle = canonical_basis_by_bar(n)
    for w in all_perms(n):
        cw = c_prime(w, table)
        assert bar(cw) == cw
        for y, coef in cw.coords.items():
            if y != w:
                assert max_exponent(coef.shifted(length(y))) <= -1
        for y in all_perms(n):
            got = table.polynomial(y, w)
            want = oracle[w].coeff(y).as_q_polynomial(v_shift=-length(w))
            assert got == want, (y, w)
    assert table.polynomial((1, 3, 2, 4), (3, 4, 1, 2)) == IntPolynomial((1, 1))
    _ok(5, "S4 recursion matches the bar-invariance oracle coefficientwise")


@long_run
@pytest.mark.parametrize("n, cases", [(6, 720), (7, 5040)])
def test_criterion_05_bar_invariance_certificate_n6_n7_long(capsys, n, cases):
    # 98,406 and 3,550,918 interval identities; n = 7 takes about 5 s
    code = main(["--long", "verify", "bar-invariance", str(n)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"cases: {cases}\n" in out and out.endswith("result: PASS\n")
    _ok(5, f"C'_w certified bar-invariant for n = {n} (long)")


def test_criterion_06_properties_lemma_n5():
    for n in range(2, 6):
        table = default_table(n)
        for y in all_perms(n):
            for w in all_perms(n):
                p = table.polynomial(y, w)
                if not p:
                    continue
                assert p.coeff(0) == 1
                if y != w:
                    assert 2 * p.degree <= length(w) - length(y) - 1
                assert table.polynomial(inverse(y), inverse(w)) == p
    _ok(6, "constant term, degree bound, inverse symmetry hold for n <= 5")


def test_criterion_07_descents_and_knuth_move_n4():
    for n in (3, 4):
        assert run_suite("descents", n).ok
        assert run_suite("knuth-mu", n).ok
    _ok(7, "descent inclusion and Knuth-move/mu preservation hold for n <= 4")


@long_run
@pytest.mark.parametrize(
    "n, descents, knuth_mu",
    [(5, 3121, 1420), (6, 68101, 20904), (7, 1970137, 343968), (8, 72876539, 6750376)],
)
def test_criterion_07_descents_and_knuth_move_long(warm_table, n, descents, knuth_mu):
    # n = 8 takes about 3 s and 12 s on the table that theorem-a 8 warmed
    table = warm_table(n)
    for name, cases in (("descents", descents), ("knuth-mu", knuth_mu)):
        rep = run_suite(name, n, table)
        assert rep.ok, rep.violations[:3]
        assert rep.cases == cases
    _ok(7, f"descent inclusion and Knuth-move/mu preservation hold for n = {n} (long)")


def test_criterion_08_knuth_classes_n5():
    for n in range(2, 6):
        rep = run_suite("knuth", n)
        assert rep.ok, rep.violations[:3]
    _ok(8, "Knuth-closure classes equal P-symbol fibers for n <= 5")


def test_criterion_09_evacuation_identity_n5():
    for n in range(1, 6):
        rep = run_suite("evacuation", n)
        assert rep.ok, rep.violations[:3]
    _ok(9, "transpose(evacuation(Q(w))) = Q(w w0) and involutivity for n <= 5")


def test_criterion_10_rs_bijectivity_n6():
    for n in range(1, 7):
        seen = set()
        for w in all_perms(n):
            p, q = p_symbol(w), q_symbol(w)
            assert q == p_symbol(inverse(w))
            pair = (p, q)
            assert pair not in seen
            seen.add(pair)
            assert rs_inverse(p, q) == w
    _ok(10, "RS round-trip and Q(w) = P(w^-1) hold for n <= 6")


def test_criterion_11_crystal_djm_and_signature():
    for n in range(1, 5):
        count, violations = djm_violations(n, n)
        assert violations == [], violations[:3]
        assert count == n**n
    for n in range(1, 6):
        for b in itertools.product((1, 2, 3), repeat=n):
            for i in (1, 2):
                e_pos, f_pos = signature_rule(i, b)
                fb, eb = f_op(i, b), e_op(i, b)
                assert (fb is None) == (f_pos is None)
                if fb is not None:
                    assert fb == b[:f_pos] + (i + 1,) + b[f_pos + 1 :]
                assert (eb is None) == (e_pos is None)
                if eb is not None:
                    assert eb == b[:e_pos] + (i,) + b[e_pos + 1 :]
    _ok(11, "DJM checks pass for n = r <= 4; signature rule matches for n <= 5")


@long_run
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_criterion_11_crystal_djm_n6_long():
    # 46,656 words in about 1 s at a 37 MB peak; building a Tableau per
    # word, operator and reading word took 8-11 s and 92 MB
    proc, peak_mb = run_child(MAIN, "--long", "verify", "crystal-djm", "6", timeout=300)
    report = proc.stdout
    assert proc.returncode == 0
    assert report.endswith("cases: 46656\nviolations: 0\nresult: PASS\n")
    # the stdout of `rscells --long verify crystal-djm 6` while the suite
    # built a Tableau per word, operator and reading word
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "9fa12caf3126e1c889e7361b41097af1a19ebe2630b753493ea468d50d1ec423"
    )
    assert peak_mb < 60, peak_mb
    _ok(11, "DJM checks pass for n = r = 6 (long)")


def test_criterion_12_crystal_route_to_theorem_a():
    # crystal-theorem-a compares components with Q-fibers and theorem-a
    # compares Q-fibers with left cells, so together they give all three
    for n in range(2, 6):
        for name in ("crystal-theorem-a", "theorem-a"):
            rep = run_suite(name, n)
            assert rep.ok, (name, rep.violations[:3])
    _ok(12, "crystal components = Q-fibers = left cells on words, n <= 5")


def _suite_child(suite, n):
    """The exit code, VmHWM peak in MB and stdout lines of `rscells --max-n 9
    --long verify SUITE N` in a fresh interpreter with no cache."""
    proc, peak_mb = run_child(MAIN, "--max-n", "9", "--long", "verify", suite, str(n))
    return proc.returncode, peak_mb, proc.stdout.splitlines(keepends=True)


@long_run
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.parametrize(
    "suite, criterion, peak_bound",
    # none of the three needs a KL table: crystal-theorem-a 8 takes about
    # 1.5 s at 45 MB, evacuation 8 and knuth 8 0.5 s at 29 MB and 0.2 s at
    # 26 MB; a bound near the S_8 table's 180 MB would miss a suite that
    # warms it again
    [("crystal-theorem-a", 12, 75), ("evacuation", 9, 45), ("knuth", 8, 50)],
)
def test_permutation_suites_n8_long(suite, criterion, peak_bound):
    code, peak_mb, out = _suite_child(suite, 8)
    assert code == 0
    assert "cases: 40320\n" in out and "result: PASS\n" in out
    assert peak_mb < peak_bound, peak_mb
    _ok(criterion, f"{suite} passes for n = 8 (long)")


@long_run
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_criterion_12_crystal_route_n9_long():
    # 362,880 permutation words in 2,620 components: about 10-15 s at a 227
    # MB peak, with no KL table; the bound is that peak plus about 10 %
    code, peak_mb, out = _suite_child("crystal-theorem-a", 9)
    assert code == 0
    # the stdout of `rscells --max-n 9 --long verify crystal-theorem-a 9`
    # when the suite was first admitted at n = 9
    assert hashlib.sha256("".join(out).encode()).hexdigest() == (
        "00f633b900b4c558caf312aa25d2604737a4cf771f2e95955d3e0b86d4c2890e"
    )
    assert peak_mb < 250, peak_mb
    _ok(12, "crystal components = Q-fibers for n = 9 (long)")


@long_run
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.parametrize(
    "suite, criterion, digest, peak_bound",
    # neither builds a KL table: evacuation 9 takes about 2-2.5 s at a 149 MB
    # peak and knuth 9 about 1.5-2 s at 98 MB (3.5-3.7 s at 145 MB while it
    # searched each class on permutation tuples); each bound is that peak
    # plus about 10 %
    [
        ("evacuation", 9, "609c60f4c80cd0f30ea1a8db5e72eea42050a89524016e8e06d0875d6c743b56", 164),
        ("knuth", 8, "3eccd11a858d3695b536b2192ec13f0fb58da4d531ab5f2aefc56f767db3189d", 108),
    ],
)
def test_permutation_suites_n9_long(suite, criterion, digest, peak_bound):
    code, peak_mb, out = _suite_child(suite, 9)
    assert code == 0
    assert "cases: 362880\n" in out and "result: PASS\n" in out
    # the stdout of `rscells --max-n 9 --long verify SUITE 9` while
    # evacuation slid through a dict of cells
    assert hashlib.sha256("".join(out).encode()).hexdigest() == digest
    assert peak_mb < peak_bound, peak_mb
    _ok(criterion, f"{suite} passes for n = 9 (long)")


def _all_rectifications(tab):
    if not tab.inner:
        return {tab.to_tableau()}
    out = set()
    for corner in inner_corners(tab.inner):
        out |= _all_rectifications(jdt_slide(tab, corner))
    return out


def _sub_partitions(outer):
    out = set()
    for m in range(sum(outer)):
        for mu in partitions(m):
            if len(mu) <= len(outer) and all(
                mu[i] <= outer[i] for i in range(len(mu))
            ):
                out.add(mu)
    return out


def test_criterion_13_rectification():
    for n in range(1, 6):
        for w in all_perms(n):
            assert rectify(permutation_tableau(w)) == p_symbol(w)
    # slide-order independence over every skew shape with at most 6 outer
    # cells (standard fillings) and over semistandard fillings on shapes
    # with at most 4 outer cells
    for outer_size in range(2, 7):
        for outer in partitions(outer_size):
            for inner in _sub_partitions(outer):
                if not inner or outer_size - sum(inner) > 5:
                    continue
                for t in standard_tableaux(outer, inner):
                    results = _all_rectifications(t)
                    assert len(results) == 1
                    assert results == {rectify(t)}
    for outer_size in (2, 3, 4):
        for outer in partitions(outer_size):
            for inner in _sub_partitions(outer):
                if not inner:
                    continue
                for t in column_strict_fillings(outer, 3, inner):
                    assert len(_all_rectifications(t)) == 1
    _ok(13, "rectification equals P-symbols and is slide-order independent")
