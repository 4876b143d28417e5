"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Long runs (n = 6, 7 and 8 for the cell/Q partition, n = 6 and 7 for the
bar-invariance certificate, n = 5 to 8 for the descent and mu/Knuth-move
checks, n = 6 for the crystal checks, n = 8 for crystal-theorem-a,
evacuation and knuth) are gated behind RSCELLS_LONG=1.
"""

import hashlib
import itertools
import os
import subprocess
import sys

import pytest

import rscells

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
    # 98,406 and 3,550,918 interval identities; n = 7 takes about 35 s
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


# the child reads its peak from VmHWM, the high-water mark of its own
# address space, as the S_8 warm test in test_kl.py does
_DJM_6 = """
from rscells.cli import main
code = main(["--long", "verify", "crystal-djm", "6"])
peak = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(code, int(peak.split()[1]) // 1024)
"""


@long_run
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_criterion_11_crystal_djm_n6_long():
    # 46,656 words in about 1 s at a 37 MB peak; building a Tableau per
    # word, operator and reading word took 8-11 s and 92 MB
    src = os.path.dirname(os.path.dirname(rscells.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _DJM_6], env=env, capture_output=True, text=True, check=True,
        timeout=300,
    ).stdout
    *report, last = out.splitlines(keepends=True)
    code, peak_mb = map(int, last.split())
    assert code == 0
    assert "".join(report).endswith("cases: 46656\nviolations: 0\nresult: PASS\n")
    # the stdout of `rscells --long verify crystal-djm 6` while the suite
    # built a Tableau per word, operator and reading word
    assert hashlib.sha256("".join(report).encode()).hexdigest() == (
        "9fa12caf3126e1c889e7361b41097af1a19ebe2630b753493ea468d50d1ec423"
    )
    assert peak_mb < 60, peak_mb
    _ok(11, "DJM checks pass for n = r = 6 (long)")


def test_criterion_12_crystal_route_to_theorem_a():
    for n in range(2, 6):
        rep = run_suite("crystal-theorem-a", n)
        assert rep.ok, rep.violations[:3]
    _ok(12, "crystal components = Q-fibers = left cells on words, n <= 5")


# the child reads its peak from VmHWM, as test_criterion_11_crystal_djm_n6_long does
_SUITE_8 = """
import contextlib, io, sys
from rscells.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["--long", "verify", sys.argv[1], "8"])
peak = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(code, int(peak.split()[1]) // 1024)
print(out.getvalue(), end="")
"""


@long_run
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.parametrize(
    "suite, criterion, peak_bound",
    # crystal-theorem-a 8 warms the S_8 table (about 15 s) and peaked at
    # 202 MB, 1 MB above theorem-a 8; with a cached e_op per word it peaked
    # at 287 MB.  evacuation 8 and knuth 8 need no table: 0.5 s at 29 MB and
    # 0.8 s at 33 MB
    [("crystal-theorem-a", 12, 230), ("evacuation", 9, 45), ("knuth", 8, 50)],
)
def test_permutation_suites_n8_long(suite, criterion, peak_bound):
    src = os.path.dirname(os.path.dirname(rscells.__file__))
    env = {k: v for k, v in os.environ.items() if k != "RSCELLS_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", _SUITE_8, suite], env=env, capture_output=True, text=True,
        check=True, timeout=900,
    ).stdout.splitlines()
    code, peak_mb = map(int, out[0].split())
    assert code == 0
    assert "cases: 40320" in out and "result: PASS" in out
    assert peak_mb < peak_bound, peak_mb
    _ok(criterion, f"{suite} passes for n = 8 (long)")


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
