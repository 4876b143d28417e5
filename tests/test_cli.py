import hashlib
import json
import os

import pytest

from children import MAIN, run_child
from rscells.cli import (
    CRYSTAL_GRAPH_MAX_DEGREE,
    EXIT_BOUNDS,
    EXIT_INPUT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VIOLATION,
    SUITE_MAX_DEGREE,
    main,
)
from rscells.crystal import MAX_WORDS
from rscells.kl import WARM_MAX_DEGREE
from rscells.permutations import MAX_DEGREE
from rscells.verify import _TABLE_SUITES, SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rsk(capsys):
    code, out, _ = run(capsys, "rsk", "31524")
    assert code == EXIT_OK
    assert out == "P:\n1 2 4\n3 5\nQ:\n1 3 5\n2 4\n"


def test_rsk_single(capsys):
    code, out, _ = run(capsys, "rsk", "1")
    assert code == EXIT_OK
    assert out == "P:\n1\nQ:\n1\n"


def test_rsk_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "rsk", "31524")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["P"] == {"rows": [[1, 2, 4], [3, 5]]}
    assert data["Q"] == {"rows": [[1, 3, 5], [2, 4]]}


def test_rsk_inverse(capsys):
    code, out, _ = run(
        capsys,
        "rsk-inverse",
        '{"rows": [[1, 2, 4], [3, 5]]}',
        '{"rows": [[1, 3, 5], [2, 4]]}',
    )
    assert code == EXIT_OK
    assert out == "31524\n"


def test_rsk_inverse_bad_input(capsys):
    code, _, err = run(capsys, "rsk-inverse", '{"rows": [[1, 2]]}', '{"rows": [[1], [2]]}')
    assert code == EXIT_INPUT
    assert "error" in err


def test_degree_0_exits_3(capsys):
    # two empty tableaux are a degree-0 input, like the empty permutation
    for argv in (
        ("rsk-inverse", '{"rows": []}', '{"rows": []}'),
        ("rsk", "[]"),
        ("klpoly", "[]", "[]"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_BOUNDS, "", "error: degree 0 outside 1..8\n"), argv


@pytest.mark.parametrize(
    "p",
    [
        '{"rows": 5}',
        '{"rows": [1, 2]}',
        '{"rows": [[1]], "inner": "x"}',
        '{"rows": [[1]], "inner": [1]}',
        '{"rows": [[1], "2"]}',
        '{"rows": [[1.5]]}',
        '{"rows": [[true]]}',
        '{"rows": [[1, 2], [true]]}',
        '{"rows": [[1]], "extra": 0}',
        '[[1]]',
    ],
)
def test_rsk_inverse_malformed_tableau_json(capsys, p):
    # a tableau must be {"rows": <list of lists of integers>} and nothing else
    for argv in ((p, '{"rows": [[1]]}'), ('{"rows": [[1]]}', p)):
        code, out, err = run(capsys, "rsk-inverse", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: ")


def test_malformed_permutation(capsys):
    code, _, err = run(capsys, "rsk", "31324")
    assert code == EXIT_INPUT
    assert "error" in err
    # JSON true is not the integer 1
    for argv in (
        ("rsk", "[true]"),
        ("rsk", "[2, true]"),
        ("klpoly", "[true, 2]", "[2, 1]"),
        ("klpoly", "[1, 2]", "[2, true]"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert "error" in err


def test_klpoly(capsys):
    assert run(capsys, "klpoly", "123", "321")[:2] == (EXIT_OK, "1\n")
    assert run(capsys, "klpoly", "1324", "3412")[:2] == (EXIT_OK, "1 + q\n")
    assert run(capsys, "klpoly", "321", "123")[:2] == (EXIT_OK, "0\n")


def test_klpoly_degree_mismatch(capsys):
    code, _, _ = run(capsys, "klpoly", "12", "123")
    assert code == EXIT_INPUT


def test_cells_text(capsys):
    code, out, _ = run(capsys, "cells", "3", "left")
    assert code == EXIT_OK
    assert out == "123\n132 231\n213 312\n321\n"
    code, out, _ = run(capsys, "cells", "1", "left")
    assert code == EXIT_OK
    assert out == "1\n"


def test_cells_count_s4(capsys):
    code, out, _ = run(capsys, "cells", "4", "left")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 10


def test_cells_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "cells", "3", "right")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["side"] == "right"
    assert sorted(map(tuple, data["cells"])) == [
        ("123",),
        ("132", "312"),
        ("213", "231"),
        ("321",),
    ]


def test_bound_exceeded(capsys):
    code, _, err = run(capsys, "cells", "9", "left")
    assert code == EXIT_BOUNDS
    code, _, _ = run(capsys, "--max-n", "4", "cells", "5", "left")
    assert code == EXIT_BOUNDS


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "3", "mu")
    assert code == EXIT_OK
    assert out.startswith("digraph left_cell_graph_3 {")
    assert '"213" -> "312"' in out
    code, out, _ = run(capsys, "--format", "json", "graph", "3", "mu")
    data = json.loads(out)
    assert ["213", "312"] in data["edges"]


# sha256 of stdout of the cell commands for n = 1..6, recorded before the
# cell graph moved onto the KL table's ranks; "text cells 4 left" runs
# `rscells --format text cells 4 left`
CELL_OUTPUT_SHA256 = {
    "text cells 1 left": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "json cells 1 left": "3a603d40cdd6b5e38f676c41e7e4357bc09f61c32662b609c6997816a6702ef6",
    "text cells 1 right": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "json cells 1 right": "6e5037d2c4aa6f793dbf8dd736f30a036101e11544f756028366ba0ef5c48451",
    "dot graph 1 mu": "3732453c0b9d87866ecd49178036d7b591cbb1eedbe36bbdfb9f900f2e344012",
    "json graph 1 mu": "470a7f3dc39ec2bfd1bbe0c78ab8bee0a02791d690861d8f2e69604535803b69",
    "text cells 2 left": "cfd298c6283ddd22fd12eb45fb822aabec5cbde43b12549ebc19950e00e5d329",
    "json cells 2 left": "1bef3e1217aa61ccbae8c791197b7e70e24f26286048b0edca03db295d46e99e",
    "text cells 2 right": "cfd298c6283ddd22fd12eb45fb822aabec5cbde43b12549ebc19950e00e5d329",
    "json cells 2 right": "375e043b849060971dc8c46a5fee9e784d0702c6d48c52be9886ed110eaecefe",
    "dot graph 2 mu": "42330828db9d7e5b13cb34ea3596390b05959ec4632c64ef2c142612c595e12f",
    "json graph 2 mu": "05d0ee5ba1ca61b7e0820e00699f4c5ef68fb04c9fe07eae9337ef6f6045137a",
    "text cells 3 left": "5f30ee795b9cec54704f81edc05d85a29f8874aa7b327b39ac3c69acb16f98d3",
    "json cells 3 left": "56af27c31566d4ee2c285486267713d5ec6d069d8ac6582006de1ddcc3f7dd16",
    "text cells 3 right": "769e41107fd3fb1a00df10d8f88bf6bc90a68fc26dfb4d1ea3620f82b73f8485",
    "json cells 3 right": "bb22eef89208c700e76ba5ec50c0eb30ca6890bb1700b3c09b13732ddc666cd5",
    "dot graph 3 mu": "788618cb1314e7d02b2ba3cfb8359921b28b02a040b873838c9ed7657d3dbd5e",
    "json graph 3 mu": "1686f414fe3d314703274182bea42ec30467da7d19c0acc2ec2ef2b8ed5b996e",
    "text cells 4 left": "893ec10dee6ef58db56db2c8df26254d20a5687c2acd8fa1c8c9fc69075904fe",
    "json cells 4 left": "de380dabde4097f9b4469d49c6aefcae82fe9809bfe30c1881c437175892f33e",
    "text cells 4 right": "1210b282c948963ba8e9c6dc49e3844c36de850805c1dd1a05af9b717e98a76f",
    "json cells 4 right": "0b933de0fa46ead96231bdcbcf8c77a33f29e853f6dd1ea4945ea050e3575085",
    "dot graph 4 mu": "f40e5c41db307bec53cfeaa68d6dc0c413266049f4a2c721d912d4b63054d93b",
    "json graph 4 mu": "ff0ad28950851687ec7ea7077162afc5d0dda62094fc0f7ca400881a12dc4648",
    "text cells 5 left": "68302064e0fd31138211792345a070a12927de2d3bda0fb79341ad68dc5514d0",
    "json cells 5 left": "3cc800babbb4b4cb3918a5f38eeb73ae2796c01df31614b0c7b782a514facda8",
    "text cells 5 right": "87c4005e2094e834c44fa7b1d62c250c6fdc1c5a075561020571536f5be29333",
    "json cells 5 right": "471407e192def06108fb7d053391f0b033e1293dbf6aeeb6d338472da691e100",
    "dot graph 5 mu": "1d4137cf0424f7fc02a97b8b11ef954765366b7a146cfa5b530f40e44cfae9f9",
    "json graph 5 mu": "b246193ad6b82c48261465f3245bf159fd042d7562adbafc7c5c245da8d43b1f",
    "text cells 6 left": "8eb73769d21b3eaad667e2159ade06656c41f1260f5f32c3ac069bbc1a0dcc94",
    "json cells 6 left": "26d899a4c546d26e1561f428d3b57a5b30c1e94317b296de5899e5eaede7cac1",
    "text cells 6 right": "928bcdfde430325e030567aeab7eaac166d752ac924d66bdcff10610ca761dbf",
    "json cells 6 right": "ef51c9218dff3cee24bdc82119d2aa7b7fb7b886b71518623aa8b7fb3b138685",
    "dot graph 6 mu": "5103220388e2ce7fabe84ee524a67e15eeb0b0981475701d2444293c582fccc7",
    "json graph 6 mu": "746a2094e62b90bb7a6ad1f5482e014fa934e4885d5d28f5dd7f670af92a02f4",
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cell_outputs_are_pinned(capsys, n):
    for command, digest in CELL_OUTPUT_SHA256.items():
        fmt, *argv = command.split()
        if argv[1] != str(n):
            continue
        code, out, _ = run(capsys, "--format", fmt, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# sha256 of stdout of `rscells --format FMT graph N crystal`, recorded while
# the crystal was built from tuple operators
CRYSTAL_GRAPH_SHA256 = {
    "text graph 1 crystal": "9212c23eb6cbd98e28cf716bde5b6d8beea8fd043c38b202ec2815cf26695c97",
    "json graph 1 crystal": "23477081c49f9ee796652767472973fa5c7e453eb23ce143398109475aecd048",
    "text graph 2 crystal": "4a1d9d17d5ca39daae7de3d43436bef6bd2e6b3c184c87ee3673d784abfef11d",
    "json graph 2 crystal": "b0a1b779dd8bd758e29f9d923ec775379a41d14250fef70b9bcccdb4a6897ec6",
    "text graph 3 crystal": "0fc585a1a3ee2478c269ccdfdb755d7075428b1476296896a31d4f36c5d6d0b3",
    "json graph 3 crystal": "767bf49d912b2eb7d1f7295495f279083c71e0a2d7cd7ebd3b61843440dae289",
    "text graph 4 crystal": "a3f15bd9bbabdd074fd5c542cc200afe84ef231d18ed53f1e9f2186de8e895c0",
    "json graph 4 crystal": "5ebaaf804344cf837c237e8b1b71189c8a23dc6baec1d3163293d56360edd09e",
    "text graph 5 crystal": "aa372f7cccebc0aa3b94bc5a56fe197f5739110e501575a3e64bdba15db6cf85",
    "json graph 5 crystal": "8352c59ab07ff7d98d64e569089b0a81f303875096212e55182733547ef28dbe",
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_crystal_graph_outputs_are_pinned(capsys, n):
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "--format", fmt, "graph", str(n), "crystal")
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == CRYSTAL_GRAPH_SHA256[f"{fmt} graph {n} crystal"], (fmt, n)


def test_graph_crystal(capsys):
    code, out, _ = run(capsys, "graph", "2", "crystal")
    assert code == EXIT_OK
    assert '"11" -> "12" [label="f1"]' in out


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "theorem-a", "3")
    assert code == EXIT_OK
    assert "result: PASS" in out
    code, _, err = run(capsys, "verify", "theorem-a", "6")
    assert code == EXIT_BOUNDS
    assert "--long" in err


def test_verify_bar_invariance_4(capsys):
    code, out, _ = run(capsys, "verify", "bar-invariance", "4")
    assert code == EXIT_OK
    assert "cases: 24" in out and "result: PASS" in out


def _same_without_cache(capsys, cache, argv):
    """Assert that ``argv`` exits and prints with --cache-dir ``cache`` as
    it does with no cache directory."""
    expected = run(capsys, *argv)[:2]
    assert run(capsys, "--cache-dir", cache, *argv)[:2] == expected, argv


def test_verify_bar_invariance_ignores_a_deleted_cache_record(capsys, tmp_path):
    cache = str(tmp_path)
    run(capsys, "--cache-dir", cache, "cache", "warm", "5")
    path = tmp_path / "kl_s5.tsv"
    lines = path.read_text().splitlines(keepends=True)
    record = next(line for line in lines if line.startswith("13254\t34512\t"))
    lines.remove(record)
    path.write_text("".join(lines))
    # the certificate runs on computed columns; its own count of a column
    # is tests/test_verify.py's deleted-entry case
    _same_without_cache(capsys, cache, ("verify", "bar-invariance", "5"))


def test_a_deleted_record_signed_again_exits_4(capsys, tmp_path):
    # the file holds no count, offset or checksum, so only the comparison
    # with the recomputed table finds the edit
    cache = str(tmp_path)
    run(capsys, "--cache-dir", cache, "cache", "warm", "4")
    path = tmp_path / "kl_s4.tsv"
    clean = path.read_text()
    lineno = clean.splitlines().index("1324\t3412\t1,1") + 1
    path.write_text(clean.replace("1324\t3412\t1,1\n", ""))
    code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "1324", "3412")
    assert (code, out) == (EXIT_OK, "1 + q\n")
    _same_without_cache(capsys, cache, ("verify", "theorem-a", "4"))
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "info")
    assert (code, out) == (EXIT_IO, "")
    # the record after the deleted one moved up into its line
    following = clean.splitlines()[lineno]
    assert f"{path}:{lineno}: differs from the recomputed S_4: {following!r}" in err
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "warm", "4")
    assert (code, out) == (EXIT_OK, "warmed S_4: 58 entries\n")
    assert path.read_text() == clean


@pytest.mark.parametrize(
    "old, new",
    [("1324\t3412\t1,1\n", "1324\t3412\t1,2\n"),
     ("1324\t3412\t1,1\n", "1324\t3412\t1,1\n1324\t3412\t1\n")],
    ids=["altered", "repeated"],
)
def test_an_edited_record_signed_again_is_never_served(capsys, tmp_path, old, new):
    # the file carries no checksum, so nothing but the comparison with the
    # recomputed table stands between the edit and a reader
    cache = str(tmp_path)
    run(capsys, "--cache-dir", cache, "cache", "warm", "4")
    path = tmp_path / "kl_s4.tsv"
    clean = path.read_text()
    path.write_text(clean.replace(old, new))
    lineno = next(
        k for k, (a, b) in enumerate(zip(path.read_text().splitlines(), clean.splitlines()), 1)
        if a != b
    )
    code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "1324", "3412")
    assert (code, out) == (EXIT_OK, "1 + q\n")
    for suite in ("theorem-a", "bar-invariance"):
        _same_without_cache(capsys, cache, ("verify", suite, "4"))
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "info", "4")
    assert (code, out) == (EXIT_IO, "")
    assert f"error: {path}:{lineno}: differs from the recomputed S_4: " in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "knuth", "4")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["result"] == "pass"
    assert data["violations"] == []


def test_outputs_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "cells", "4", "left")
    _, out2, _ = run(capsys, "cells", "4", "left")
    assert out1 == out2
    _, out1, _ = run(capsys, "--format", "json", "verify", "evacuation", "4")
    _, out2, _ = run(capsys, "--format", "json", "verify", "evacuation", "4")
    assert out1 == out2


def test_cache_workflow(capsys, tmp_path):
    cache = str(tmp_path)
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "info")
    assert code == EXIT_OK
    assert out.endswith("total: 0 entries\n")
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "warm", "4")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "info")
    assert code == EXIT_OK
    assert "kl_s4.tsv" in out and "total: 58 entries" in out
    # warm is reproducible
    data1 = (tmp_path / "kl_s4.tsv").read_bytes()
    run(capsys, "--cache-dir", cache, "cache", "warm", "4")
    assert (tmp_path / "kl_s4.tsv").read_bytes() == data1
    # klpoly answers with a cache directory too
    code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "1324", "3412")
    assert (code, out) == (EXIT_OK, "1 + q\n")
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "clear")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "info")
    assert out.endswith("total: 0 entries\n")


def test_cache_info_and_clear_of_one_degree(capsys, tmp_path):
    cache = str(tmp_path)
    for n in ("3", "4"):
        assert run(capsys, "--cache-dir", cache, "cache", "warm", n)[0] == EXIT_OK
    s4 = (tmp_path / "kl_s4.tsv").read_bytes()
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "info", "4")
    assert (code, out) == (EXIT_OK, "kl_s4.tsv: 58 entries\ntotal: 58 entries\n")
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "info", "5")
    assert (code, out) == (EXIT_OK, "total: 0 entries\n")
    # a right-sided file of degree 3, which older versions wrote, goes with
    # kl_s3.tsv; info of one degree reads kl_sN.tsv only
    (tmp_path / "kl_s3.right.tsv").write_bytes(b"")
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "info", "3")
    assert (code, out) == (EXIT_OK, "kl_s3.tsv: 8 entries\ntotal: 8 entries\n")
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "clear", "3")
    assert (code, out) == (EXIT_OK, "removed 2 file(s)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["kl_s4.tsv"]
    assert (tmp_path / "kl_s4.tsv").read_bytes() == s4
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "clear", "3")
    assert (code, out) == (EXIT_OK, "removed 0 file(s)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("cache", "info", "12"),
        ("cache", "info", "0"),
        ("cache", "clear", "0"),
        ("cache", "clear", "12"),
        ("cache", "clear", "9"),
        ("--max-n", "3", "cache", "clear", "4"),
    ],
)
def test_cache_info_and_clear_refuse_a_degree_out_of_range(capsys, tmp_path, argv):
    cache = str(tmp_path)
    assert run(capsys, "--cache-dir", cache, "cache", "warm", "4")[0] == EXIT_OK
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, out, err = run(capsys, "--cache-dir", cache, *argv)
    assert (code, out) == (EXIT_BOUNDS, "")
    assert err.startswith("error: degree ")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv", [("cache", "info"), ("--max-n", "9", "cache", "info", "9")])
def test_cache_info_refuses_a_file_above_the_warm_cap(capsys, tmp_path, monkeypatch, argv):
    # checking kl_s9.tsv would compute all of S_9, so the file is refused
    # before any table, the S_3 file's included
    (tmp_path / "kl_s3.tsv").write_bytes(b"")
    (tmp_path / "kl_s9.tsv").write_bytes(b"")
    _forbid_tables(monkeypatch)
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), *argv)
    assert (code, out) == (EXIT_BOUNDS, "")
    assert err == f"error: cache info stops at degree {WARM_MAX_DEGREE}, got 9\n"


def test_cache_env_var_overrides_flag(capsys, tmp_path, monkeypatch):
    envdir = tmp_path / "env"
    flagdir = tmp_path / "flag"
    monkeypatch.setenv("RSCELLS_CACHE_DIR", str(envdir))
    code, _, _ = run(capsys, "--cache-dir", str(flagdir), "cache", "warm", "3")
    assert code == EXIT_OK
    assert (envdir / "kl_s3.tsv").exists()
    assert not flagdir.exists()


def test_cache_warm_ignores_squatted_temp_name(capsys, tmp_path):
    (tmp_path / "kl_s3.tsv.tmp").mkdir()
    code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "cache", "warm", "3")
    assert (code, out) == (EXIT_OK, "warmed S_3: 8 entries\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kl_s3.tsv", "kl_s3.tsv.tmp"]


@pytest.mark.parametrize(
    "record",
    [
        "1234\t2134",  # missing field
        "1234\t2134\t1,x",  # non-integer coefficient
        "9999\t2134\t1",  # not a permutation
        "123\t213\t1",  # a permutation of the wrong degree
    ],
    ids=["missing-field", "bad-coefficient", "non-permutation", "wrong-degree"],
)
def test_bad_cache_record_exits_4(capsys, tmp_path, record):
    cache = str(tmp_path)
    run(capsys, "--cache-dir", cache, "cache", "warm", "4")
    path = tmp_path / "kl_s4.tsv"
    path.write_text(path.read_text() + record + "\n")
    code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "1234", "4321")
    assert (code, out) == (EXIT_OK, "1\n")
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "info", "4")
    assert (code, out) == (EXIT_IO, "")
    # line 1 is the version line, lines 2-59 the 58 records
    assert f"{path}:60: differs from the recomputed S_4: {record!r}" in err


def test_cache_warm_repairs_a_bad_cache_file(capsys, tmp_path):
    cache = str(tmp_path)
    run(capsys, "--cache-dir", cache, "cache", "warm", "4")
    path = tmp_path / "kl_s4.tsv"
    clean = path.read_bytes()
    for bad in (b"123\t213\t1\n", b"1234\t2134\t\xff\n"):
        path.write_bytes(clean + bad)
        code, out, err = run(capsys, "--cache-dir", cache, "cache", "warm", "4")
        assert (code, out) == (EXIT_OK, "warmed S_4: 58 entries\n")
        assert err.startswith("completed in ")
        assert path.read_bytes() == clean
        code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "1234", "4321")
        assert (code, out) == (EXIT_OK, "1\n")
        code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "1324", "3412")
        assert (code, out) == (EXIT_OK, "1 + q\n")


@pytest.mark.parametrize(
    "coeffs",
    ["1_0, +1", " 1,1", "1,\u0662"],
    ids=["underscore-and-sign", "leading-space", "non-ascii-digit"],
)
def test_coefficients_must_be_ascii_integers(capsys, tmp_path, coeffs):
    # int() takes each of these texts, but save() never writes them
    cache = str(tmp_path)
    run(capsys, "--cache-dir", cache, "cache", "warm", "4")
    path = tmp_path / "kl_s4.tsv"
    clean = path.read_text(encoding="utf-8")
    record = "1324\t3412\t1,1"
    lineno = clean.splitlines().index(record) + 1
    path.write_text(clean.replace(record, f"1324\t3412\t{coeffs}"), encoding="utf-8")
    code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "1324", "3412")
    assert (code, out) == (EXIT_OK, "1 + q\n")
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "info")
    assert (code, out) == (EXIT_IO, "")
    assert f"{path}:{lineno}: differs from the recomputed S_4: " in err
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "warm", "4")
    assert (code, out) == (EXIT_OK, "warmed S_4: 58 entries\n")
    assert path.read_text(encoding="utf-8") == clean
    code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "1324", "3412")
    assert (code, out) == (EXIT_OK, "1 + q\n")


def _delete_record(data: bytes) -> bytes:
    return data.replace(b"13254\t34512\t1,1\n", b"", 1)


def _raise_a_one(data: bytes) -> bytes:
    # the first raised y under 34512 whose polynomial is 1
    lines = data.splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if line.endswith(b"\t34512\t1\n"))
    lines[k] = lines[k][: -len(b"1\n")] + b"7,7\n"
    return b"".join(lines)


def _append_record(data: bytes) -> bytes:
    return data + b"12345\t34512\t1\n"


def _strip_version_line(data: bytes) -> bytes:
    # a file of format 1: the records alone
    return data.split(b"\n", 1)[1]


def _over_the_degree_bound(data: bytes) -> bytes:
    # the record before P_{w,w} in column 34512 is one length below w, so
    # its degree bound is 0
    lines = data.splitlines(keepends=True)
    k = lines.index(b"34512\t34512\t1\n") - 1
    assert lines[k].endswith(b"\t34512\t1\n")
    lines[k] = lines[k][: -len(b"1\n")] + b"1,1\n"
    return b"".join(lines)


def _diagonal_not_one(data: bytes) -> bytes:
    return data.replace(b"34512\t34512\t1\n", b"34512\t34512\t1,1\n")


# the two ids ending in -signed, over-the-degree-bound-signed and
# diagonal-not-one-signed, name edits that a file of format 2 had to be
# signed again to carry; format 3 has no signature, so every edit here is
# found only by the comparison with the recomputed table
@pytest.mark.parametrize(
    "edit",
    [_delete_record, _raise_a_one, _append_record, _strip_version_line,
     _over_the_degree_bound, _diagonal_not_one],
    ids=["deleted-record", "raised-one-to-7-7", "appended-record", "legacy-v1",
         "over-the-degree-bound-signed", "diagonal-not-one-signed"],
)
def test_an_edited_cache_file_is_refused_and_rebuilt(capsys, tmp_path, edit):
    cache = str(tmp_path)
    run(capsys, "--cache-dir", cache, "cache", "warm", "5")
    path = tmp_path / "kl_s5.tsv"
    clean = path.read_bytes()
    edited = edit(clean)
    assert edited != clean
    path.write_bytes(edited)
    pairs = zip(edited.splitlines(), clean.splitlines())
    lineno = next(
        (k for k, (a, b) in enumerate(pairs, 1) if a != b), len(clean.splitlines()) + 1
    )
    code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "13254", "34512")
    assert (code, out) == (EXIT_OK, "1 + q\n")
    _same_without_cache(capsys, cache, ("verify", "theorem-a", "5"))
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "info")
    assert (code, out) == (EXIT_IO, "")
    assert f"{path}:{lineno}: differs from the recomputed S_5: " in err
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "warm", "5")
    assert (code, out) == (EXIT_OK, "warmed S_5: 682 entries\n")
    assert path.read_bytes() == clean
    code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "13254", "34512")
    assert (code, out) == (EXIT_OK, "1 + q\n")


@pytest.mark.parametrize("n", [4, 6])
def test_a_file_cut_before_its_last_column_exits_4(capsys, tmp_path, n):
    # nothing in the file says how long it is, so only the comparison with
    # the recomputed table finds that it ends early
    cache = str(tmp_path)
    run(capsys, "--cache-dir", cache, "cache", "warm", str(n))
    path = tmp_path / f"kl_s{n}.tsv"
    clean = path.read_bytes()
    lines = clean.splitlines(keepends=True)
    # the last column, that of w0, starts at its first record
    w0 = "".join(map(str, range(n, 0, -1))).encode()
    k = next(k for k, line in enumerate(lines[1:], 1) if line.split(b"\t")[1] == w0)
    assert 1 < k < len(lines)
    path.write_bytes(b"".join(lines[:k]))
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "info")
    assert (code, out) == (EXIT_IO, "")
    # line k + 1, the first record of the missing column, reads as nothing
    assert err == f"error: {path}:{k + 1}: differs from the recomputed S_{n}: ''\n"
    for argv in (("klpoly", "1324", "3412"), ("klpoly", "132456", "341256")):
        code, out, _ = run(capsys, "--cache-dir", cache, *argv)
        assert (code, out) == (EXIT_OK, "1 + q\n"), argv
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "warm", str(n))
    assert code == EXIT_OK
    assert path.read_bytes() == clean


def _format_2(data: bytes) -> bytes:
    """The file of format 2 with the records of ``data``: version 2, and a
    trailer giving the record count, the offset of each column and the
    sha256 of everything before it."""
    header, *records = data.splitlines(keepends=True)
    body = header.replace(b" 3 ", b" 2 ", 1)
    offsets: dict[bytes, int] = {}
    for line in records:
        offsets.setdefault(line.split(b"\t")[1], len(body))
        body += line
    listing = b",".join(b"%s:%d" % item for item in offsets.items())
    body += b"#end %d %s " % (len(records), listing)
    return body + hashlib.sha256(body).hexdigest().encode() + b"\n"


# the sha256 of kl_s5.tsv as the writer of format 2 made it
S5_FORMAT_2_SHA256 = "ae4838b0afcaf146fb1aa85076d70900013bea8dfd12c3e22d603b1f28f530f3"


def test_a_file_of_format_2_is_refused_at_line_1_and_rebuilt(capsys, tmp_path):
    cache = str(tmp_path)
    run(capsys, "--cache-dir", cache, "cache", "warm", "5")
    path = tmp_path / "kl_s5.tsv"
    clean = path.read_bytes()
    old = _format_2(clean)
    assert hashlib.sha256(old).hexdigest() == S5_FORMAT_2_SHA256
    path.write_bytes(old)
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "info")
    assert (code, out) == (EXIT_IO, "")
    assert err == f"error: {path}:1: differs from the recomputed S_5: '#rscells-kl 2 S_5 left'\n"
    code, out, _ = run(capsys, "--cache-dir", cache, "klpoly", "13254", "34512")
    assert (code, out) == (EXIT_OK, "1 + q\n")
    code, out, _ = run(capsys, "--cache-dir", cache, "cache", "warm", "5")
    assert (code, out) == (EXIT_OK, "warmed S_5: 682 entries\n")
    assert path.read_bytes() == clean


def test_cache_info_counts_valid_files(capsys, tmp_path):
    from rscells.kl import KLTable

    for n in (3, 4, 5):
        tbl = KLTable(n, cache_dir=tmp_path)
        tbl.warm()
        tbl.save()
    # one record per line after the version line
    counts = {
        f.name: len(f.read_text().splitlines()) - 1 for f in sorted(tmp_path.glob("kl_s*.tsv"))
    }
    expected = "".join(f"{name}: {c} entries\n" for name, c in counts.items())
    expected += f"total: {sum(counts.values())} entries\n"
    code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "cache", "info")
    assert (code, out) == (EXIT_OK, expected)
    assert out.startswith("kl_s3.tsv: 8 entries\nkl_s4.tsv: 58 entries\n")
    # blank lines, which save() never writes, are refused
    s4 = tmp_path / "kl_s4.tsv"
    clean = s4.read_bytes()
    s4.write_text(s4.read_text() + "\n  \n")
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "info")
    assert (code, out) == (EXIT_IO, "kl_s3.tsv: 8 entries\n")
    assert f"{s4}:60: differs from the recomputed S_4: ''" in err
    s4.write_bytes(clean)
    # a right-sided file, which older versions wrote, is not a cache file
    # name: info refuses it and clear removes it with the others
    stray = s4.read_bytes().replace(b" left\n", b" right\n", 1)
    (tmp_path / "kl_s4.right.tsv").write_bytes(stray)
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), "cache", "info")
    assert code == EXIT_IO
    assert "total" not in out
    assert "kl_s4.right.tsv: not a KL cache file name" in err
    code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "cache", "clear")
    assert (code, out) == (EXIT_OK, "removed 4 file(s)\n")
    assert list(tmp_path.iterdir()) == []


def test_cache_info_rejects_bad_records(capsys, tmp_path):
    cache = str(tmp_path)
    run(capsys, "--cache-dir", cache, "cache", "warm", "4")
    path = tmp_path / "kl_s4.tsv"
    path.write_text(path.read_text() + "123\t213\t1\n")
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "info")
    assert (code, out) == (EXIT_IO, "")
    assert f"{path}:60:" in err
    path.unlink()
    (tmp_path / "kl_sx.tsv").write_text("")
    code, out, err = run(capsys, "--cache-dir", cache, "cache", "info")
    assert (code, out) == (EXIT_IO, "")
    assert "kl_sx.tsv: not a KL cache file name" in err


def test_cache_needs_directory(capsys, monkeypatch):
    monkeypatch.delenv("RSCELLS_CACHE_DIR", raising=False)
    code, _, err = run(capsys, "cache", "info")
    assert code == EXIT_INPUT
    assert "cache directory" in err


def test_verify_reports_violations_with_exit_code_1(capsys, monkeypatch):
    # no real suite fails, so plant one to exercise the failure path
    import rscells.verify as verify_mod
    from rscells.verify import Report

    def broken(n, table=None):
        rep = Report("theorem-a", n, cases=1)
        rep.violations.append("y=123 w=321 same-cell=True same-Q=False")
        return rep

    monkeypatch.setitem(verify_mod.SUITES, "theorem-a", broken)
    code, out, _ = run(capsys, "verify", "theorem-a", "3")
    assert code == EXIT_VIOLATION
    assert "result: FAIL" in out
    assert "y=123 w=321" in out


def test_graph_size_bound(capsys):
    for n in ("7", "8"):
        code, _, err = run(capsys, "graph", n, "crystal")
        assert code == EXIT_BOUNDS
        assert f"graph crystal stops at degree 6, got {n}" in err


def test_crystal_djm_word_bound_exits_3(capsys):
    code, out, err = run(capsys, "--long", "verify", "crystal-djm", "7")
    assert code == EXIT_BOUNDS
    assert out == ""
    assert "verify crystal-djm stops at degree 6, got 7" in err


def test_hard_max_n_bound(capsys):
    code, _, err = run(capsys, "--max-n", "12", "cells", "3", "left")
    assert code == EXIT_INPUT
    assert "--max-n" in err


# the calls that start a run's work, each on the module the CLI looks it up
# in: verify and graph N crystal import their module when they run
_WORK = ["rscells.cli.KLTable", "rscells.verify.run_suite", "rscells.crystal.crystal_edges"]


def _stub(monkeypatch, targets, error=AssertionError):
    """Replace each of ``targets``, dotted names, by a callable that raises
    ``error`` with its arguments."""

    def stub(*args, **kwargs):
        raise error("work started", *args)

    for target in targets:
        monkeypatch.setattr(target, stub)


def _forbid_tables(monkeypatch):
    # run_suite builds the table of a suite that reads one
    _stub(monkeypatch, ["rscells.cli.KLTable", "rscells.verify.KLTable"])


# every run with a degree cap: its argv with {n} for the degree, its name in
# refusals, and its cap
_CAPPED_RUNS = [
    (("cache", "warm", "{n}"), "cache warm", WARM_MAX_DEGREE),
    (("cells", "{n}"), "cells", WARM_MAX_DEGREE),
    (("graph", "{n}", "mu"), "graph mu", WARM_MAX_DEGREE),
    (("graph", "{n}", "crystal"), "graph crystal", CRYSTAL_GRAPH_MAX_DEGREE),
] + [
    (("--long", "verify", suite, "{n}"), f"verify {suite}", cap)
    for suite, cap in sorted(SUITE_MAX_DEGREE.items())
]


def _param(argv, n, *rest):
    """The run ``argv`` at degree n, named by its last three arguments."""
    argv = tuple(a.format(n=n) for a in argv)
    return pytest.param(argv, n, *rest, id=" ".join(argv[-3:]))


@pytest.mark.parametrize(
    "argv, n, name, cap",
    [
        _param(argv, n, name, cap)
        for argv, name, cap in _CAPPED_RUNS
        for n in [cap + 1] + ([MAX_DEGREE] if cap + 1 < MAX_DEGREE else [])
    ],
)
def test_runs_that_warm_every_column_stop_at_degree_8(
    capsys, tmp_path, monkeypatch, argv, n, name, cap
):
    # each run is refused at cap + 1 and at 9, the largest --max-n, before it
    # builds a KLTable, opens a cache file or lists a word; --max-n refuses a
    # run capped at 9 at 10.  Runs that warm every column stop at 8 because a
    # full S_9 table does not fit in memory
    _stub(monkeypatch, _WORK)
    code, out, err = run(capsys, "--max-n", "9", "--cache-dir", str(tmp_path), *argv)
    assert (code, out) == (EXIT_BOUNDS, "")
    if cap < MAX_DEGREE:
        assert f"error: {name} stops at degree {cap}, got {n}\n" == err
    else:
        assert f"error: degree {n} outside 1..9\n" == err
    assert list(tmp_path.iterdir()) == []


def test_every_suite_has_a_cap_and_the_crystal_caps_fit_the_word_bound():
    # a crystal run at its cap must not reach the library's ValueError
    assert set(SUITE_MAX_DEGREE) == set(SUITES)
    for cap in (CRYSTAL_GRAPH_MAX_DEGREE, SUITE_MAX_DEGREE["crystal-djm"]):
        assert cap**cap <= MAX_WORDS


class _Admitted(Exception):
    pass


@pytest.mark.parametrize("argv, n", [_param(argv, cap) for argv, _name, cap in _CAPPED_RUNS])
def test_runs_at_their_cap_are_admitted(tmp_path, monkeypatch, argv, n):
    # the run passes its checks and starts its work at degree n, which the
    # stubs stop
    _stub(monkeypatch, _WORK, _Admitted)
    with pytest.raises(_Admitted) as started:
        main(["--max-n", "9", "--cache-dir", str(tmp_path), *argv])
    assert n in started.value.args


def test_bar_invariance_stops_at_degree_7(capsys, tmp_path, monkeypatch):
    # 170,288,585 interval identities at n = 8, refused before any table
    _forbid_tables(monkeypatch)
    argv = ("--cache-dir", str(tmp_path), "--long", "verify", "bar-invariance", "8")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_BOUNDS, "")
    assert "verify bar-invariance stops at degree 7, got 8" in err
    assert list(tmp_path.iterdir()) == []


def test_suites_that_read_no_kl_polynomials_build_no_table(capsys, monkeypatch):
    _forbid_tables(monkeypatch)
    for suite in sorted(set(SUITES) - _TABLE_SUITES):
        code, out, _ = run(capsys, "verify", suite, "3")
        assert code == EXIT_OK, suite
        assert "result: PASS" in out


def _main_child(*argv):
    """Exit code, VmHWM peak in MB and stdout lines of ``main(argv)`` in a
    fresh process with no cache directory from the environment."""
    proc, peak_mb = run_child(MAIN, *argv)
    return proc.returncode, peak_mb, proc.stdout.splitlines()


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_theorem_a_8_peak_memory_long():
    # about 4-5 s at 78 MB with no cache, and the bound is that peak plus
    # about 10 % (it was 100 MB before a table kept its columns and mu lists
    # in one flat store each); the cell graph walks the columns in length
    # order, so each length layer of Bruhat supports is dropped as in warm()
    code, peak_mb, lines = _main_child("--long", "verify", "theorem-a", "8")
    assert code == EXIT_OK
    assert "cells: 764" in lines and "result: PASS" in lines
    assert peak_mb < 86, peak_mb


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_s8_cache_check_peak_memory_long(tmp_path):
    # cache warm 8 writes the 208 MB file in about 10 s.  cache info 8
    # computes S_8 again and compares the file with it, about 10 s at a
    # 69 MB peak (82 MB before the flat column store); reading the file used
    # to take 286-295 MB.  A klpoly with
    # that cache directory reads none of it: about 0.15 s at 30 MB, as with
    # no cache; it took 239-244 MB when it read the file.  Each bound is the measured peak plus about 10 %
    cache = str(tmp_path)
    code, _, lines = _main_child("--cache-dir", cache, "cache", "warm", "8")
    assert (code, lines) == (EXIT_OK, ["warmed S_8: 9551060 entries"])
    code, peak_mb, lines = _main_child("--cache-dir", cache, "cache", "info", "8")
    assert (code, lines) == (EXIT_OK, ["kl_s8.tsv: 9551060 entries", "total: 9551060 entries"])
    assert peak_mb < 76, peak_mb
    argv = ("klpoly", "12345678", "56781234")
    code, peak_mb, lines = _main_child("--cache-dir", cache, *argv)
    assert (code, lines) == (EXIT_OK, ["1 + 9q + 32q^2 + 53q^3 + 38q^4 + 11q^5 + q^6"])
    assert peak_mb < 33, peak_mb


# sha256 of the text and JSON stdout of `rscells --long verify bar-invariance
# 7`, recorded while the certificate read every value through the table's
# point lookup
BAR_INVARIANCE_7_SHA256 = {
    "text": "1dd00f01251b524ee1e57e4006bfa0bdd6eaff7964e3d3d6881076d72ef4b17a",
    "json": "a51c8e57383ca13b6791c416daed1dd42c3e12887ce8ef4c4dcb0f033252d439",
}


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bar_invariance_7_report_is_pinned_long(fmt):
    # about 5 s at a 21 MB peak, and the bound is that peak plus about 10 %;
    # it took 14-21 s at 19 MB while the certificate read every value
    # through the point lookup
    proc, peak_mb = run_child(MAIN, "--format", fmt, "--long", "verify", "bar-invariance", "7")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == BAR_INVARIANCE_7_SHA256[fmt]
    assert peak_mb < 23, peak_mb


# sha256 of the stdout of the S_8 commands that walk every mu list: knuth-mu
# and cells recorded while each column and mu list of a KLTable was a pair
# of arrays of its own, the graph in DOT and JSON while graph N mu sorted
# the edges as string triples
S8_MU_WALK_SHA256 = {
    "knuth-mu": "2ad50a1489e980d64765df426373673dda414fe5eeaef31fb33abe7bd74521ac",
    "cells": "19d5d20d51c795559f1d0ec10e4f56a19421a5e91646f57024bd5fb2274a6a01",
    "graph-dot": "d1b03e793d32d754f2eda38cc1986045de1e901549aa827bbd8a37f1a4011749",
    "graph-json": "26ecedd65838c8ff6d2ddc41fed78ce1fd5709313a926bf7aa95bd8084e43e6f",
}


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.parametrize(
    "name, argv, bound",
    [
        ("knuth-mu", ("--long", "verify", "knuth-mu", "8"), 87),
        ("cells", ("cells", "8"), 86),
        ("graph-dot", ("graph", "8", "mu"), 127),
        ("graph-json", ("--format", "json", "graph", "8", "mu"), 150),
    ],
)
def test_s8_mu_list_walks_peak_memory_long(name, argv, bound):
    # knuth-mu 8 takes about 6-7 s at 79 MB and cells 8 about 4 s at 78 MB,
    # and each bound is that peak plus about 10 %; they took 110-113 and
    # 97-98 MB before the columns and mu lists of a table were kept in one
    # flat store each.  graph 8 mu takes about 3.3 s at 114-115 MB in DOT
    # and 130-136 MB in JSON, against 151-153 and 173 MB while it sorted
    # its edges as string triples
    proc, peak_mb = run_child(MAIN, *argv)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == S8_MU_WALK_SHA256[name]
    assert peak_mb < bound, peak_mb
