"""A CLI process imports only the layers its command runs, and the
package's exported names resolve, eagerly or on first use, to the objects
their modules define."""

import importlib
import json
import re
from pathlib import Path

import pytest

import rscells
from children import run_child

README = Path(__file__).resolve().parent.parent / "README.md"

# every name the package exports, by the submodule that defines it
EXPORTS = {
    name: module
    for module, names in {
        "permutations": "Perm all_permutations compose format_permutation identity inverse "
        "left_descents length longest_element multiply_simple parse_permutation right_descents",
        "polynomials": "IntPolynomial LaurentPoly",
        "tableaux": "Tableau evacuation insert_word p_symbol q_symbol reading_word rs_inverse",
        "knuth": "knuth_class knuth_neighbors",
        "kl": "KLTable default_table kl_polynomial mu mu_sym",
        "hecke": "HeckeElement bar c_prime canonical_basis_by_bar",
        "cells": "CellPartition cells left_cell_graph",
        "crystal": "CrystalComponent decompose e_op eps f_op phi signature_rule",
        "verify": "Report run_suite",
    }.items()
    for name in names.split()
}

# the modules that ``import rscells.cli`` loads
EAGER = {
    "rscells",
    "rscells.cells",
    "rscells.cli",
    "rscells.kl",
    "rscells.permutations",
    "rscells.polynomials",
}

# no module of the package imports these; typing may be loaded before the
# package by site hooks, and then it is never counted as added
NEVER = {"dataclasses", "typing"}

# `rscells ARGV...` in a fresh interpreter; the last stdout line lists the
# modules that the import of the CLI and then the whole run added to the
# interpreter's own
_LOADS = """
import json
import sys

base = set(sys.modules)
from rscells.cli import main
imported = set(sys.modules) - base
code = main(sys.argv[1:])
ran = set(sys.modules) - base
print(json.dumps({"code": code, "import": sorted(imported), "run": sorted(ran)}))
"""


@pytest.mark.parametrize(
    "argv, loads",
    [
        (("klpoly", "1324576", "4731562"), set()),
        (("cache", "warm", "5"), set()),
        (("graph", "4", "mu"), set()),
        (("rsk", "31524"), {"rscells.tableaux"}),
        (("graph", "3", "crystal"), {"rscells.crystal", "rscells.tableaux"}),
        (
            ("verify", "theorem-a", "4"),
            {"rscells.verify", "rscells.crystal", "rscells.tableaux", "rscells.hecke",
             "rscells.knuth"},
        ),
    ],
    ids=" ".join,
)
def test_a_cli_process_imports_only_the_layers_its_command_runs(tmp_path, argv, loads):
    proc, _peak = run_child(_LOADS, "--cache-dir", str(tmp_path), *argv, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    imported, ran = set(out["import"]), set(out["run"])
    assert {m for m in imported if m.startswith("rscells")} == EAGER
    assert {m for m in ran if m.startswith("rscells")} == EAGER | loads
    assert not NEVER & ran


# in a fresh interpreter: import FIRST, check every exported name (which
# imports every submodule), import SECOND and check them all again
_EXPORTS = """
import importlib
import json
import sys
import types

first, second, exports = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])


def check():
    import rscells

    assert sorted(rscells.__all__) == sorted(exports)
    for name, module in exports.items():
        # the package's name first, so a lazy one is resolved by the package
        got = getattr(rscells, name)
        assert got is getattr(importlib.import_module("rscells." + module), name), name
    assert isinstance(rscells.cells, types.FunctionType)
    assert rscells.cells is sys.modules["rscells.cells"].cells
    star = {}
    exec("from rscells import *", star)
    assert all(star[name] is getattr(rscells, name) for name in exports)


importlib.import_module(first)
check()
importlib.import_module(second)
check()
"""


@pytest.mark.parametrize("first, second", [("rscells", "rscells.cli"), ("rscells.cli", "rscells")])
def test_every_exported_name_is_its_modules_object(first, second):
    proc, _peak = run_child(_EXPORTS, first, second, json.dumps(EXPORTS), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_exported_names_in_this_process():
    assert sorted(rscells.__all__) == sorted(EXPORTS)
    for name, module in EXPORTS.items():
        assert getattr(rscells, name) is getattr(importlib.import_module(f"rscells.{module}"), name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rscells.no_such_name


def test_the_readme_library_example_runs():
    block = re.search(r"```python\n(from rscells import \(.*?)```", README.read_text(), re.S)
    proc, _peak = run_child(block[1], timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
