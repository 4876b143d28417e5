"""The benchmark's span patches name callables that the package still has."""

import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_span_patch_resolves():
    # perfbench/spans.py wraps each (module, attribute path) by getattr and
    # setattr; a name that is gone fails every traced repetition with
    # AttributeError.  run_path compiles the file without writing bytecode
    # next to it
    patches = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))["PATCHES"]
    assert patches
    for module, path, _name, _count in patches:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, path)
