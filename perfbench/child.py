"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json RESULT.json

``run.py`` writes the job and starts this file once per repetition, so the
unbounded ``lru_cache``s in ``rscells.crystal`` and the shared tables in
``rscells.kl`` start empty every time.  The child imports ``rscells`` from the
checkout's ``src/``, runs the job and writes its timings and the program's
outputs to RESULT.json.  It checks nothing but its own isolation; comparing
outputs is the parent's job.

Job kinds:

- ``probe``: start-up only (process start plus ``import rscells``);
- ``s7-cold``: ``KLTable(n)`` over an empty cache directory, ``warm``,
  ``save``, ``cells(n, "left")`` and the suites, then the in-memory
  polynomials of a sample of pairs, outside the timed section;
- ``suites``: one cold table per degree, warmed, then the suites;
- ``roundtrip``: a fresh ``KLTable(n, cache_dir)`` and the same sample;
- ``oracle``: a cold in-process ``KLTable(n)`` answering ``klpoly`` pairs;
- ``cli``: ``rscells.cli.main(argv)`` under tracing.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import rscells
from rscells import cli, crystal, kl, verify
from rscells.permutations import parse_permutation

# the package exports the function cells(), which hides the module's name
cells_mod = importlib.import_module("rscells.cells")

READY = time.monotonic()

CRYSTAL_CACHES = (crystal.f_op, crystal.e_op, crystal.phi, crystal.eps)


def _op_cache_entries() -> int:
    return sum(f.cache_info().currsize for f in CRYSTAL_CACHES)


def _sample_polys(table, pairs) -> list[list[int]]:
    return [
        list(table.polynomial(parse_permutation(y), parse_permutation(w)).coeffs)
        for y, w in pairs
    ]


def _suite_op(name, n, table, out):
    report = verify.run_suite(name, n, table)
    out["ops"].append({"op": f"{name} {n}", "end": time.monotonic(), "lines": report.lines()})


def job_s7_cold(job, out, _rec):
    n = job["n"]
    start = out["start"] = time.monotonic()
    table = kl.KLTable(n, cache_dir=job["cache_dir"])
    table.warm()
    table.save()
    part = cells_mod.cells(n, "left", table)
    for suite in job["suites"]:
        _suite_op(suite, n, table, out)
    out["wall"] = time.monotonic() - start
    out["cells"] = len(part.cells)
    out["entries"] = table.entry_count()

    def finish():
        out["polys"] = _sample_polys(table, job["pairs"])

    return finish


def job_suites(job, out, _rec):
    start = out["start"] = time.monotonic()
    tables = {}
    for n in sorted({n for _suite, n in job["suites"]}, reverse=True):
        tables[n] = kl.KLTable(n)
        tables[n].warm()
    for suite, n in job["suites"]:
        _suite_op(suite, n, tables[n], out)
    out["wall"] = time.monotonic() - start
    out["entries"] = {str(n): t.entry_count() for n, t in tables.items()}


def job_roundtrip(job, out, _rec):
    table = kl.KLTable(job["n"], cache_dir=job["cache_dir"])
    out["polys"] = _sample_polys(table, job["pairs"])


def job_oracle(job, out, _rec):
    table = kl.KLTable(job["n"])
    out["answers"] = [
        str(table.polynomial(parse_permutation(y), parse_permutation(w)))
        for y, w in job["pairs"]
    ]


def job_cli(job, out, rec):
    out["exit"] = rec.wrap(f"cli.{job['command']}", cli.main)(job["argv"])
    sys.stdout.flush()


# each job runs its timed part and may return untimed follow-up work, which
# runs after the spans are taken
JOBS = {
    "probe": lambda _job, _out, _rec: None,
    "s7-cold": job_s7_cold,
    "suites": job_suites,
    "roundtrip": job_roundtrip,
    "oracle": job_oracle,
    "cli": job_cli,
}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(rscells.__file__).resolve().parent.parent
    if src != Path(job["src"]).resolve():
        print(f"error: imported rscells from {src}, not {job['src']}", file=sys.stderr)
        return 3
    if _op_cache_entries():
        print("error: crystal operator caches are not empty at start", file=sys.stderr)
        return 3
    out = {"ready": READY, "ops": []}
    rec = None
    tables = []
    if job.get("trace"):
        import spans

        rec = spans.Recorder()
        tables = spans.install(rec)
    finish = JOBS[job["kind"]](job, out, rec)
    if rec is not None:
        rec.add("kl.entries", sum(t.entry_count() for t in tables))
        rec.add("crystal.op_cache_entries", _op_cache_entries())
        out["spans"] = list(rec.spans)
        out["counts"] = dict(rec.counts)
    if finish is not None:
        finish()
    Path(result_path).write_text(json.dumps(out))
    return out.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
