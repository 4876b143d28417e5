#!/usr/bin/env python3
"""The rscells benchmark.

    python3 perfbench/run.py --workload s7-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                # all workloads, untraced and traced
    python3 perfbench/run.py --smoke        # the same at n <= 5, in seconds

Run from the root of a checkout; the standard library is all it needs.  It
imports nothing from ``rscells`` itself: every repetition runs in a fresh
child process (``child.py``, or the real CLI), one at a time, as a closed loop
with one client.  Children import ``rscells`` from ``src/`` of this checkout,
without ``RSCELLS_CACHE_DIR`` in their environment, and write only below
``.perfbench/`` at the root.

Workloads (why each exists is in ``BENCHMARK.json``):

- ``s7-cold``: ``KLTable(7)`` over an empty cache directory, ``warm()``,
  ``save()``, ``cells(7, "left")``, suites ``theorem-a 7`` and
  ``crystal-theorem-a 7``;
- ``suites-s6``: one cold table per degree, then six suites at n = 6 plus
  ``crystal-djm 5`` and ``bar-invariance 5``;
- ``cli-warm``: set-up runs ``cache warm 6`` and ``cache warm 7``; each
  repetition is a seeded round of CLI processes against that cache:
  ``klpoly`` on S_7 pairs with y below w in the Bruhat order, ``cells 7
  right``, ``--long verify theorem-a 7`` and ``--format json graph 6 mu``.

With ``--trace 0`` it reports the end-to-end metrics, medians over the
repetitions of one run; with ``--trace 1`` it alternates untraced and traced
repetitions and reports per-layer metrics from the spans of the traced ones
(see ``spans.py``).  Every output is checked against ``golden.json``
(recorded at the seed commit by ``make_goldens.py``) or against an
independent computation; a wrong answer counts as a failed operation and is
never reported as a timing.  With ``--workload``, the last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from spans import MAX_COUNTS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".perfbench"

# every run must end well inside the 180 s a run may take
DEADLINE_S = 170.0
# fresh interpreters started only to time set-up (process start plus import)
SETUP_PROBES = 11
CLI_STARTUP_PROBES = 5
KLPOLY_PER_ROUND = 3
ROUNDTRIP_PAIRS = 200
ROUNDTRIP_RANDOM_PAIRS = 40

SIZES = {
    "s7-cold": {"n": 7},
    "suites-s6": {"n": 6, "small": 5},
    "cli-warm": {"n": 7, "small": 6},
}
SMOKE_SIZES = {
    "s7-cold": {"n": 5},
    "suites-s6": {"n": 5, "small": 4},
    "cli-warm": {"n": 5, "small": 4},
}
S7_SUITES = ("theorem-a", "crystal-theorem-a")
# (suite, size key); crystal-djm and bar-invariance cannot run at n = 6 in time
S6_SUITES = (
    ("theorem-a", "n"),
    ("knuth", "n"),
    ("evacuation", "n"),
    ("descents", "n"),
    ("knuth-mu", "n"),
    ("crystal-theorem-a", "n"),
    ("crystal-djm", "small"),
    ("bar-invariance", "small"),
)
# suites-s6 runs all eight suites
SUITE_NAMES = tuple(suite for suite, _key in S6_SUITES)

END_TO_END = (
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
)
# Layer metrics, named after the modules under src/rscells/.  A name in
# seconds is the summed span time of that boundary ("<layer>.self_s": the
# layer's self time), "_calls" counts its spans, other counts come from
# counters recorded at the boundary (spans.py).
LAYERS = (
    ("kl.warm_s", "s"),
    ("kl.save_s", "s"),
    ("kl.load_s", "s"),
    ("kl.polynomial_s", "s"),
    ("kl.polynomial_calls", "count"),
    ("kl.entries", "count"),
    ("kl.rows_loaded", "count"),
    ("kl.cache_bytes", "bytes"),
    ("kl.self_s", "s"),
    ("cells.graph_s", "s"),
    ("cells.partition_s", "s"),
    ("cells.edges", "count"),
    ("cells.count", "count"),
    ("cells.leq_pairs", "count"),
    ("cells.self_s", "s"),
    ("tableaux.q_symbol_s", "s"),
    ("tableaux.q_symbol_calls", "count"),
    ("tableaux.p_symbol_s", "s"),
    ("tableaux.p_symbol_calls", "count"),
    ("tableaux.evacuation_s", "s"),
    ("tableaux.evacuation_calls", "count"),
    ("tableaux.self_s", "s"),
    ("crystal.decompose_s", "s"),
    ("crystal.components", "count"),
    ("crystal.djm_violations_s", "s"),
    ("crystal.highest_weight_rep_s", "s"),
    ("crystal.highest_weight_rep_calls", "count"),
    ("crystal.op_cache_entries", "count"),
    ("crystal.self_s", "s"),
    ("hecke.canonical_basis_by_bar_s", "s"),
    ("hecke.c_prime_s", "s"),
    ("hecke.c_prime_calls", "count"),
    ("hecke.bar_s", "s"),
    ("hecke.self_s", "s"),
    ("knuth.knuth_class_s", "s"),
    ("knuth.knuth_class_calls", "count"),
    ("knuth.self_s", "s"),
    *((f"verify.{suite}_s", "s") for suite in SUITE_NAMES),
    *((f"verify.{suite}_cases", "count") for suite in SUITE_NAMES),
    ("verify.self_s", "s"),
    ("cli.klpoly_s", "s"),
    ("cli.cells_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.graph_s", "s"),
    ("cli.cache-warm_s", "s"),
    ("cli.self_s", "s"),
)
# The result line carries each span time as "<name>_share", its share of the
# traced wall time (repetition plus, on cli-warm, set-up): a boundary that a
# workload never calls reads 0 on every run, which must not pass for a time.
# The absolute seconds are printed and kept in the results file.
PER_LAYER = (
    *((name[:-2] + "_share", "ratio") if unit == "s" else (name, unit) for name, unit in LAYERS),
    ("cli.startup_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.covered_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.spans", "count"),
)


# -- inputs -------------------------------------------------------------------

def involutions(n: int) -> int:
    """Number of involutions in S_n, which is the number of left cells."""
    prev, cur = 1, 1
    for k in range(2, n + 1):
        prev, cur = cur, cur + (k - 1) * prev
    return cur


def _fmt(perm) -> str:
    return "".join(map(str, perm))


def bruhat_pair(rng: random.Random, n: int) -> tuple[str, str]:
    """A random w and a y <= w, reached by a random number of steps that
    each remove one descent (y -> y s_i < y), so P_{y,w} is nonzero."""
    w = list(range(1, n + 1))
    rng.shuffle(w)
    y = list(w)
    inversions = sum(a > b for i, a in enumerate(w) for b in w[i + 1:])
    for _ in range(rng.randint(0, inversions)):
        descents = [i for i in range(n - 1) if y[i] > y[i + 1]]
        if not descents:
            break
        i = rng.choice(descents)
        y[i], y[i + 1] = y[i + 1], y[i]
    return _fmt(y), _fmt(w)


def random_pair(rng: random.Random, n: int) -> tuple[str, str]:
    """Two independent uniform permutations; P_{y,w} is mostly zero."""
    return tuple(_fmt(rng.sample(range(1, n + 1), n)) for _ in range(2))


# -- running children ---------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall: float
    rss_mb: float
    spawn: float
    out: Path
    err: Path


@dataclass
class Rep:
    traced: bool
    wall: float
    rss_mb: float
    queries: list[float] = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


class Bench:
    """One benchmark run: its seeded inputs, children, checks and tallies."""

    def __init__(self, seed: int, seconds: float, trace: bool, tmp: Path):
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("RSCELLS_CACHE_DIR", "PYTHONPATH")
        }
        self.env["PYTHONPATH"] = str(SRC)
        # hash order is an input too: the same seed gives the same one
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.golden = json.loads(GOLDEN.read_text())
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        self.setup_spans: list = []
        self.setup_counts: dict = {}
        self.cli_startup: list[float] = []
        self.reps: list[Rep] = []
        self._seq = 0

    def path(self, stem: str) -> Path:
        self._seq += 1
        return self.tmp / f"{self._seq:04d}-{stem}"

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def spawn(self, argv: list[str], stem: str) -> Proc:
        """Run one child to completion; wall time from spawn to exit and
        ru_maxrss come from os.wait4, so they cover the whole process."""
        out, err = self.path(stem + ".out"), self.path(stem + ".err")
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, end - start, usage.ru_maxrss / 1024, start, out, err)

    def child(self, job: dict, stem: str) -> tuple[Proc, dict | None]:
        job_path, result_path = self.path(stem + ".job"), self.path(stem + ".result")
        job_path.write_text(json.dumps(dict(job, src=str(SRC))))
        proc = self.spawn([sys.executable, str(CHILD), str(job_path), str(result_path)], stem)
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        if proc.code != 0 and job["kind"] != "cli":
            sys.stderr.write(f"{stem}: exit {proc.code}\n{_tail(proc.err)}")
        return proc, result

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            proc, result = self.child({"kind": "probe"}, "probe")
            if proc.code == 0 and result:
                self.setup.append(result["ready"] - proc.spawn)

    def probe_cli_startup(self) -> None:
        for _ in range(CLI_STARTUP_PROBES):
            proc = self.spawn([sys.executable, "-c", "import rscells.cli"], "startup")
            if proc.code == 0:
                self.cli_startup.append(proc.wall)

    def schedule(self):
        """Repetitions to run, each yielded as 'traced?'.  Untraced ones while
        --seconds are not used up; a traced run alternates untraced and traced
        and has at least one of each.  None starts too close to the deadline."""
        start = time.monotonic()
        count = 0
        while True:
            yield self.trace and count % 2 == 1
            count += 1
            now = time.monotonic()
            last = self.reps[-1].wall if self.reps else 0.0
            if now + 2 * last > self.deadline:
                return
            if count >= (2 if self.trace else 1) and now - start >= self.seconds:
                return


def _tail(path: Path, lines: int = 20) -> str:
    text = path.read_text(errors="replace").splitlines()[-lines:]
    return "".join(f"  {line}\n" for line in text)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _merge_spans(into: list, spans: list) -> None:
    """Append one child's spans, renumbered so ids stay unique in a rep."""
    offset = max((s[0] for s in into), default=0)
    into.extend(
        (sid + offset, parent + offset if parent else 0, name, start, end)
        for sid, parent, name, start, end in spans
    )


def _merge_counts(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        into[key] = max(into.get(key, 0), value) if key in MAX_COUNTS else into.get(key, 0) + value


# -- workloads ----------------------------------------------------------------

def _check_suite_ops(b: Bench, res: dict, expected: list[tuple[str, int]]) -> list[float]:
    """Compare each suite report with its golden lines; returns the time to
    each verdict from the start of the (cold) repetition."""
    seen = {op["op"]: op for op in res["ops"]}
    latencies = []
    for suite, n in expected:
        key = f"{suite} {n}"
        op = seen.get(key)
        if op is None:
            b.op(key, False, "did not run")
            continue
        latencies.append(op["end"] - res["start"])
        ok = op["lines"] == b.golden["suites"][key]
        if ok and suite == "theorem-a":
            ok = f"cells: {involutions(n)}" in op["lines"]
        b.op(key, ok, "report differs from golden")
    return latencies


def run_s7_cold(b: Bench, sizes: dict) -> None:
    n = sizes["n"]
    pairs = [bruhat_pair(b.rng, n) for _ in range(ROUNDTRIP_PAIRS)]
    pairs += [random_pair(b.rng, n) for _ in range(ROUNDTRIP_RANDOM_PAIRS)]
    expected = [(suite, n) for suite in S7_SUITES]
    b.probe_setup()
    for traced in b.schedule():
        cache = b.path("cache")
        cache.mkdir()
        job = {"kind": "s7-cold", "n": n, "suites": S7_SUITES, "cache_dir": str(cache),
               "pairs": pairs, "trace": traced}
        proc, res = b.child(job, "s7-cold")
        if proc.code != 0 or res is None:
            owed = [f"KLTable({n}) warm+save", f"cells {n} left"]
            for name in owed + [f"{suite} {n}" for suite in S7_SUITES]:
                b.op(name, False, f"child exit {proc.code}")
            b.reps.append(Rep(traced, proc.wall, proc.rss_mb))
            shutil.rmtree(cache, ignore_errors=True)
            continue
        b.setup.append(res["ready"] - proc.spawn)
        b.op(f"KLTable({n}) warm+save", res["entries"] == b.golden["kl_entries"][str(n)],
             f"{res['entries']} entries")
        b.op(f"cells {n} left", res["cells"] == involutions(n), f"{res['cells']} cells")
        queries = _check_suite_ops(b, res, expected)
        if not b.reps:
            check_roundtrip(b, n, cache, pairs, res["polys"])
        shutil.rmtree(cache, ignore_errors=True)
        b.reps.append(Rep(traced, res["wall"], proc.rss_mb, queries,
                          res.get("spans", []), res.get("counts", {})))


def check_roundtrip(b: Bench, n: int, cache: Path, pairs: list, polys: list) -> None:
    """A fresh KLTable over the saved cache answers like the in-memory one."""
    proc, res = b.child({"kind": "roundtrip", "n": n, "cache_dir": str(cache), "pairs": pairs},
                        "roundtrip")
    got = res["polys"] if proc.code == 0 and res else [None] * len(polys)
    differ = sum(x != y for x, y in zip(got, polys))
    b.op(f"cache round-trip S_{n}", not differ, f"{differ} of {len(pairs)} sampled pairs differ")


def run_suites(b: Bench, sizes: dict) -> None:
    expected = [(suite, sizes[key]) for suite, key in S6_SUITES]
    b.probe_setup()
    for traced in b.schedule():
        proc, res = b.child({"kind": "suites", "suites": expected, "trace": traced}, "suites")
        if proc.code != 0 or res is None:
            for suite, n in expected:
                b.op(f"{suite} {n}", False, f"child exit {proc.code}")
            b.reps.append(Rep(traced, proc.wall, proc.rss_mb))
            continue
        b.setup.append(res["ready"] - proc.spawn)
        for n, entries in res["entries"].items():
            b.op(f"KLTable({n}) warm", entries == b.golden["kl_entries"][n], f"{entries} entries")
        queries = _check_suite_ops(b, res, expected)
        b.reps.append(Rep(traced, res["wall"], proc.rss_mb, queries,
                          res.get("spans", []), res.get("counts", {})))


def run_cli(b: Bench, command: str, argv: list[str], cache: Path, traced: bool):
    """One CLI process: the real `python -m rscells.cli` untraced, or
    `rscells.cli.main(argv)` in child.py under tracing.  Returns the process
    and its spans and counters (empty when untraced)."""
    argv = ["--cache-dir", str(cache)] + argv
    if not traced:
        proc = b.spawn([sys.executable, "-m", "rscells.cli"] + argv, command)
        return proc, [], {}
    proc, res = b.child({"kind": "cli", "command": command, "argv": argv, "trace": True}, command)
    spans, counts = [], {}
    if res is not None:
        spans = [(1, 0, "cli.startup", proc.spawn, res["ready"])]
        _merge_spans(spans, res["spans"])
        counts = res["counts"]
    return proc, spans, counts


def run_cli_warm(b: Bench, sizes: dict) -> None:
    n, small = sizes["n"], sizes["small"]
    cache = b.path("cache")
    cache.mkdir()
    setup = 0.0
    for degree in (small, n):
        argv = ["cache", "warm", str(degree)]
        proc, spans, counts = run_cli(b, "cache-warm", argv, cache, b.trace)
        setup += proc.wall
        _merge_spans(b.setup_spans, spans)
        _merge_counts(b.setup_counts, counts)
        check_cli(b, argv, proc)
    b.setup.append(setup)

    klpoly: list[tuple[tuple[str, str], Proc]] = []
    for traced in b.schedule():
        pairs = [bruhat_pair(b.rng, n) for _ in range(KLPOLY_PER_ROUND)]
        ops = [("klpoly", ["klpoly", y, w], (y, w)) for y, w in pairs]
        ops += [
            ("cells", ["cells", str(n), "right"], None),
            ("verify", ["--long", "verify", "theorem-a", str(n)], None),
            ("graph", ["--format", "json", "graph", str(small), "mu"], None),
        ]
        rep = Rep(traced, 0.0, 0.0)
        for command, argv, pair in ops:
            proc, spans, counts = run_cli(b, command, argv, cache, traced)
            rep.wall += proc.wall
            rep.rss_mb = max(rep.rss_mb, proc.rss_mb)
            _merge_spans(rep.spans, spans)
            _merge_counts(rep.counts, counts)
            if pair is None:
                check_cli(b, argv, proc)
            else:
                rep.queries.append(proc.wall)
                klpoly.append((pair, proc))
        b.reps.append(rep)

    # every klpoly answer must equal a cold in-process KLTable(n).polynomial
    proc, res = b.child({"kind": "oracle", "n": n, "pairs": [p for p, _ in klpoly]}, "oracle")
    answers = res["answers"] if proc.code == 0 and res else [None] * len(klpoly)
    for ((y, w), call), expect in zip(klpoly, answers):
        got = call.out.read_text()
        b.op(f"klpoly {y} {w}", call.code == 0 and got == f"{expect}\n",
             f"exit {call.code}, printed {got.strip()!r}, expected {expect!r}")
    shutil.rmtree(cache, ignore_errors=True)


def check_cli(b: Bench, argv: list[str], proc: Proc) -> None:
    key = " ".join(argv)
    ok = proc.code == 0 and _sha(proc.out) == b.golden["cli"][key]
    if ok and argv[0] == "cells":
        ok = len(proc.out.read_text().splitlines()) == involutions(int(argv[1]))
    b.op(key, ok, f"exit {proc.code} or output differs from golden\n{_tail(proc.err)}")


WORKLOADS = {
    "s7-cold": run_s7_cold,
    "suites-s6": run_suites,
    "cli-warm": run_cli_warm,
}


# -- metrics ------------------------------------------------------------------

def median(values) -> float:
    """Median, or 0.0 when every sample failed (the run is then not correct)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) places it."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(b: Bench) -> dict[str, tuple[float, int]]:
    """(value, sample count) per end-to-end metric, from untraced reps."""
    reps = [r for r in b.reps if not r.traced]
    queries = [q for r in reps for q in r.queries]
    return {
        "wall_s": (median(r.wall for r in reps), len(reps)),
        "peak_rss_mb": (median(r.rss_mb for r in reps), len(reps)),
        "setup_s": (median(b.setup), len(b.setup)),
        "query_p50_s": (quantile(queries, 50), len(queries)),
        "query_p90_s": (quantile(queries, 90), len(queries)),
    }


def span_profile(spans: list) -> tuple[Counter, Counter, Counter]:
    """Summed duration, call count and self time per span name; a span's
    self time is its duration minus that of its child spans."""
    child_time: Counter = Counter()
    for _sid, parent, _name, start, end in spans:
        child_time[parent] += end - start
    total, calls, own = Counter(), Counter(), Counter()
    for sid, _parent, name, start, end in spans:
        total[name] += end - start
        calls[name] += 1
        own[name] += end - start - child_time[sid]
    return total, calls, own


def layer_values(spans: list, counts: dict) -> dict[str, float]:
    total, calls, own = span_profile(spans)
    layer_self: Counter = Counter()
    for name, seconds in own.items():
        layer_self[name.split(".")[0]] += seconds
    values = {}
    for name, unit in LAYERS:
        base = name.rsplit("_", 1)[0]
        if name.endswith(".self_s"):
            values[name] = layer_self[name.split(".")[0]]
        elif unit == "s":
            values[name] = total[base]
        elif name.endswith("_calls"):
            values[name] = calls[base]
        else:
            values[name] = counts.get(name, 0)
    return values


def _covered(spans: list) -> float:
    return sum(end - start for _sid, parent, _name, start, end in spans if parent == 0)


def per_layer(b: Bench) -> tuple[dict[str, tuple[float, int]], dict[str, float]]:
    """Medians over traced reps, and the absolute span seconds behind each
    share.  On cli-warm the set-up's spans (``cache warm``) are added to
    every traced rep, so kl.warm_s and kl.save_s show the work that set-up
    pays for."""
    traced = [r for r in b.reps if r.traced]
    untraced = [r for r in b.reps if not r.traced]
    rows = []
    for rep in traced:
        counts = dict(b.setup_counts)
        _merge_counts(counts, rep.counts)
        spans = list(b.setup_spans)
        _merge_spans(spans, rep.spans)
        values = layer_values(spans, counts)
        wall = rep.wall + _covered(b.setup_spans)
        for name, unit in LAYERS:
            if unit == "s":
                values[name[:-2] + "_share"] = values[name] / wall
        covered = _covered(rep.spans)
        values.update({
            "trace.wall_s": rep.wall,
            "trace.covered_s": covered,
            "trace.unaccounted_s": rep.wall - covered,
            "trace.spans": len(rep.spans),
        })
        rows.append(values)
    out = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead_s":
            overhead = median(r.wall for r in traced) - median(r.wall for r in untraced)
            out[name] = (overhead, len(traced))
        elif name == "cli.startup_s":
            out[name] = (median(b.cli_startup), len(b.cli_startup))
        else:
            out[name] = (median(row[name] for row in rows), len(rows))
    seconds = {name: median(row[name] for row in rows) for name, unit in LAYERS if unit == "s"}
    return out, seconds


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- entry points -------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict) -> dict:
    """One run; prints a readable report and returns the result object."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK / "tmp"))
    try:
        b = Bench(seed, seconds, trace, tmp)
        if trace:
            b.probe_cli_startup()
        WORKLOADS[workload](b, sizes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(seed)
    metrics, span_seconds = per_layer(b) if trace else (end_to_end(b), {})
    units = dict(PER_LAYER if trace else END_TO_END)
    failed = len(b.failures)
    print(f"rscells benchmark: workload {workload}, sizes {sizes}, seed {seed}, "
          f"{seconds:g} s, trace {int(trace)}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, samples) in metrics.items():
        line = f"  {name:36s} {value:14.6g} {units[name]:6s} ({samples} samples)"
        if name.endswith("_share"):
            line += f"  = {name[:-6]}_s {span_seconds[name[:-6] + '_s']:.6g} s"
        print(line)
    print(f"  {'ops_failed_ratio':36s} {failed / max(b.attempted, 1):14.6g} "
          f"({failed} of {b.attempted} operations)")
    if trace:
        spans: list = []
        for rep in b.reps:
            if rep.traced:
                _merge_spans(spans, rep.spans)
        own = span_profile(spans)[2]
        top = ", ".join(f"{name} {t:.3f} s" for name, t in own.most_common(5))
        print(f"  largest self time, traced repetitions without set-up: {top}")
    for failure in b.failures:
        print(f"  FAILED {failure}")

    result = {
        "correct": not b.failures,
        "attempted": b.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _samples) in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, sizes=sizes, trace=trace, env=env,
                  samples={name: samples for name, (_v, samples) in metrics.items()},
                  span_seconds=span_seconds,
                  failures=b.failures, setup=b.setup,
                  reps=[{"traced": r.traced, "wall": r.wall, "rss_mb": r.rss_mb,
                         "queries": r.queries} for r in b.reps],
                  setup_spans=b.setup_spans,
                  spans=[r.spans for r in b.reps if r.traced])
    (WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record))
    return result


def run_all(seed: int, seconds: float, sizes: dict) -> int:
    """Every workload, untraced and traced; also checks that the metrics
    printed are exactly the ones BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(workload, seed, seconds, trace, sizes[workload])
            names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
            if set(result["metrics"]) != names:
                print(f"  metrics differ from BENCHMARK.json: "
                      f"{sorted(set(result['metrics']) ^ names)}")
                ok = False
            ok = ok and result["correct"]
    print(f"all workloads: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; without it, all three, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at n <= 5, one repetition each, in seconds")
    args = parser.parse_args()
    missing = [p for p in (SRC / "rscells" / "__init__.py", GOLDEN) if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a checkout "
              "of rscells", file=sys.stderr)
        return 2
    if args.smoke:
        return run_all(args.seed, 0, SMOKE_SIZES)
    if args.workload is None:
        return run_all(args.seed, args.seconds, SIZES)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), SIZES[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
