"""
Exhaustive verification suites over S_n.  Each suite returns a
:class:`Report`; a suite passes exactly when its violation list is empty.
Violation messages carry enough provenance (elements, descent sets, mu
values) to debug a counterexample directly.
"""

from __future__ import annotations

import time

from . import crystal as crystal_mod
from .cells import cells as cell_partition
# unused here; perfbench/spans.py patches these names on this module
from .hecke import bar, c_prime, canonical_basis_by_bar  # noqa: F401
from .kl import KLTable, _ranks
from .knuth import knuth_class
from .permutations import format_permutation, rank_arrays
from .polynomials import ONE, IntPolynomial
# p_symbol and q_symbol are unused here; perfbench/spans.py patches them on
# this module
from .tableaux import _symbols, evacuation, p_symbol, q_code, q_symbol, q_tableau  # noqa: F401


class Report:
    """A suite's outcome: cases checked, violation messages, ``info``
    lines for the summary and the wall time that ``run_suite`` sets."""

    def __init__(
        self,
        suite: str,
        n: int,
        cases: int,
        violations: list[str] | None = None,
        info: dict[str, str] | None = None,
        wall_time: float = 0.0,
    ) -> None:
        self.suite = suite
        self.n = n
        self.cases = cases
        self.violations = [] if violations is None else violations
        self.info = {} if info is None else info
        self.wall_time = wall_time

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [
            f"suite: {self.suite}",
            f"n: {self.n}",
            f"cases: {self.cases}",
        ]
        for key in sorted(self.info):
            out.append(f"{key}: {self.info[key]}")
        out.append(f"violations: {len(self.violations)}")
        out.extend(f"  {v}" for v in self.violations[:100])
        out.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return out

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "cases": self.cases,
            "info": dict(sorted(self.info.items())),
            "violations": list(self.violations),
            "result": "pass" if self.ok else "fail",
        }


def _fmt(w) -> str:
    return format_permutation(w)


def _table(n: int, table: KLTable | None) -> KLTable:
    return KLTable(n) if table is None else table


def _labels(keys) -> list[int]:
    """Each key replaced by the number of its class, classes numbered in
    order of first occurrence as cell indices are: two partitions of the
    ranks are equal exactly when their labels are."""
    first: dict = {}
    return [first.setdefault(key, len(first)) for key in keys]


def verify_theorem_a(n: int, table: KLTable | None = None) -> Report:
    """Left cells from the mu graph versus fibers of the recording tableau."""
    report = Report("theorem-a", n, cases=0)
    table = _table(n, table)
    cell = cell_partition(n, "left", table).of_rank
    perms = table.ranks.perms
    report.cases = len(perms)
    fiber = _labels(_symbols(n, n, permutations=True)[1])
    report.info["cells"] = str(len(set(cell)))
    report.info["q-symbols"] = str(len(set(fiber)))
    if cell != fiber:
        # a violating pair shares a cell but not a Q-symbol, or the reverse:
        # split each cell by Q-symbol and each fiber by cell, and pair up
        # the elements of different pieces
        bad = []
        for outer, inner, by_cell in ((cell, fiber, True), (fiber, cell, False)):
            blocks: dict = {}
            for r, (k, key) in enumerate(zip(outer, inner)):
                blocks.setdefault(k, {}).setdefault(key, []).append(r)
            for by_key in blocks.values():
                pieces = list(by_key.values())
                for a, first in enumerate(pieces):
                    for second in pieces[a + 1:]:
                        bad.extend(
                            (min(y, w), max(y, w), by_cell) for y in first for w in second
                        )
        bad.sort()
        report.violations.extend(
            f"y={_fmt(perms[y])} w={_fmt(perms[w])} same-cell={by_cell} same-Q={not by_cell}"
            for y, w, by_cell in bad
        )
    return report


def verify_knuth_classes(n: int) -> Report:
    """Knuth closure classes versus fibers of the insertion tableau, keyed
    by P index."""
    report = Report("knuth", n, cases=0)
    perms = rank_arrays(n).perms
    report.cases = len(perms)
    pidx = _symbols(n, n, permutations=True)[0]
    fibers: dict[int, set] = {}
    for w, p in zip(perms, pidx):
        fibers.setdefault(p, set()).add(w)
    report.info["classes"] = str(len(fibers))
    done = set()
    for w, p in zip(perms, pidx):
        if w in done:
            continue
        cls = knuth_class(w)
        done.update(cls)
        if cls != frozenset(fibers[p]):
            report.violations.append(
                f"w={_fmt(w)} knuth class {sorted(map(_fmt, cls))} != "
                f"P-fiber {sorted(map(_fmt, fibers[p]))}"
            )
    return report


def verify_evacuation(n: int) -> Report:
    """transpose(evacuation(Q(w))) == Q(w w0), and evacuation is an involution.

    Q(w) comes as a Q code, and each distinct Q is evacuated once, then once
    more for the involution check.  w w0 is w reversed, whose Q code is
    looked up by rank."""
    report = Report("evacuation", n, cases=0)
    ranks = rank_arrays(n)
    perms, index = ranks.perms, ranks.index
    report.cases = len(perms)
    qcode = _symbols(n, n, permutations=True)[1]
    # Q code -> (Q, whether evacuation is involutive on Q, the Q code of
    # transpose(evacuation(Q)))
    evacuated: dict[int, tuple] = {}
    for w, code in zip(perms, qcode):
        if code not in evacuated:
            q = q_tableau(code, n)
            ev = evacuation(q)
            evacuated[code] = (q, evacuation(ev) == q, q_code(ev.transpose()))
        q, involutive, target = evacuated[code]
        if not involutive:
            report.violations.append(f"w={_fmt(w)}: evacuation is not involutive")
        if target != qcode[index[w[::-1]]]:
            report.violations.append(
                f"w={_fmt(w)}: transpose(evac(Q(w))) != Q(w.w0), "
                f"Q(w)={q.to_json()}"
            )
    return report


def verify_bar_invariance(n: int, table: KLTable | None = None) -> Report:
    """Certify that every C'_w = v^-l(w) sum_y P_{y,w} T_y read from the
    table is the Kazhdan-Lusztig basis element, without leaving the table.

    For each w, in (length, rank) order, take the descent s = s_i that the
    recursion uses and v = s w, and check for every x in the interval
    [e, w] = [e, v] u s[e, v] the T_x coordinate of the multiplication rule
    C'_s C'_v = C'_w + sum of mu(z, v) C'_z over the mu list of v with
    sz < z, in exact integer coefficients:

        P_{sx,v} + q P_{x,v} = P_{x,w} + sum mu(z,v) q^((l(w)-l(z))/2) P_{x,z}

    when sx < x, and q P_{sx,v} + P_{x,v} on the left otherwise.  Also check
    that the stored P_{w,w} is 1, that deg P_{x,w} <= (l(w) - l(x) - 1)/2
    for x != w, and that column w holds exactly the two-sided extremal
    elements of the interval, so no value outside it is ever served.

    The certificate is complete: C'_s is bar-invariant, so by induction on
    length each C'_w = C'_s C'_v - sum mu C'_z is bar-invariant, and with
    P_{w,w} = 1 and the degree bound it is the canonical basis element by
    uniqueness (Kazhdan-Lusztig 1979).  Values are read through the
    table's own lookup, so non-extremal x test the two-sided raise.
    """
    report = Report("bar-invariance", n, cases=0)
    table = _table(n, table)
    ranks = table.ranks
    lookup, lengths, masks, steps = table._lookup, ranks.lengths, ranks.masks, ranks.steps
    perms, rmasks = ranks.perms, ranks.rmasks
    report.cases = len(perms)
    # memos of the two polynomial steps, keyed on operand ids: every operand
    # is in the table's pool or held by these dicts, so no id is reused meanwhile
    sums: dict[tuple[int, int, bool], IntPolynomial] = {}
    corrections: dict[tuple[int, int, int, int], IntPolynomial] = {}
    # the walk drops the supports one length layer at a time, as warm() does
    for w in table._in_length_order():
        col = table._column(w)
        support = table._support(w)
        pww = table._entry(col, w)
        if pww != ONE:
            report.violations.append(f"w={_fmt(perms[w])}: P_{{w,w}} = {pww} != 1")
        wmask = masks[w]
        extremal = support & table._raised_set(wmask) & table._raised_set(rmasks[w], True)
        entries, want = len(col[1]), extremal.bit_count()
        if entries != want:
            report.violations.append(
                f"w={_fmt(perms[w])}: column holds {entries} entries but the interval "
                f"has {want} two-sided extremal elements"
            )
        if not wmask:
            continue
        ibit = wmask & -wmask
        i = ibit.bit_length()
        step = steps[i - 1]
        v = step[w]
        lw = lengths[w]
        muv = [(z, lengths[z], (lw - lengths[z]) // 2, m)
               for z, m in zip(*table._mu_list(v)) if masks[z] & ibit]
        bad = []
        for x in _ranks(support):
            lx = lengths[x]
            sx = step[x]
            down = lengths[sx] < lx
            a, b = lookup(sx, v), lookup(x, v)
            key = (id(a), id(b), down)
            p = sums.get(key)
            if p is None:
                p = sums[key] = a + b.shift(1) if down else a.shift(1) + b
            for z, lz, k, m in muv:
                if lx <= lz:
                    pxz = lookup(x, z)
                    if pxz:
                        key = (id(p), id(pxz), k, m)
                        r = corrections.get(key)
                        if r is None:
                            r = corrections[key] = p - pxz.shift(k) * m
                        p = r
            pxw = lookup(x, w)
            if p != pxw:
                bad.append((x, _identity_violation(table, w, x, i, v, muv)))
            if x != w and pxw.degree > (lw - lx - 1) // 2:
                bad.append((x, f"w={_fmt(perms[w])} y={_fmt(perms[x])}: P_{{y,w}} = {pxw} "
                               f"has degree {pxw.degree} > bound {(lw - lx - 1) // 2}"))
        bad.sort(key=lambda item: item[0])
        report.violations.extend(text for _, text in bad)
    return report


def _identity_violation(table: KLTable, w: int, x: int, i: int, v: int, muv) -> str:
    """Both sides of the T_x coordinate of C'_s C'_v = C'_w + sum mu C'_z."""
    lookup, ranks = table._lookup, table.ranks
    perms, lengths = ranks.perms, ranks.lengths
    sx = ranks.steps[i - 1][x]
    a, b = lookup(sx, v), lookup(x, v)
    if lengths[sx] < lengths[x]:
        left, lhs = "P_{sx,v} + q P_{x,v}", a + b.shift(1)
    else:
        left, lhs = "q P_{sx,v} + P_{x,v}", a.shift(1) + b
    rhs = lookup(x, w)
    for z, _, k, m in muv:
        rhs = rhs + lookup(x, z).shift(k) * m
    return (
        f"w={_fmt(perms[w])} x={_fmt(perms[x])} s_{i} v={_fmt(perms[v])}: "
        f"{left} = {lhs} but P_{{x,w}} + sum mu(z,v) q^k P_{{x,z}} = {rhs}"
    )


def _descent_list(mask: int) -> list[int]:
    """The i with bit i - 1 set in ``mask``, ascending."""
    return [i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1]


def verify_prop_descents(n: int, table: KLTable | None = None) -> Report:
    """Right descent sets grow down the left preorder; constant on cells.

    The check runs over related cell pairs rather than element pairs: for
    each (i, j) in the preorder every y in cell i and w in cell j satisfy
    y <=_L w, so the pair adds |cell i| * |cell j| cases.  When R is
    constant on both cells and R(cell i) contains R(cell j), none of them
    can fail; otherwise the elements of that pair are checked one by one.
    Violations are sorted by (y, w), containment before same-cell, the
    order of a scan over all pairs.
    """
    report = Report("descents", n, cases=0)
    table = _table(n, table)
    part = cell_partition(n, "left", table)
    perms = table.ranks.perms
    members: list[list[int]] = [[] for _ in part.cells]
    for r, k in enumerate(part.of_rank):
        members[k].append(r)
    # right descent set as a bit mask, bit i - 1 for s_i
    rmask = table.ranks.rmasks
    # R of each cell, or None where it is not constant
    const = []
    for ranks in members:
        masks = {rmask[r] for r in ranks}
        const.append(masks.pop() if len(masks) == 1 else None)
    cases = 0
    bad = []
    for i, j in part.leq:
        ci, cj = members[i], members[j]
        cases += len(ci) * len(cj)
        ri, rj = const[i], const[j]
        if ri is not None and rj is not None and not rj & ~ri:
            continue
        for y in ci:
            ry = rmask[y]
            for w in cj:
                rw = rmask[w]
                if rw & ~ry:
                    bad.append((y, w, 0))
                if i == j and ry != rw:
                    bad.append((y, w, 1))
    report.cases = cases
    bad.sort()
    for y, w, same_cell in bad:
        yp, wp = perms[y], perms[w]
        ry, rw = _descent_list(rmask[y]), _descent_list(rmask[w])
        if same_cell:
            report.violations.append(
                f"y={_fmt(yp)} w={_fmt(wp)} in one left cell but R(y)={ry} != R(w)={rw}"
            )
        else:
            report.violations.append(
                f"y={_fmt(yp)} w={_fmt(wp)} with y <=_L w but R(y)={ry} "
                f"does not contain R(w)={rw}"
            )
    return report


def verify_knuth_mu(n: int, table: KLTable | None = None) -> Report:
    """mu survives the Knuth move, the move preserves left cells, and every
    element is right-equivalent to its image.

    For each move K_ij the cases are: every w of the domain D_ij, every pair
    y < w in D_ij with mu(y, w) != 0, and every pair y < w in D_ij that
    shares a left cell.  The nonzero-mu pairs come from the table's mu
    lists, which hold every such pair: if z < w is not two-sided extremal
    (some left descent s of w has sz > z, or a right one zs > z) then
    P_{z,w} = P_{sz,w} (or P_{zs,w}), so either sz = w and mu(z, w) = 1, a
    lower cover the list adds, or the degree bound deg P_{sz,w} <= (l(w) -
    l(z) - 2)/2 leaves no coefficient of q^((l(w) - l(z) - 1)/2).  The
    bound is what ``bar-invariance`` certifies.  The same-cell pairs are
    counted per cell of D_ij: they can fail only where the images of that
    cell's domain elements meet more than one left cell.  Violations come
    per move: the right-cell lines in domain order, then the pair lines by
    (y, w), mu before cell, the order of a scan.
    """
    report = Report("knuth-mu", n, cases=0)
    table = _table(n, table)
    left = cell_partition(n, "left", table).of_rank
    perms, mu_sym, mu_list = table.ranks.perms, table._mu_sym, table._mu_list
    # the right cell of w is the inverse of the left cell of w^-1
    right = [left[r] for r in table.ranks.inverse]
    # rank -> rank of w s_i, and right descent masks, bit i - 1 for s_i
    rsteps, rmasks = table.ranks.rsteps, table.ranks.rmasks
    cases = 0
    moves = [(i2, j2) for i in range(1, n - 1) for i2, j2 in ((i, i + 1), (i + 1, i))]
    for i2, j2 in moves:
        # rank -> rank of its image, over the domain D_ij = {w : i in R(w),
        # j not in R(w)} in rank order.  With y0 the minimal element of the
        # coset w<s_i, s_j>, K_ij maps y0 s_i to y0 s_i s_j = w s_j, and
        # y0 s_j s_i to y0 s_j = w s_i, which is the case where j is a
        # descent of w s_i
        bi, bj = 1 << (i2 - 1), 1 << (j2 - 1)
        si, sj = rsteps[i2 - 1], rsteps[j2 - 1]
        image = {}
        for r, m in enumerate(rmasks):
            if m & bi and not m & bj:
                u = si[r]
                image[r] = u if rmasks[u] & bj else sj[r]
        # the nonzero-mu pairs (z, w, mu) inside the domain: every z in the
        # mu list of w lies below w, so z < w as ranks
        pairs = [(z, w, m) for w in image for z, m in zip(*mu_list(w)) if z in image]
        cases += len(image) + len(pairs)
        for w, kw in image.items():
            if right[w] != right[kw]:
                report.violations.append(
                    f"w={_fmt(perms[w])} K_{i2}{j2}(w)={_fmt(perms[kw])} "
                    f"not in one right cell"
                )
        bad = [(y, w, 0, m) for y, w, m in pairs if not mu_sym(image[y], image[w])]
        by_cell: dict[int, list[int]] = {}
        for w in image:
            by_cell.setdefault(left[w], []).append(w)
        for ranks in by_cell.values():
            cases += len(ranks) * (len(ranks) - 1) // 2
            if len({left[image[w]] for w in ranks}) == 1:
                continue
            for a, y in enumerate(ranks):
                for w in ranks[a + 1:]:
                    if left[image[y]] != left[image[w]]:
                        bad.append((y, w, 1, 0))
        bad.sort()
        for y, w, same_cell, m in bad:
            if same_cell:
                report.violations.append(
                    f"y={_fmt(perms[y])} w={_fmt(perms[w])} share a left cell but "
                    f"K_{i2}{j2} images do not"
                )
            else:
                report.violations.append(
                    f"y={_fmt(perms[y])} w={_fmt(perms[w])} mu={m} but "
                    f"mu(K(y)|K(w))=0 for (i,j)=({i2},{j2}), "
                    f"K(y)={_fmt(perms[image[y]])} K(w)={_fmt(perms[image[w]])}"
                )
    report.cases = cases
    return report


def verify_crystal_djm(n: int) -> Report:
    """Recording-tableau constancy, bijectivity onto the tableau crystal,
    and operator intertwining, over all words with r = n."""
    report = Report("crystal-djm", n, cases=0)
    report.cases, report.violations = crystal_mod.djm_violations(n, n)
    return report


def verify_crystal_theorem_a(n: int) -> Report:
    """On permutation words with r = n: crystal components and
    recording-tableau fibers induce one partition.  The route reads no KL
    table; ``theorem-a`` compares the fibers with the left cells."""
    report = Report("crystal-theorem-a", n, cases=0)
    perms = rank_arrays(n).perms
    report.cases = len(perms)
    component = _labels(crystal_mod.highest_weight_reps(perms, n))
    fiber = _labels(_symbols(n, n, permutations=True)[1])
    components = len(set(component))
    report.info["components"] = str(components)
    if component != fiber:
        report.violations.append(
            f"crystal components ({components}) differ from "
            f"Q-symbol fibers ({len(set(fiber))})"
        )
    return report


SUITES = {
    "theorem-a": verify_theorem_a,
    "knuth": verify_knuth_classes,
    "evacuation": verify_evacuation,
    "bar-invariance": verify_bar_invariance,
    "descents": verify_prop_descents,
    "knuth-mu": verify_knuth_mu,
    "crystal-djm": verify_crystal_djm,
    "crystal-theorem-a": verify_crystal_theorem_a,
}

# suites that accept a shared KL table
_TABLE_SUITES = {
    "theorem-a",
    "bar-invariance",
    "descents",
    "knuth-mu",
}


def run_suite(name: str, n: int, table: KLTable | None = None) -> Report:
    """Dispatch a suite by name and time it."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if table is not None and table.n != n:
        raise ValueError(f"suite {name} at degree {n} got a table of degree {table.n}")
    start = time.perf_counter()
    if name in _TABLE_SUITES:
        report = SUITES[name](n, table)
    else:
        report = SUITES[name](n)
    report.wall_time = time.perf_counter() - start
    return report
