"""
Exhaustive verification suites over S_n.  Each suite returns a
:class:`Report`; a suite passes exactly when its violation list is empty.
Violation messages carry enough provenance (elements, descent sets, mu
values) to debug a counterexample directly.  The right star moves K_ij are
built in one place, ``_star_moves``: ``knuth`` joins them into classes, and
``knuth-mu`` checks mu and the cells across them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Iterator

from . import crystal as crystal_mod
from .cells import cells as cell_partition
# unused here; perfbench/spans.py patches these names on this module
from .hecke import bar, c_prime, canonical_basis_by_bar  # noqa: F401
from .kl import KLTable, _ranks
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


def _star_moves(ranks) -> Iterator[tuple[int, int, dict[int, int]]]:
    """Each right star move K_ij of S_n, i and j adjacent, as (i, j, image):
    the rank of K_ij(w) for each rank w of the domain D_ij = {w : i in R(w),
    j not in R(w)}, in rank order.  With y0 the minimal element of the coset
    w<s_i, s_j>, K_ij maps y0 s_i to y0 s_i s_j = w s_j, and y0 s_j s_i to
    y0 s_j = w s_i, which is the case where j is a descent of w s_i.  These
    are the elementary Knuth relations (Kazhdan-Lusztig 1979, section 4)."""
    # rank -> rank of w s_i, and right descent masks, bit i - 1 for s_i
    rsteps, rmasks = ranks.rsteps, ranks.rmasks
    for k in range(1, ranks.n - 1):
        for i, j in ((k, k + 1), (k + 1, k)):
            bi, bj = 1 << (i - 1), 1 << (j - 1)
            si, sj = rsteps[i - 1], rsteps[j - 1]
            image = {}
            for r, m in enumerate(rmasks):
                if m & bi and not m & bj:
                    u = si[r]
                    image[r] = u if rmasks[u] & bj else sj[r]
            yield i, j, image


def knuth_class(ranks) -> list[int]:
    """Each rank's Knuth class, named by its least rank: the components of
    the undirected graph that joins w and K_ij(w) for every star move."""
    parent = list(ranks.ints)
    for _, _, image in _star_moves(ranks):
        for a, b in image.items():
            # the roots of a and b, halving each path: every link points to
            # a lower rank, so each root is the least rank of its class
            while a != (p := parent[a]):
                parent[a] = a = parent[p]
            while b != (p := parent[b]):
                parent[b] = b = parent[p]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    # in rank order each link already points to a finished root
    for r, p in enumerate(parent):
        parent[r] = parent[p]
    return parent


def verify_knuth_classes(n: int) -> Report:
    """Knuth classes versus fibers of the insertion tableau, keyed by P
    index.  The permutations are read only to write a violation."""
    report = Report("knuth", n, cases=0)
    ranks = rank_arrays(n)
    pidx = _symbols(n, n, permutations=True)[0]
    report.cases = len(pidx)
    members: dict[int, list[int]] = {}
    fibers: dict[int, list[int]] = {}
    # perfbench/spans.py patches knuth_class on this module
    for r, (c, p) in enumerate(zip(knuth_class(ranks), pidx)):
        members.setdefault(c, []).append(r)
        fibers.setdefault(p, []).append(r)
    report.info["classes"] = str(len(fibers))
    names = lambda rs: [_fmt(ranks.perms[r]) for r in rs]
    for c, rs in members.items():
        if rs != fibers[pidx[c]]:
            report.violations.append(
                f"w={_fmt(ranks.perms[c])} knuth class {names(rs)} != "
                f"P-fiber {names(fibers[pidx[c]])}"
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

    when sx < x, and q P_{sx,v} + P_{x,v} on the left otherwise.  [e, w] is
    walked as the pairs {x, sx} with x < sx (s in L(w) keeps sx in it), whose
    members share one left side, computed once per pair.  Also check
    that the stored P_{w,w} is 1, that deg P_{x,w} <= (l(w) - l(x) - 1)/2
    for x != w, and that column w holds exactly the two-sided extremal
    elements of the interval, so no value outside it is ever served.

    The certificate is complete: C'_s is bar-invariant, so by induction on
    length each C'_w = C'_s C'_v - sum mu C'_z is bar-invariant, and with
    P_{w,w} = 1 and the degree bound it is the canonical basis element by
    uniqueness (Kazhdan-Lusztig 1979).  Columns are read by the walk that
    writes cache files, not by the raise of the recursion; P_{c,c} reads 1.
    """
    report = Report("bar-invariance", n, cases=0)
    table = _table(n, table)
    ranks = table.ranks
    lengths, masks, steps, polys = ranks.lengths, ranks.masks, ranks.steps, table._polys
    perms, rmasks = ranks.perms, ranks.rmasks
    report.cases = len(perms)

    def expand(c: int, xs: list[int]) -> defaultdict[int, int]:
        got: defaultdict[int, int] = defaultdict(int)
        table._expand(c, xs, got)
        got[c] = 1
        return got

    # memos of the two polynomial steps, keyed on pool indices and coefficients
    sums: dict[tuple[int, int], IntPolynomial] = {}
    corrections: dict[tuple[tuple[int, ...], int, int, int], IntPolynomial] = {}
    # the walk drops the supports one length layer at a time, as warm() does
    for w in table._in_length_order():
        start, end = table._column(w)
        support = table._support(w)
        colw: defaultdict[int, int] = defaultdict(int)
        table._expand(w, list(_ranks(support)), colw)
        pww = polys[colw[w]]
        if pww != ONE:
            report.violations.append(f"w={_fmt(perms[w])}: P_{{w,w}} = {pww} != 1")
        colw[w] = 1
        wmask = masks[w]
        extremal = support & table._raised_set(wmask) & table._raised_set(rmasks[w], True)
        entries, want = end - start, extremal.bit_count()
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
        # [e, v] is held still, one length layer below w
        xs = list(_ranks(table._support(v)))
        colv = expand(v, xs)
        zs, ms, start, end = table._mu_list(v)
        muv = []
        for j in range(start, end):
            z = zs[j]
            if masks[z] & ibit:
                muv.append((expand(z, xs), lengths[z], (lw - lengths[z]) // 2, ms[j]))
        bad = []
        for lo in _ranks(support & ~table._raised_set(ibit)):
            key = (colv[lo], colv[step[lo]])
            lhs = sums.get(key)
            if lhs is None:
                lhs = sums[key] = polys[key[0]] + polys[key[1]].shift(1)
            for x in (lo, step[lo]):
                lx = lengths[x]
                p = lhs
                for colz, lz, k, m in muv:
                    if lx <= lz and colz[x]:
                        key = (p.coeffs, colz[x], k, m)
                        r = corrections.get(key)
                        if r is None:
                            r = corrections[key] = p - polys[colz[x]].shift(k) * m
                        p = r
                pxw = polys[colw[x]]
                if p != pxw:
                    left = "q P_{sx,v} + P_{x,v}" if x == lo else "P_{sx,v} + q P_{x,v}"
                    bad.append((x, f"w={_fmt(perms[w])} x={_fmt(perms[x])} s_{i} "
                                   f"v={_fmt(perms[v])}: {left} = {lhs} but P_{{x,w}} + "
                                   f"sum mu(z,v) q^k P_{{x,z}} = {pxw + (lhs - p)}"))
                if x != w and pxw.degree > (lw - lx - 1) // 2:
                    bad.append((x, f"w={_fmt(perms[w])} y={_fmt(perms[x])}: P_{{y,w}} = {pxw} "
                                   f"has degree {pxw.degree} > bound {(lw - lx - 1) // 2}"))
        bad.sort(key=lambda item: item[0])
        report.violations.extend(text for _, text in bad)
    return report


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
    cases = 0
    for i, j, image in _star_moves(table.ranks):
        # the nonzero-mu pairs (z, w, mu) inside the domain: every z in the
        # mu list of w lies below w, so z < w as ranks
        pairs = []
        for w in image:
            zs, ms, lo, hi = mu_list(w)
            pairs += [(zs[x], w, ms[x]) for x in range(lo, hi) if zs[x] in image]
        cases += len(image) + len(pairs)
        for w, kw in image.items():
            if right[w] != right[kw]:
                report.violations.append(
                    f"w={_fmt(perms[w])} K_{i}{j}(w)={_fmt(perms[kw])} "
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
                    f"K_{i}{j} images do not"
                )
            else:
                report.violations.append(
                    f"y={_fmt(perms[y])} w={_fmt(perms[w])} mu={m} but "
                    f"mu(K(y)|K(w))=0 for (i,j)=({i},{j}), "
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
