"""
The Hecke algebra of S_n in the T-basis over Laurent polynomials in v,
v**2 = q: the bar involution and two routes to the canonical basis.
Generators satisfy (T_i - q)(T_i + 1) = 0, so

    T_i T_w = T_{s_i w}                     if s_i w > w
            = q T_{s_i w} + (q - 1) T_w     otherwise

and symmetrically on the right.  The bar involution sends v to v**-1 and
T_w to the inverse of T_{w^-1}.

Two independent routes to the canonical basis live here: ``c_prime`` reads
coefficients off the polynomial recursion, while ``canonical_basis_by_bar``
solves for the unique bar-invariant elements with the off-diagonal degree
bound directly, never touching the recursion.  No suite runs them
(``verify bar-invariance`` checks the multiplication rule on the table's
ranks): they are the independent oracle that the tests and the perfbench
goldens compare the table against.  Each ``bar`` or
``canonical_basis_by_bar`` call memoizes bar(T_w) for its own elements
only, so nothing outlives the call.  The full T-basis product, the
C'-expansion of a product and the q = 1 action are test oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

from .kl import KLTable, default_table
from .permutations import (
    Perm,
    all_permutations,
    check_permutation,
    identity,
    length,
    multiply_simple,
    right_descents,
)
from .polynomials import LaurentPoly

_Q = LaurentPoly({2: 1})          # q = v^2
_Q_MINUS_1 = LaurentPoly({2: 1, 0: -1})
_Q_INV = LaurentPoly({-2: 1})
_Q_INV_MINUS_1 = LaurentPoly({-2: 1, 0: -1})


class HeckeElement:
    """Finitely supported map from S_n to Laurent polynomials (T-basis)."""

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords=None):
        self.n = n
        self.coords: dict[Perm, LaurentPoly] = {
            w: c for w, c in (coords or {}).items() if c
        }

    @classmethod
    def t(cls, n: int, w: Perm) -> "HeckeElement":
        w = check_permutation(w)
        if len(w) != n:
            raise ValueError(f"degree mismatch: {len(w)} vs {n}")
        return cls(n, {w: LaurentPoly.one()})

    @classmethod
    def zero(cls, n: int) -> "HeckeElement":
        return cls(n)

    def coeff(self, w: Perm) -> LaurentPoly:
        return self.coords.get(tuple(w), LaurentPoly.zero())

    def is_zero(self) -> bool:
        return not self.coords

    def scale(self, c: LaurentPoly | int) -> "HeckeElement":
        return HeckeElement(self.n, {w: x * c for w, x in self.coords.items()})

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        d = dict(self.coords)
        for w, c in other.coords.items():
            s = d.get(w)
            d[w] = c if s is None else s + c
        return HeckeElement(self.n, d)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.n == other.n
            and self.coords == other.coords
        )

    def __repr__(self) -> str:
        if not self.coords:
            return "0"
        parts = [
            f"({self.coords[w]})*T[{''.join(map(str, w))}]"
            for w in sorted(self.coords)
        ]
        return " + ".join(parts)


def _mult_gen(x: HeckeElement, i: int) -> HeckeElement:
    """Multiply by T_{s_i} on the right."""
    out: dict[Perm, LaurentPoly] = {}

    def add(w, c):
        s = out.get(w)
        out[w] = c if s is None else s + c

    for w, c in x.coords.items():
        u = multiply_simple(w, i)
        if w[i - 1] < w[i]:
            add(u, c)
        else:
            add(u, c * _Q)
            add(w, c * _Q_MINUS_1)
    return HeckeElement(x.n, out)


def _mult_gen_inverse_right(x: HeckeElement, i: int) -> HeckeElement:
    # x * T_i^-1 = q^-1 (x T_i) + (q^-1 - 1) x
    return _mult_gen(x, i).scale(_Q_INV) + x.scale(_Q_INV_MINUS_1)


def _bar_t(n: int, w: Perm, memo: dict[Perm, HeckeElement]) -> HeckeElement:
    """bar(T_w) = (T_{w^-1})^-1 = T_{i_1}^-1 ... T_{i_r}^-1 for any reduced word.

    Computed incrementally: bar(T_w) = bar(T_{w s_i}) T_i^-1 for a right
    descent s_i, sharing work through ``memo`` across one caller's elements.
    """
    got = memo.get(w)
    if got is None:
        des = right_descents(w)
        if not des:
            got = HeckeElement.t(n, identity(n))
        else:
            i = min(des)
            got = _mult_gen_inverse_right(_bar_t(n, multiply_simple(w, i), memo), i)
        memo[w] = got
    return got


def bar(x: HeckeElement) -> HeckeElement:
    """The bar involution, applied coefficientwise through bar(T_w)."""
    memo: dict[Perm, HeckeElement] = {}
    out = HeckeElement.zero(x.n)
    for w, c in x.coords.items():
        out = out + _bar_t(x.n, w, memo).scale(c.bar())
    return out


def c_prime(w: Perm, table: KLTable | None = None) -> HeckeElement:
    """C'_w = v^{-l(w)} sum over y <= w of P_{y,w}(q) T_y."""
    w = check_permutation(w)
    n = len(w)
    if table is None:
        table = default_table(n)
    lw = length(w)
    coords = {
        y: LaurentPoly.from_q_polynomial(table.polynomial(y, w), v_shift=-lw)
        for y in table.support(w)
    }
    return HeckeElement(n, coords)


def canonical_basis_by_bar(n: int) -> dict[Perm, HeckeElement]:
    """Solve for the canonical basis from bar invariance alone.

    For each w in length order, start from v^{-l(w)} T_w and repeatedly kill
    the top surviving term of bar(x) - x with a previously solved element,
    keeping all off-diagonal normalized coordinates in v^-1 Z[v^-1].  This
    pins down the same elements as the recursion but by uniqueness, so the
    two construction routes check each other.
    """
    elems = sorted(all_permutations(n), key=lambda p: (length(p), p))
    lengths = {w: length(w) for w in elems}
    out: dict[Perm, HeckeElement] = {}
    bar_ts: dict[Perm, HeckeElement] = {}
    for w in elems:
        x = HeckeElement(n, {w: LaurentPoly.v_power(-lengths[w])})
        # delta = bar(x) - x; each correction by a bar-invariant solved
        # element shifts delta by (bar(gamma) - gamma) C'_y, so no further
        # full bar computations are needed.
        delta = _bar_t(n, w, bar_ts).scale(LaurentPoly.v_power(lengths[w])) - x
        for _ in range(100_000):
            if delta.is_zero():
                break
            y = max(delta.coords, key=lambda p: (lengths[p], p))
            c = delta.coeff(y).shifted(lengths[y])
            if c.coeff(0):
                raise AssertionError(f"non-antisymmetric defect at {y}")
            gamma = LaurentPoly({k: a for k, a in c.terms.items() if k < 0})
            x = x + out[y].scale(gamma)
            delta = delta + out[y].scale(gamma.bar() - gamma)
        else:
            raise AssertionError("bar-invariance solve did not terminate")
        out[w] = x
    return out
