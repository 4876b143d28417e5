"""Exact coefficient arithmetic: integer polynomials in q, and Laurent
polynomials in v with v**2 = q.  Both kinds are immutable values."""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class IntPolynomial:
    """Dense integer polynomial; index = power of q, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by q**k, k >= 0."""
        if k < 0:
            raise ValueError(f"negative shift {k}")
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            tuple(x + y for x, y in zip(a, b)) + a[len(b):]
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPolynomial(
            (a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0)
            for k in range(n)
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if isinstance(other, IntPolynomial):
            if not self.coeffs or not other.coeffs:
                return ZERO
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return IntPolynomial(out)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return _format_terms(enumerate(self.coeffs), "q")


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))
Q = IntPolynomial((0, 1))


class LaurentPoly:
    """Sparse Laurent polynomial in v; mapping exponent -> nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d: dict[int, int] = {}
        for k, c in items:
            if c:
                d[k] = d.get(k, 0) + c
                if not d[k]:
                    del d[k]
        self.terms = d

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def v_power(cls, k: int, coeff: int = 1) -> "LaurentPoly":
        return cls({k: coeff})

    @classmethod
    def from_q_polynomial(cls, p: IntPolynomial, v_shift: int = 0) -> "LaurentPoly":
        """The element v**v_shift * p(v**2)."""
        return cls({2 * k + v_shift: c for k, c in enumerate(p.coeffs) if c})

    def as_q_polynomial(self, v_shift: int = 0) -> IntPolynomial:
        """Invert :meth:`from_q_polynomial`; raises if the support does not fit."""
        coeffs: dict[int, int] = {}
        for k, c in self.terms.items():
            e = k - v_shift
            if e < 0 or e % 2:
                raise ValueError(f"exponent {k} not of the form v_shift + 2j")
            coeffs[e // 2] = c
        if not coeffs:
            return ZERO
        top = max(coeffs)
        return IntPolynomial(coeffs.get(j, 0) for j in range(top + 1))

    def coeff(self, k: int) -> int:
        return self.terms.get(k, 0)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by v**k."""
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    def bar(self) -> "LaurentPoly":
        """The involution v -> v**-1."""
        return LaurentPoly({-e: c for e, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.terms)
        for k, c in other.terms.items():
            s = d.get(k, 0) + c
            if s:
                d[k] = s
            elif k in d:
                del d[k]
        return LaurentPoly(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({k: c * other for k, c in self.terms.items()})
        if isinstance(other, LaurentPoly):
            d: dict[int, int] = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    k = k1 + k2
                    s = d.get(k, 0) + c1 * c2
                    if s:
                        d[k] = s
                    elif k in d:
                        del d[k]
            return LaurentPoly(d)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self.terms.items()))!r})"

    def __str__(self) -> str:
        return _format_terms(sorted(self.terms.items()), "v")


def _format_terms(items, var: str) -> str:
    parts = []
    for k, c in items:
        if not c:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            base = var if k == 1 else f"{var}^{k}"
            term = base if abs(c) == 1 else f"{abs(c)}{base}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
