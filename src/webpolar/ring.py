"""Exact arithmetic in the cohomology ring of the point-hyperplane incidence
variety M of complex projective n-space.

M carries two degree-one classes: the hyperplane class h pulled back from
projective space and the hyperplane class c pulled back from the dual
projective space.  The ring is the integer polynomial ring in h and c modulo
the two relations

    h^(n+1) = 0,
    h^n - h^(n-1)*c + h^(n-2)*c^2 - ... + (-1)^n * c^n = 0.

Every element has a unique representative supported on the monomial box
{h^a * c^b : 0 <= a <= n, 0 <= b <= n-1}, so equality is decidable by
comparing coefficient maps.  Coefficients are arbitrary-precision integers;
the degree data fed through this ring grows like d*(d-1)^j and overflows
fixed-width types quickly.

``RingElement`` is a ``multipoly.SparsePoly`` in (h, c): it shares the
lab's packed monomials and sparse arithmetic, and its normal form is the
reduction onto the box, applied after every product.  The dimension n is
at most MAX_DIMENSION, as the cost of every ring operation grows with n.

>>> h = hyperplane(2)
>>> c = dual_hyperplane(2)
>>> c * c == h * c - h * h
True
>>> integrate(h**2 * c)
1
>>> print(c ** 3)
0
"""

from __future__ import annotations

from .multipoly import _BITS, _FIELD, SparsePoly, _product

MAX_DIMENSION = 100


def _reduce(raw: dict[int, int], n: int) -> dict[int, int]:
    """Rewrite a map of packed monomials h^a * c^b onto the canonical box.

    The relations are homogeneous and the box's top degree is 2n - 1, the
    dimension of M, so monomials of degree a + b above that are zero, and
    so are those with a > n.  Both are dropped first.  Powers c^b with
    b >= n are then eliminated through

        c^n = sum_{i=0}^{n-1} (-1)^(n+1+i) * h^(n-i) * c^i,

    which keeps the degree and lowers b, so one sweep over b from the top
    down to n rewrites every such term once.  Terms with i < a would have
    h-exponent above n, hence are zero and never made.
    """
    work = {}
    for key, value in raw.items():
        a = key >> _BITS
        if value and a <= n and a + (key & _FIELD) < 2 * n:
            work[key] = value
    for b in range(max((key & _FIELD for key in work), default=0), n - 1, -1):
        for a in range(min(n, 2 * n - 1 - b) + 1):
            value = work.pop(a << _BITS | b, 0)
            if not value:
                continue
            for i in range(a, n):
                key = (a + n - i) << _BITS | (b - n + i)
                updated = work.get(key, 0) + (-value if (n + i) % 2 == 0 else value)
                if updated:
                    work[key] = updated
                else:
                    del work[key]  # stored coefficients are nonzero
    return work


class RingElement(SparsePoly):
    """A ring element in canonical form, a polynomial in h and c.

    Construction accepts any map from exponent pairs (a, b), meaning
    h^a * c^b, to coefficients and reduces it, so ``RingElement(n, {(0, n): 1})``
    already returns the rewritten power of the dual hyperplane class.  Sums,
    differences, powers, equality and printing are those of
    ``multipoly.SparsePoly``; a product is its product of term maps followed
    by the reduction.  Values are immutable; all operations return fresh
    elements.

    >>> u = RingElement(2, {(0, 2): 1})
    >>> sorted(u.coefficients().items())
    [((1, 1), 1), ((2, 0), -1)]
    >>> u == RingElement(2, {(1, 1): 1, (2, 0): -1})
    True
    """

    __slots__ = ("n",)
    VARIABLES = ("h", "c")

    def __init__(self, n: int, coeffs: dict[tuple[int, int], int] | None = None):
        if not isinstance(n, int) or not 1 <= n <= MAX_DIMENSION:
            raise ValueError(f"ambient projective dimension {n!r} is not in 1..{MAX_DIMENSION}")
        self.n = n
        self._terms = self._normal(self._packed(coeffs)) if coeffs else {}

    def _new(self, terms: dict[int, int]) -> "RingElement":
        result = self._wrap(terms)
        result.n = self.n
        return result

    def _space(self) -> int:
        return self.n

    def _normal(self, raw: dict[int, int]) -> dict[int, int]:
        return _reduce(raw, self.n)

    coefficients = SparsePoly.terms

    def coefficient(self, a: int, b: int) -> int:
        return self._terms.get(self._key((a, b)), 0)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._new(self._normal(_product(self._terms, other._terms)))

    __rmul__ = __mul__

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all monomials, or None for 0 or mixed degree."""
        degrees = {a + b for a, b in self.terms()}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    @staticmethod
    def _print_order(item):
        """Higher total degree first, then lower powers of h."""
        (a, b), _ = item
        return -(a + b), a

    def __repr__(self):
        return f"RingElement(n={self.n}, {self})"


def zero(n: int) -> RingElement:
    return RingElement(n)


def one(n: int) -> RingElement:
    return RingElement(n, {(0, 0): 1})


def hyperplane(n: int) -> RingElement:
    """The hyperplane class of projective n-space, pulled back to M."""
    return RingElement(n, {(1, 0): 1})


def dual_hyperplane(n: int) -> RingElement:
    """The hyperplane class of the dual projective space, pulled back to M."""
    return RingElement(n, {(0, 1): 1})


def monomial(n: int, a: int, b: int, coefficient: int = 1) -> RingElement:
    """The element ``coefficient * h^a * c^b`` in canonical form."""
    return RingElement(n, {(a, b): coefficient})


def tautological_class(n: int) -> RingElement:
    """First Chern class of the tautological line bundle on M.

    Writing the dual hyperplane class as a combination a*h + b*xi forces
    b = -1, and a = -1 is the unique choice making both evaluations

        integrate(xi^(n-1) * h^n)   == (-1)^(n-1)
        integrate(xi^n * h^(n-1))   == (-1)^n * (n+1)

    hold, so xi = -h - c.

    >>> integrate(tautological_class(3) ** 2 * hyperplane(3) ** 3)
    1
    """
    return RingElement(n, {(1, 0): -1, (0, 1): -1})


def integrate(element: RingElement) -> int:
    """Evaluate the ring's integration functional.

    In canonical form the unique monomial of top degree 2n-1 is
    h^n * c^(n-1), whose coefficient is returned; every other monomial
    integrates to zero.

    >>> integrate(hyperplane(4) ** 4 * dual_hyperplane(4) ** 3)
    1
    >>> integrate(hyperplane(2) ** 2)
    0
    """
    return element.coefficient(element.n, element.n - 1)
