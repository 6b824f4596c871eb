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

Monomial = tuple[int, int]  # (a, b) meaning h^a * c^b


def _check_dimension(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"ambient projective dimension must be a positive integer, got {n!r}")
    return n


def _reduce(raw: dict[Monomial, int], n: int) -> dict[Monomial, int]:
    """Rewrite an exponent map onto the canonical monomial box.

    Powers c^b with b >= n are eliminated through

        c^n = sum_{i=0}^{n-1} (-1)^(n+1+i) * h^(n-i) * c^i,

    which strictly lowers the c-exponent, so the loop terminates.  Monomials
    with h-exponent above n are dropped immediately; substitution only ever
    raises the h-exponent, so early dropping loses nothing.
    """
    work: dict[Monomial, int] = {}
    for (a, b), value in raw.items():
        if value == 0 or a > n or a < 0 or b < 0:
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in monomial h^{a}*c^{b}")
            continue
        work[(a, b)] = work.get((a, b), 0) + value
    while True:
        high = [key for key in work if key[1] >= n]
        if not high:
            break
        a, b = max(high, key=lambda key: key[1])
        value = work.pop((a, b))
        if value == 0:
            continue
        # i < a would give h-exponent above n, hence zero
        for i in range(a, n):
            key = (a + n - i, b - n + i)
            sign = -1 if (n + 1 + i) % 2 else 1
            updated = work.get(key, 0) + sign * value
            if updated:
                work[key] = updated
            else:
                work.pop(key, None)
    return {key: value for key, value in work.items() if value}


class RingElement:
    """A ring element in canonical form.

    Construction accepts any exponent map (with nonnegative exponents) and
    reduces it, so ``RingElement(n, {(0, n): 1})`` already returns the
    rewritten power of the dual hyperplane class.  Values are immutable;
    all operations return fresh elements.

    >>> u = RingElement(2, {(0, 2): 1})
    >>> sorted(u.coefficients().items())
    [((1, 1), 1), ((2, 0), -1)]
    >>> u == RingElement(2, {(1, 1): 1, (2, 0): -1})
    True
    """

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs: dict[Monomial, int] | None = None):
        self.n = _check_dimension(n)
        self._coeffs = _reduce(coeffs, n) if coeffs else {}

    # -- construction helpers -------------------------------------------------

    def coefficients(self) -> dict[Monomial, int]:
        """Copy of the canonical coefficient map."""
        return dict(self._coeffs)

    def coefficient(self, a: int, b: int) -> int:
        return self._coeffs.get((a, b), 0)

    # -- ring structure --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.n != self.n:
                raise ValueError(f"ambient dimensions differ: {self.n} and {other.n}")
            return other
        if isinstance(other, int):
            return RingElement(self.n, {(0, 0): other})
        return None

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        result = RingElement(self.n)
        result._coeffs = {key: -value for key, value in self._coeffs.items()}
        return result

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        """self + sign * other, accumulated in one copy of self's map."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._coeffs)
        for key, value in other._coeffs.items():
            updated = out.get(key, 0) + sign * value
            if updated:
                out[key] = updated
            else:
                del out[key]  # stored coefficients are nonzero
        result = RingElement(self.n)
        result._coeffs = out
        return result

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        raw: dict[Monomial, int] = {}
        for (a1, b1), v1 in self._coeffs.items():
            for (a2, b2), v2 in other._coeffs.items():
                key = (a1 + a2, b1 + b2)
                raw[key] = raw.get(key, 0) + v1 * v2
        return RingElement(self.n, raw)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = one(self.n)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:  # no square past the top bit: it would be the costliest
                base = base * base
        return result

    # -- comparisons and inspection --------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other) if isinstance(other, int) else other
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.n == other.n and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self._coeffs.items())))

    def __bool__(self):
        return bool(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all monomials, or None for 0 or mixed degree."""
        degrees = {a + b for a, b in self._coeffs}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def __str__(self):
        items = sorted(
            self._coeffs.items(),
            key=lambda kv: (-(kv[0][0] + kv[0][1]), kv[0][0]),
        )
        from ._format import format_sum

        terms = []
        for (a, b), value in items:
            factors = []
            if a:
                factors.append("h" if a == 1 else f"h^{a}")
            if b:
                factors.append("c" if b == 1 else f"c^{b}")
            terms.append((value, "*".join(factors)))
        return format_sum(terms)

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
