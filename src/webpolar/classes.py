"""Distinguished cohomology classes on the point-hyperplane incidence variety
and the characteristic-number vectors they encode.

A projective subvariety V of dimension q contributes the class of its
conormal variety, written on the basis h^i * c^(n-i) with coefficients
a_1, ..., a_n (a_0 = 0 by convention).  A k-fold field of p-planes (a
k-distribution, or web once integrable) contributes a codimension-p class
with coefficients d_0, ..., d_p, where d_0 = k and d_1 is its degree.  The
conversions in both directions reduce to exact integrals in the ring.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

from .ring import RingElement, hyperplane, integrate, monomial


class NegativeCharNumberWarning(UserWarning):
    """A characteristic-number vector carries a negative entry.

    Degenerate data such as linear subspaces genuinely produce negative
    coefficients, so this is a report, not a rejection.
    """


def _warn_negative(label: str, values) -> None:
    for i, value in enumerate(values):
        if value < 0:
            warnings.warn(
                f"{label} vector has negative entry {value} at index {i}",
                NegativeCharNumberWarning,
                stacklevel=_caller_level(),
            )


def _caller_level() -> int:
    """The warning stack level of the first caller outside this module.

    A dataclass-generated ``__init__`` runs in this module's globals too, so
    direct construction and ``from_vector`` both name the user's line.
    """
    level, frame = 2, sys._getframe(2)  # the frame that called _warn_negative
    while frame is not None and frame.f_globals is globals():
        level, frame = level + 1, frame.f_back
    return level


@dataclass(frozen=True)
class CharNumbers:
    """Characteristic numbers of a q-dimensional projective subvariety of P^n.

    ``a`` stores (a_1, ..., a_n); the conventional a_0 = 0 is never stored.
    The same coefficient vector means different varieties at different
    dimensions, so q is carried explicitly.
    """

    n: int
    q: int
    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        if self.n < 1:
            raise ValueError(f"ambient dimension must be positive, got {self.n}")
        if not 0 <= self.q <= self.n - 1:
            raise ValueError(f"variety dimension q={self.q} out of range for n={self.n}")
        if len(self.a) != self.n:
            raise ValueError(f"expected {self.n} characteristic numbers, got {len(self.a)}")
        _warn_negative("characteristic-number", self.a)

    def coeff(self, i: int) -> int:
        """a_i with the a_0 = 0 convention."""
        if i == 0:
            return 0
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} outside 0..{self.n}")
        return self.a[i - 1]


@dataclass(frozen=True)
class WebCharNumbers:
    """Characteristic numbers (d_0, ..., d_p) of a k-fold p-plane field on P^n.

    d_0 equals the multiplicity k and d_1 the degree of the field, both by
    definition of the tangency loci the d_i count.
    """

    n: int
    p: int
    k: int
    d: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(self.d))
        if self.n < 2:
            raise ValueError(f"ambient dimension must be at least 2, got {self.n}")
        if not 1 <= self.p <= self.n - 1:
            raise ValueError(f"plane dimension p={self.p} out of range for n={self.n}")
        if self.k < 1:
            raise ValueError(f"multiplicity k must be positive, got {self.k}")
        if len(self.d) != self.p + 1:
            raise ValueError(f"expected {self.p + 1} entries d_0..d_{self.p}, got {len(self.d)}")
        if self.d[0] != self.k:
            raise ValueError(f"d_0 = {self.d[0]} does not equal the multiplicity k = {self.k}")
        _warn_negative("web characteristic-number", self.d)

    @classmethod
    def from_vector(cls, n: int, d, k: int | None = None) -> "WebCharNumbers":
        d = tuple(d)
        if not d:
            raise ValueError("empty d vector")
        return cls(n=n, p=len(d) - 1, k=d[0] if k is None else k, d=d)

    @property
    def degree(self) -> int:
        return self.d[1]


def conormal_linear(j: int, n: int) -> RingElement:
    """Class of the conormal variety of a linearly embedded P^j in P^n.

    The alternating sum sum_{t=0}^{j} (-1)^(j-t) h^(n-t) c^t is the unique
    codimension-n class pairing to the Kronecker delta against the monomials
    h^k * c^(n-k-1); it is already canonical.
    """
    if not 0 <= j <= n - 1:
        raise ValueError(f"linear subspace dimension j={j} out of range for n={n}")
    coeffs = {(n - t, t): (-1) ** (j - t) for t in range(j + 1)}
    return RingElement(n, coeffs)


def variety_class(c: CharNumbers) -> RingElement:
    """Conormal class a_n h^n + a_(n-1) h^(n-1) c + ... + a_1 h c^(n-1)."""
    coeffs = {(i, c.n - i): c.coeff(i) for i in range(1, c.n + 1)}
    return RingElement(c.n, coeffs)


def web_class(w: WebCharNumbers) -> RingElement:
    """Codimension-p class d_p h^p + ... + d_1 h c^(p-1) + d_0 c^p."""
    coeffs = {(i, w.p - i): w.d[i] for i in range(w.p + 1)}
    return RingElement(w.n, coeffs)


def web_char_integrals(s: RingElement, p: int) -> tuple[int, ...]:
    """Read the coefficient vector of a codimension-p class by integration.

    Each d_i is the exact integral of s against the conormal class of a
    linear P^(n-p-1+i) times h^(n-p-1).  For s on the standard layout
    sum d_i h^i c^(p-i) this recovers exactly the d_i.
    """
    n = s.n
    if not 1 <= p <= n - 1:
        raise ValueError(f"plane dimension p={p} out of range for n={n}")
    degree = s.homogeneous_degree()
    if degree is not None and degree != p and not s.is_zero:
        raise ValueError(f"class is homogeneous of degree {degree}, expected {p}")
    if degree is None and not s.is_zero:
        raise ValueError("class is not homogeneous")
    h_factor = hyperplane(n) ** (n - p - 1)
    return tuple(
        integrate(s * conormal_linear(n - p - 1 + i, n) * h_factor) for i in range(p + 1)
    )


def char_numbers_from_web_class(
    s: RingElement, p: int, k: int | None = None
) -> WebCharNumbers:
    """Recover (d_0, ..., d_p) from a codimension-p class.

    When ``k`` is supplied, the recovered d_0 must equal it.
    """
    d = web_char_integrals(s, p)
    if k is not None and d[0] != k:
        raise ValueError(f"recovered d_0 = {d[0]} does not match the supplied k = {k}")
    return WebCharNumbers(n=s.n, p=p, k=d[0], d=d)


def pencil_class(i: int, n: int) -> RingElement:
    """Class of the hyperplanes containing a fixed codimension-i linear space.

    The family sweeps an (i-1)-dimensional linear subspace of the dual
    projective space, so its class is c^(n-i+1) (canonical after reduction
    when the exponent reaches n).
    """
    if not 1 <= i <= n + 1:
        raise ValueError(f"flag index i={i} out of range 1..{n + 1}")
    return monomial(n, 0, n - i + 1)


def smooth_hypersurface_char_numbers(d: int, n: int) -> CharNumbers:
    """Characteristic numbers of a smooth degree-d hypersurface in P^n.

    All polar degrees of such a hypersurface equal d*(d-1)^j, which pins the
    coefficients through a_(j+1) = d*(d-1)^j - a_j starting from a_0 = 0.
    For d = 1 the solution alternates +1/-1: the higher polar classes of a
    hyperplane are empty, not the coefficients themselves.
    """
    if d < 1:
        raise ValueError(f"hypersurface degree must be positive, got {d}")
    a = []
    previous = 0
    for j in range(n):
        current = d * (d - 1) ** j - previous
        a.append(current)
        previous = current
    return CharNumbers(n=n, q=n - 1, a=tuple(a))
