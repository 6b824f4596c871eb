"""Polar-class degrees, invariance inequalities, and degree bounds.

The degree of the j-th polar class of a variety and the s-th polar class of
a p-plane field are two-term sums of characteristic numbers.  When a variety
is invariant under the field, the polar degrees obey a family of
inequalities indexed by (m, j); the j = 0 members need no extra hypothesis,
so a single failing one certifies non-invariance.  Specializing to smooth
hypersurfaces turns the inequalities into explicit degree bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .classes import (
    CharNumbers,
    WebCharNumbers,
    pencil_class,
    variety_class,
    web_class,
)
from .ring import hyperplane, integrate


def _check_consistent(value: int, expected: int, *context) -> None:
    # an explicit raise, unlike assert, is kept under python -O; the message
    # is formatted only on failure, as these checks run on every call
    if value != expected:
        raise RuntimeError(f"internal consistency check failed: {value} != {expected} {context}")


def polar_degree_variety(c: CharNumbers, j: int) -> int:
    """Degree of the j-th polar class: a_(n-q+j) + a_(n-q+j-1).

    The closed form is re-derived by exact integration in the ring and the
    two routes are required to agree.
    """
    if not 0 <= j <= c.q:
        raise ValueError(f"polar index j={j} out of range 0..{c.q}")
    value = c.coeff(c.n - c.q + j) + c.coeff(c.n - c.q + j - 1)
    recomputed = integrate(
        variety_class(c) * pencil_class(c.q - j + 2, c.n) * hyperplane(c.n) ** (c.q - j)
    )
    _check_consistent(value, recomputed, "polar degree vs ring integral", c, j)
    return value


def polar_degree_web(w: WebCharNumbers, s: int) -> int:
    """Degree of the s-th polar class of the plane field: d_s + d_(s-1).

    Only 1 <= s <= p is meaningful here: the (p+1)-st polar class exists but
    its degree is not a two-term sum of the stored vector.  As above the
    value is cross-checked against the ring integral.
    """
    if not 1 <= s <= w.p:
        raise ValueError(f"polar index s={s} out of range 1..{w.p}")
    value = w.d[s] + w.d[s - 1]
    recomputed = integrate(
        web_class(w) * pencil_class(w.p - s + 2, w.n) * hyperplane(w.n) ** (w.n - s)
    )
    _check_consistent(value, recomputed, "polar degree vs ring integral", w, s)
    return value


@dataclass(frozen=True)
class InequalityEntry:
    """One (m, j) comparison: lhs <= rhs, evaluated multiplicatively.

    ``conditional`` marks j > 0 entries, whose validity additionally needs a
    geometric containment between polar loci that the numbers alone cannot
    witness.  ``vacuous`` marks entries whose denominator polar degree is
    zero; they are reported, never evaluated, so ``holds`` is None there.
    """

    m: int
    j: int
    lhs: int
    rhs: int
    holds: bool | None
    conditional: bool
    vacuous: bool


class Verdict(str, Enum):
    NOT_INVARIANT = "NOT_INVARIANT"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class InequalityReport:
    entries: tuple[InequalityEntry, ...]

    @property
    def witness(self) -> InequalityEntry | None:
        """First unconditional, non-vacuous entry that fails, if any."""
        for entry in self.entries:
            if not entry.conditional and not entry.vacuous and entry.holds is False:
                return entry
        return None

    @property
    def verdict(self) -> Verdict:
        """What the unconditional entries say about invariance.

        A failing j = 0 entry proves the variety is not invariant under any
        plane field with these characteristic numbers.  When every entry
        holds the answer is INCONCLUSIVE: the inequalities are necessary
        conditions only.
        """
        return Verdict.INCONCLUSIVE if self.witness is None else Verdict.NOT_INVARIANT


def invariance_inequalities(
    c: CharNumbers, w: WebCharNumbers, include_conditional: bool = False
) -> InequalityReport:
    """Evaluate deg P^V_(q-p-j+m) <= deg P^V_(q-p-j) * deg P^W_m over (m, j).

    m runs over 1..p and j over 0..q-p (j = 0 only unless
    ``include_conditional``).  The quotient form of the comparison is cleared
    to a cross-multiplication so everything stays in exact integers.
    Requires q >= p and matching ambient dimension.
    """
    if c.n != w.n:
        raise ValueError(f"ambient dimensions differ: {c.n} and {w.n}")
    if c.q < w.p:
        raise ValueError(f"variety dimension q={c.q} is below the plane dimension p={w.p}")
    entries = []
    j_range = range(c.q - w.p + 1) if include_conditional else range(1)
    for m in range(1, w.p + 1):
        web_factor = polar_degree_web(w, m)
        for j in j_range:
            lhs = polar_degree_variety(c, c.q - w.p - j + m)
            denominator = polar_degree_variety(c, c.q - w.p - j)
            rhs = denominator * web_factor
            vacuous = denominator == 0
            entries.append(
                InequalityEntry(
                    m=m,
                    j=j,
                    lhs=lhs,
                    rhs=rhs,
                    holds=None if vacuous else lhs <= rhs,
                    conditional=j > 0,
                    vacuous=vacuous,
                )
            )
    return InequalityReport(entries=tuple(entries))


def integer_root(x: int, m: int) -> int:
    """Largest r >= 0 with r**m <= x, by pure integer Newton iteration.

    >>> integer_root(12, 2)
    3
    >>> integer_root(8, 3)
    2
    """
    if x < 0:
        raise ValueError(f"cannot take an integer root of the negative value {x}")
    if m < 1:
        raise ValueError(f"root index must be positive, got {m}")
    if m == 1 or x in (0, 1):
        return x
    r = 1 << (x.bit_length() + m - 1) // m
    while True:
        candidate = ((m - 1) * r + x // r ** (m - 1)) // m
        if candidate >= r:
            break
        r = candidate
    while r ** m > x:
        r -= 1
    while (r + 1) ** m <= x:
        r += 1
    return r


@dataclass(frozen=True)
class DegreeBounds:
    """Per-index and overall degree bounds for a smooth invariant hypersurface.

    ``per_m[m - 1]`` is the largest d with (d-1)^m <= d_m + d_(m-1); the
    overall bound is their minimum.  The m = 1 entry always equals
    k + deg(W) + 1.
    """

    per_m: tuple[int, ...]
    overall: int


def hypersurface_degree_bound(w: WebCharNumbers) -> DegreeBounds:
    """Solve (d-1)^m <= d_m + d_(m-1) exactly for every m in 1..p."""
    bounds = tuple(1 + integer_root(w.d[m] + w.d[m - 1], m) for m in range(1, w.p + 1))
    _check_consistent(bounds[0], w.k + w.d[1] + 1, "m=1 bound vs k + d_1 + 1", w)
    return DegreeBounds(per_m=bounds, overall=min(bounds))
