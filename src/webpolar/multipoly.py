"""Sparse multivariate polynomials over the integers, with exact elimination.

The variable universe is fixed to (x, y, p, t, u): x, y are affine plane
coordinates, p is the slope dy/dx of an implicit differential equation, and
u is the coordinate of the chart at infinity.  No computation uses t; the
slot stays because ``terms()`` exposes this five-slot exponent layout.
Coefficients are arbitrary-precision integers and nothing here ever touches
floating point.

Resultants are determinants of the Sylvester matrix, taken by one of two
exact paths.  Dense input is packed by Kronecker substitution: every
variable but the eliminated one becomes a power of z = 2^b, spaced by the
resultant's degree bound in that variable, and 2^(b-1) exceeds the bound
‖f‖₁^deg(g) · ‖g‖₁^deg(f) on the resultant's coefficients.  One
fraction-free integer Bareiss determinant is then the resultant's value at
z, and its balanced base-2^b digits are the coefficients.  Where that packed
value would be large for the number of terms (sparse, high-degree or
huge-coefficient input), fraction-free Bareiss runs over the polynomial
entries instead.  The choice reads only the degrees, term counts and b of
the two inputs (``_use_kronecker``); both paths give the same polynomial.
Exact division takes the leading monomials of the remainder from a heap,
at O(log T) per step for T remainder terms.

>>> x, y, p = variables("x", "y", "p")
>>> print(resultant(p**2 - x, p - y, "p"))
y^2 - x
>>> (x**2 - y**2).try_exact_div(x - y) == x + y
True
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from operator import floordiv

VARIABLES = ("x", "y", "p", "t", "u")
_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_ZERO_EXPONENTS = (0, 0, 0, 0, 0)

Exponents = tuple[int, int, int, int, int]


def _var_index(name: str) -> int:
    try:
        return _INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}") from None


class MultiPoly:
    """An integer polynomial stored as a map from exponent tuples to coefficients.

    Zero coefficients are never stored, so equality is plain map equality.

    >>> x, y = variables("x", "y")
    >>> f = (x + y) ** 2
    >>> f.degree("x"), f.total_degree()
    (2, 2)
    >>> f.coefficient_list("y")[1] == 2 * x
    True
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Exponents, int] | None = None):
        self._terms = {e: c for e, c in terms.items() if c} if terms else {}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, value: int) -> "MultiPoly":
        return cls({_ZERO_EXPONENTS: value})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        exps = [0, 0, 0, 0, 0]
        exps[_var_index(name)] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @classmethod
    def sum(cls, polys) -> "MultiPoly":
        """Sum of an iterable of polynomials, accumulated in one term map.

        Linear in the total number of terms, where a chain of ``+`` would
        copy the running sum once per summand.
        """
        out: dict[Exponents, int] = {}
        for poly in polys:
            if not out:
                out = dict(poly._terms)
                continue
            for exps, coeff in poly._terms.items():
                updated = out.get(exps, 0) + coeff
                if updated:
                    out[exps] = updated
                else:
                    del out[exps]  # stored coefficients are nonzero
        result = cls()
        result._terms = out
        return result

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, int):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        result = MultiPoly()
        result._terms = {e: -c for e, c in self._terms.items()}
        return result

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            updated = out.get(exps, 0) - coeff
            if updated:
                out[exps] = updated
            else:
                del out[exps]  # stored coefficients are nonzero
        result = MultiPoly()
        result._terms = out
        return result

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Exponents, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3], e1[4] + e2[4])
                updated = out.get(key, 0) + c1 * c2
                if updated:
                    out[key] = updated
                else:
                    out.pop(key, None)
        result = MultiPoly()
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = MultiPoly.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:  # no square past the top bit: it would be the costliest
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other) if isinstance(other, int) else other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- inspection --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[Exponents, int]:
        return dict(self._terms)

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = _var_index(var)
        return max((e[i] for e in self._terms), default=-1)

    def min_degree(self, var: str) -> int:
        """Least exponent of ``var`` across all terms; -1 for zero."""
        i = _var_index(var)
        return min((e[i] for e in self._terms), default=-1)

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=-1)

    def uses_only(self, names: set[str]) -> bool:
        allowed = {_var_index(name) for name in names}
        return all(
            all(e[i] == 0 for i in range(5) if i not in allowed) for e in self._terms
        )

    def constant_value(self) -> int:
        if not self._terms:
            return 0
        if set(self._terms) == {_ZERO_EXPONENTS}:
            return self._terms[_ZERO_EXPONENTS]
        raise ValueError(f"polynomial {self} is not constant")

    def coefficient_list(self, var: str) -> list["MultiPoly"]:
        """Coefficients in ``var``, ascending, as polynomials in the others."""
        i = _var_index(var)
        d = self.degree(var)
        buckets: list[dict[Exponents, int]] = [{} for _ in range(d + 1)]
        for exps, coeff in self._terms.items():
            stripped = list(exps)
            stripped[i] = 0
            buckets[exps[i]][tuple(stripped)] = coeff
        out = []
        for bucket in buckets:
            poly = MultiPoly()
            poly._terms = bucket
            out.append(poly)
        return out

    # -- calculus and substitution -------------------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        i = _var_index(var)
        out: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            if exps[i] == 0:
                continue
            lowered = list(exps)
            lowered[i] -= 1
            out[tuple(lowered)] = coeff * exps[i]
        result = MultiPoly()
        result._terms = out
        return result

    def substitute(self, **assignments) -> "MultiPoly":
        """Replace variables by polynomials or integers; others stay put."""
        bases: dict[int, MultiPoly] = {}
        for name, value in assignments.items():
            poly = value if isinstance(value, MultiPoly) else MultiPoly.const(value)
            bases[_var_index(name)] = poly
        power_cache: dict[tuple[int, int], MultiPoly] = {}

        def power(i: int, e: int) -> MultiPoly:
            key = (i, e)
            if key not in power_cache:
                power_cache[key] = bases[i] ** e
            return power_cache[key]

        def image(exps: Exponents, coeff: int) -> MultiPoly:
            residual = list(exps)
            term = MultiPoly.const(coeff)
            for i, e in enumerate(exps):
                if e and i in bases:
                    residual[i] = 0
                    term = term * power(i, e)
            shell = MultiPoly()
            shell._terms = {tuple(residual): 1}
            return term * shell

        return MultiPoly.sum(image(exps, coeff) for exps, coeff in self._terms.items())

    def evaluate(self, **point: int) -> int:
        """Evaluate at an integer point assigning every used variable."""
        return self.substitute(**point).constant_value()

    def swap_xy(self) -> "MultiPoly":
        out = {}
        for exps, coeff in self._terms.items():
            out[(exps[1], exps[0], exps[2], exps[3], exps[4])] = coeff
        result = MultiPoly()
        result._terms = out
        return result

    # -- exact division ------------------------------------------------------------

    def content(self) -> int:
        """Nonnegative gcd of all coefficients (0 for the zero polynomial)."""
        value = 0
        for coeff in self._terms.values():
            value = gcd(value, coeff)
        return value

    def primitive_part(self) -> "MultiPoly":
        """Divide out the integer content, keeping the sign of every term."""
        c = self.content()
        if c in (0, 1):
            return self
        result = MultiPoly()
        result._terms = {e: v // c for e, v in self._terms.items()}
        return result

    def leading_term(self) -> tuple[Exponents, int]:
        """Lexicographically largest monomial (x-major order) and its coefficient."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self._terms)
        return exps, self._terms[exps]

    def try_exact_div(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Quotient self / divisor over the integers, or None if not exact.

        Leading monomials of the remainder come off a max-heap of negated
        exponent tuples; a monomial that cancelled after it was pushed is
        skipped when popped (lazy deletion).  Every step only touches
        monomials below the one it eliminates, so the steps, and the point
        where an inexact division gives up, are those of taking the largest
        remaining monomial each time.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        remainder = dict(self._terms)
        heap = [(-e[0], -e[1], -e[2], -e[3], -e[4]) for e in remainder]
        heapify(heap)
        quotient: dict[Exponents, int] = {}
        div_lm, div_lc = divisor.leading_term()
        d0, d1, d2, d3, d4 = div_lm
        tail = [(e, c) for e, c in divisor._terms.items() if e != div_lm]
        while heap:
            n0, n1, n2, n3, n4 = heappop(heap)
            lm = (-n0, -n1, -n2, -n3, -n4)
            lc = remainder.pop(lm, 0)
            if not lc:
                continue
            delta = (-n0 - d0, -n1 - d1, -n2 - d2, -n3 - d3, -n4 - d4)
            if min(delta) < 0:
                return None
            q, r = divmod(lc, div_lc)
            if r:
                return None
            quotient[delta] = q
            for exps, coeff in tail:
                key = (
                    delta[0] + exps[0],
                    delta[1] + exps[1],
                    delta[2] + exps[2],
                    delta[3] + exps[3],
                    delta[4] + exps[4],
                )
                previous = remainder.get(key)
                if previous is None:
                    remainder[key] = -q * coeff
                    heappush(heap, (-key[0], -key[1], -key[2], -key[3], -key[4]))
                elif previous == q * coeff:
                    del remainder[key]
                else:
                    remainder[key] = previous - q * coeff
        result = MultiPoly()
        result._terms = quotient
        return result

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        quotient = self.try_exact_div(divisor)
        if quotient is None:
            raise ArithmeticError(f"{self} is not divisible by {divisor}")
        return quotient

    def divides(self, other: "MultiPoly") -> bool:
        return other.try_exact_div(self) is not None

    # -- rendering -------------------------------------------------------------------

    def __str__(self):
        items = sorted(
            self._terms.items(),
            key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])),
        )
        from ._format import format_sum

        rendered = []
        for exps, coeff in items:
            factors = []
            for name, e in zip(VARIABLES, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            rendered.append((coeff, "*".join(factors)))
        return format_sum(rendered)

    def __repr__(self):
        return f"MultiPoly({self})"


def variables(*names: str) -> tuple[MultiPoly, ...]:
    """Convenience constructor: ``x, y = variables("x", "y")``."""
    return tuple(MultiPoly.variable(name) for name in names)


def _bareiss_determinant(rows: list[list], divide=MultiPoly.exact_div):
    """Exact determinant of a square matrix over polynomials or integers.

    One-step fraction-free elimination: every division is by the previous
    pivot and is exact by Sylvester's determinant identity, also after the
    row exchanges used to escape zero pivots.  ``divide`` is that exact
    division for the entries' type (``operator.floordiv`` for integers).
    """
    m = [row[:] for row in rows]
    size = len(m)
    sign = 1
    previous = None
    for r in range(size - 1):
        if not m[r][r]:
            for rr in range(r + 1, size):
                if m[rr][r]:
                    m[r], m[rr] = m[rr], m[r]
                    sign = -sign
                    break
            else:
                return m[r][r]  # the zero of the entries' type
        top = m[r]
        pivot = top[r]
        for i in range(r + 1, size):
            row = m[i]
            left = row[r]
            for j in range(r + 1, size):
                entry = pivot * row[j] - left * top[j]
                row[j] = entry if previous is None else divide(entry, previous)
        previous = pivot
    det = m[size - 1][size - 1]
    return -det if sign < 0 else det


def _sylvester_layout(fc: list, gc: list, zero) -> list[list]:
    """Sylvester matrix from coefficient lists in descending degree order."""
    deg_f = len(fc) - 1
    deg_g = len(gc) - 1
    size = deg_f + deg_g
    rows = []
    for shift in range(deg_g):
        rows.append([zero] * shift + fc + [zero] * (size - deg_f - 1 - shift))
    for shift in range(deg_f):
        rows.append([zero] * shift + gc + [zero] * (size - deg_g - 1 - shift))
    return rows


def sylvester_matrix(f: MultiPoly, g: MultiPoly, var: str) -> list[list[MultiPoly]]:
    """The (deg f + deg g)-square Sylvester matrix of f and g in ``var``."""
    if f.degree(var) < 1 or g.degree(var) < 1:
        raise ValueError("both polynomials need positive degree in the elimination variable")
    fc = list(reversed(f.coefficient_list(var)))
    gc = list(reversed(g.coefficient_list(var)))
    return _sylvester_layout(fc, gc, MultiPoly.zero())


def _integer_resultant(fc: list[int], gc: list[int]) -> int:
    """Res(f, g) of integer polynomials given by coefficient lists in
    descending degree order, leading coefficients nonzero."""
    return _bareiss_determinant(_sylvester_layout(fc, gc, 0), floordiv)


class _Packing:
    """Kronecker substitution for Res_var(f, g) at z = 2^b, b = 8 * width.

    A variable v other than ``var`` occurs in the resultant to degree at
    most D_v = deg_var(g)·deg_v(f) + deg_var(f)·deg_v(g), so sending v to
    z^(weight of v), with mixed-radix weights of radix D_v + 1 (the first
    slot most significant), maps distinct monomials of the resultant to
    distinct powers of z below ``box``.  Every coefficient of the resultant
    is at most ‖f‖₁^deg_var(g) · ‖g‖₁^deg_var(f) in absolute value: the
    determinant is a signed sum of products of entries, so its 1-norm is at
    most the permanent of the entries' 1-norms, and a permanent is at most
    the product of its row sums, ‖f‖₁ for a row of f and ‖g‖₁ for a row of
    g.  2^(b-1) exceeds that bound, so the balanced base-2^b digits of the
    evaluated determinant are the resultant's coefficients.
    """

    __slots__ = ("var", "slots", "weights", "box", "width")

    def __init__(self, f: MultiPoly, g: MultiPoly, var: str):
        self.var = _var_index(var)
        deg_f = f.degree(var)
        deg_g = g.degree(var)
        radices = {}
        for v in range(5):
            if v != self.var:
                bound = (deg_g * max(e[v] for e in f._terms)
                         + deg_f * max(e[v] for e in g._terms))
                if bound:
                    radices[v] = bound + 1
        self.slots = tuple(radices)
        self.weights = []
        box = 1
        for v in reversed(self.slots):
            self.weights.insert(0, box)
            box *= radices[v]
        self.box = box  # number of digits
        norm_f, norm_g = (sum(map(abs, h._terms.values())) for h in (f, g))
        coefficient_bound = norm_f ** deg_g * norm_g ** deg_f
        self.width = coefficient_bound.bit_length() // 8 + 1  # bytes per digit

    @property
    def packed_bits(self) -> int:
        """Bit size of the packed resultant: digits times digit width."""
        return self.box * 8 * self.width

    def _index(self, exps: Exponents) -> int:
        return sum(exps[v] * w for v, w in zip(self.slots, self.weights))

    def evaluate(self, poly: MultiPoly) -> list[int]:
        """Coefficients of ``poly`` in the elimination variable, descending,
        each evaluated at z = 2^b."""
        width = self.width
        coefficients = poly.coefficient_list(VARIABLES[self.var])
        out = []
        for coefficient in reversed(coefficients):
            packed = [(self._index(e), c) for e, c in coefficient._terms.items()]
            size = (max((k for k, _ in packed), default=-1) + 1) * width
            positive, negative = bytearray(size), bytearray(size)
            for k, c in packed:
                target = positive if c > 0 else negative
                target[k * width:(k + 1) * width] = abs(c).to_bytes(width, "little")
            out.append(int.from_bytes(positive, "little") - int.from_bytes(negative, "little"))
        return out

    def unpack(self, value: int) -> MultiPoly:
        """The polynomial whose value at z = 2^b is ``value``.

        Reads balanced base-2^b digits off the bytes of |value| with one
        carry, in time linear in its size.  A digit at or beyond ``box``
        (a carry out of the last digit included) or of magnitude 2^(b-1)
        means that the coefficient bound did not hold: RuntimeError.
        """
        width = self.width
        half = 1 << (8 * width - 1)
        full = half << 1
        magnitude = abs(value)
        # one digit more than |value| needs takes the carry out of its top
        count = min(-(-magnitude.bit_length() // (8 * width)) + 1, self.box)
        if magnitude >> (8 * width * count):
            raise _bound_failure()
        data = magnitude.to_bytes(count * width, "little")
        zero_digit = bytes(width)
        sign = -1 if value < 0 else 1
        terms: dict[Exponents, int] = {}
        carry = 0
        for k in range(count):
            chunk = data[k * width:(k + 1) * width]
            if not carry and chunk == zero_digit:
                continue
            digit = int.from_bytes(chunk, "little") + carry
            carry = digit >= half
            if carry:
                digit -= full
            if digit == -half:
                raise _bound_failure()
            if digit:
                exps = [0, 0, 0, 0, 0]
                rest = k
                for v, w in zip(self.slots, self.weights):
                    exps[v], rest = divmod(rest, w)
                terms[tuple(exps)] = sign * digit
        if carry:
            raise _bound_failure()
        result = MultiPoly()
        result._terms = terms
        return result


def _bound_failure() -> RuntimeError:
    return RuntimeError(
        "internal consistency check failed: the Kronecker digits of a resultant "
        "exceed the coefficient bound they were packed with"
    )


def _kronecker_resultant(f: MultiPoly, g: MultiPoly, packing: _Packing) -> MultiPoly:
    """Res(f, g) as one integer determinant of the Sylvester matrix at z = 2^b."""
    return packing.unpack(_integer_resultant(packing.evaluate(f), packing.evaluate(g)))


# Kronecker packing is dense: it pays for every monomial in the box and every
# bit of the digit width, where symbolic Bareiss pays per pair of terms.  In
# 64-bit words, with w the digit width and S = box * w the packed size, the
# packed path runs when
#     S * (1 + w) * (1 + S / KRONECKER_QUADRATIC_WORDS)
#         <= KRONECKER_RATIO * T_f * T_g * (m + n)
# and S * 64 <= KRONECKER_MAX_BITS.  The two factors past S stand for
# CPython's integer division, quadratic in the length of its operands, which
# makes the packed path lose on dense input with wide coefficients (several
# hundred bits per digit) or a large box.  The constants were fitted to
# timings of both paths on 580 resultants: random webs (k 1-4, degree 1-40,
# density 0.03-1, coefficients up to 100 bits) against F_p and a pencil,
# and sparse high-degree webs.
KRONECKER_RATIO = 4
KRONECKER_QUADRATIC_WORDS = 4000
KRONECKER_MAX_BITS = 1 << 22


def _use_kronecker(f: MultiPoly, g: MultiPoly, packing: _Packing, size: int) -> bool:
    words = packing.width / 8
    packed = packing.box * words
    cost = packed * (1 + words) * (1 + packed / KRONECKER_QUADRATIC_WORDS)
    return packing.packed_bits <= KRONECKER_MAX_BITS and (
        cost <= KRONECKER_RATIO * len(f._terms) * len(g._terms) * size
    )


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Resultant of f and g with respect to ``var``.

    Vanishes exactly where the two polynomials share a root in ``var``.
    Degenerate degrees follow the classical conventions: Res(f, g) with g of
    degree zero in ``var`` is g**deg(f), and the resultant of two
    var-constants is 1.  Zero input polynomials are rejected.

    Dense inputs take one integer determinant of the Kronecker-packed
    Sylvester matrix (``_Packing``); sparse, high-degree or huge-coefficient
    inputs, where packing would be large, take symbolic Bareiss elimination.
    Both give the exact polynomial, sign included.

    >>> x, y, p = variables("x", "y", "p")
    >>> print(resultant(x + y * p, (y - 3) - p * (x - 5), "p"))
    x^2 + y^2 - 5*x - 3*y
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    deg_f = f.degree(var)
    deg_g = g.degree(var)
    if deg_f == 0 and deg_g == 0:
        return MultiPoly.one()
    if deg_g == 0:
        return g ** deg_f
    if deg_f == 0:
        return f ** deg_g
    packing = _Packing(f, g, var)
    if _use_kronecker(f, g, packing, deg_f + deg_g):
        return _kronecker_resultant(f, g, packing)
    return _bareiss_determinant(sylvester_matrix(f, g, var))
