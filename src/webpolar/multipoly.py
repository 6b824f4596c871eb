"""Sparse multivariate polynomials over the integers, with exact elimination.

``SparsePoly`` is the one sparse integer polynomial of the package: a map
from packed monomials to nonzero coefficients, with its sum, difference,
product, power, equality and printing.  ``MultiPoly`` here and
``ring.RingElement`` derive from it, and each subclass declares its own
``VARIABLES``.  A monomial is packed into one nonnegative int with one
64-bit field per variable, the first variable most significant: the
exponent of ``name`` is ``(key >> _SHIFTS[name]) & _FIELD``.  Int order is
then lex order with the first variable major, a product of monomials is the
sum of their keys, and a monomial m divides a monomial m' exactly when
m' - m is nonnegative with no field's top bit set (``_GUARDS``).  All of
this holds while every exponent stays below 2^63, which the public
constructors and ``**`` check; ``terms()`` gives exponent tuples back.
Coefficients are arbitrary-precision integers and nothing here ever touches
floating point.

``MultiPoly`` has the variables (x, y, p, t, u): x, y are affine plane
coordinates and p is the slope dy/dx of an implicit differential equation.
t and u are the coordinates of the symbolic generic point through which
``weblab.polar_curve`` draws the polar curve, the tests' reference for the
polar degree; u is also the coordinate of the chart at infinity of
``ImplicitWeb.infinity_chart``, the tests' independent reference for
tangency counts.

Resultants come from the Bezout matrix: for m = deg f >= n = deg g it is
max(m, n)-square, and its fraction-free Bareiss determinant, divided exactly
by a_m^(m-n) and signed by (-1)^(m(m-1)/2), is Res(f, g), the determinant
of the (m+n)-square Sylvester matrix.  It is taken by one of two exact
paths.  Dense input is packed by Kronecker substitution: every variable but
the eliminated one becomes a power of z = 2^b, spaced by the resultant's
degree bound in that variable, and 2^(b-1) exceeds the bound
‖f‖₁^deg(g) · ‖g‖₁^deg(f) on the resultant's coefficients.  One integer
Bezout determinant is then the resultant's value at z, and its balanced
base-2^b digits are the coefficients.  Where that packed value would be
large for the number of terms (sparse, high-degree or huge-coefficient
input), the same determinant runs over the polynomial entries instead.  The
choice reads only the degrees, term counts and b of the two inputs
(``_use_kronecker``); both paths give the same polynomial.
Exact division, ``//`` or ``try_exact_div`` where the quotient may not
exist, takes the leading monomials of the remainder from a heap, at
O(log T) per step for T remainder terms.

>>> x, y, p = variables("x", "y", "p")
>>> print(resultant(p**2 - x, p - y, "p"))
y^2 - x
>>> (x**2 - y**2).try_exact_div(x - y) == x + y
True
"""

from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heappush
from math import gcd
from struct import Struct

_BITS = 64  # bits per exponent field of a packed monomial
_FIELD = (1 << _BITS) - 1
_LIMIT = 1 << (_BITS - 1)  # exponents stay below this


def _add_into(out: dict[int, int], terms: dict[int, int], sign: int) -> None:
    """out += sign * terms, dropping the coefficients that cancel."""
    for key, coeff in terms.items():
        updated = out.get(key, 0) + sign * coeff
        if updated:
            out[key] = updated
        else:
            del out[key]  # stored coefficients are nonzero


def _product(left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    """Product of two packed term maps, every pair of terms multiplied out."""
    out: dict[int, int] = {}
    get = out.get
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = e1 + e2
            updated = get(key, 0) + c1 * c2
            if updated:
                out[key] = updated
            else:
                del out[key]  # stored coefficients are nonzero
    return out


class SparsePoly:
    """An integer combination of monomials in ``VARIABLES``, packed as above.

    Zero coefficients are never stored, so equality is plain map equality.
    A subclass names its variables in ``VARIABLES``; one that keeps more
    state carries it to results in ``_new`` and compares it in ``_space``,
    and one with relations rewrites a raw term map in ``_normal``.
    ``degree`` bounds the exponents a power may reach.
    """

    __slots__ = ("_terms",)
    VARIABLES: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        top = _BITS * (len(cls.VARIABLES) - 1)
        cls._SHIFTS = {name: top - _BITS * i for i, name in enumerate(cls.VARIABLES)}
        cls._GUARDS = sum(1 << (shift + _BITS - 1) for shift in cls._SHIFTS.values())

    @classmethod
    def _shift(cls, name: str) -> int:
        try:
            return cls._SHIFTS[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}; expected one of {cls.VARIABLES}") from None

    @classmethod
    def _key(cls, exps) -> int:
        """The packed monomial of an exponent tuple, checked."""
        if len(exps) != len(cls.VARIABLES) or not all(0 <= e < _LIMIT for e in exps):
            raise ValueError(
                f"exponents {exps!r} are not {len(cls.VARIABLES)} integers in [0, 2^63)"
            )
        key = 0
        for e in exps:
            key = key << _BITS | e
        return key

    @classmethod
    @cache
    def _layout(cls, names: tuple[str, ...]) -> Struct:
        """The fields of ``names``, which follow the order of ``VARIABLES``, as
        big-endian words of a packed monomial; the others are pad bytes."""
        shifts = [cls._shift(name) for name in names]
        if shifts != sorted(set(shifts), reverse=True):
            raise ValueError(f"variables {names} are not in the order of {cls.VARIABLES}")
        return Struct(">" + "".join("Q" if shift in shifts else f"{_BITS // 8}x"
                                    for shift in cls._SHIFTS.values()))

    @classmethod
    def _packed(cls, terms: dict) -> dict[int, int]:
        """Packed form of a map from exponent tuples to coefficients."""
        return {cls._key(exps): coeff for exps, coeff in terms.items() if coeff}

    @classmethod
    def _wrap(cls, terms: dict[int, int]) -> "SparsePoly":
        result = object.__new__(cls)
        result._terms = terms
        return result

    # an element alongside self with the packed, zero-free ``terms``; a
    # subclass with more state overrides it to carry that state along
    _new = _wrap

    def _normal(self, raw: dict[int, int]) -> dict[int, int]:
        """The normal form of a map of packed monomials: zeros dropped."""
        return {key: coeff for key, coeff in raw.items() if coeff}

    def _space(self):
        """What besides the class fixes an element's ring; rings never mix."""
        return None

    def terms_in(self, *names: str) -> list[tuple[tuple[int, ...], int]]:
        """Each term as (its exponents of ``names``, coefficient); ``names``
        follow the order of ``VARIABLES``."""
        layout = self._layout(names)
        unpack, size = layout.unpack, layout.size
        return [(unpack(key.to_bytes(size, "big")), coeff) for key, coeff in self._terms.items()]

    def terms(self) -> dict[tuple[int, ...], int]:
        """The map from exponent tuples, one entry per variable, to coefficients."""
        return dict(self.terms_in(*self.VARIABLES))

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for zero."""
        shift = self._shift(var)
        return max((key >> shift & _FIELD for key in self._terms), default=-1)

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return self._new({0: other} if other else {})
        if type(other) is not type(self):
            return None
        if other._space() != self._space():
            raise ValueError(f"ambient dimensions differ: {self._space()} and {other._space()}")
        return other

    def _combine(self, other, sign: int):
        """self + sign * other, accumulated in one copy of self's map."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        _add_into(out, other._terms, sign)
        return self._new(out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._new({key: -coeff for key, coeff in self._terms.items()})

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        top = max(map(self.degree, self.VARIABLES), default=0)
        if top * exponent >= _LIMIT:
            raise ValueError(f"power {exponent} takes an exponent past 2^63")
        result = self._new({0: 1})
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:  # no square past the top bit: it would be the costliest
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms and self._space() == other._space()

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- rendering -------------------------------------------------------------------

    @staticmethod
    def _print_order(item):
        """Higher total degree first, then larger exponents of earlier variables."""
        exps = item[0]
        return -sum(exps), tuple(-e for e in exps)

    def __str__(self):
        """``a*m1 + b*m2 - ...`` with '*' between factors and '^' for powers,
        so every printed form re-parses under the CLI's expression grammar."""
        parts = []
        for exps, coeff in sorted(self.terms().items(), key=self._print_order):
            mono = "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(self.VARIABLES, exps) if e)
            mag = abs(coeff)
            body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
            if parts:
                parts.append((" - " if coeff < 0 else " + ") + body)
            else:
                parts.append("-" + body if coeff < 0 else body)
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class MultiPoly(SparsePoly):
    """An integer polynomial in x, y, p, t and u.

    >>> x, y = variables("x", "y")
    >>> f = (x + y) ** 2
    >>> f.degree("x"), f.total_degree()
    (2, 2)
    >>> f.coefficient_list("y")[1] == 2 * x
    True
    """

    __slots__ = ()
    VARIABLES = ("x", "y", "p", "t", "u")

    def __init__(self, terms: dict[tuple[int, ...], int] | None = None):
        self._terms = self._packed(terms) if terms else {}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, value: int) -> "MultiPoly":
        return cls._wrap({0: value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls._wrap({1 << cls._shift(name): 1})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @classmethod
    def sum(cls, polys) -> "MultiPoly":
        """Sum of an iterable of polynomials, accumulated in one term map.

        Linear in the total number of terms, where a chain of ``+`` would
        copy the running sum once per summand.
        """
        out: dict[int, int] = {}
        for poly in polys:
            if out:
                _add_into(out, poly._terms, 1)
            else:
                out = dict(poly._terms)
        return cls._wrap(out)

    # -- arithmetic --------------------------------------------------------------

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._new(_product(self._terms, other._terms))

    __rmul__ = __mul__

    # -- inspection --------------------------------------------------------------

    def min_degree(self, var: str) -> int:
        """Least exponent of ``var`` across all terms; -1 for zero."""
        shift = self._shift(var)
        return min((key >> shift & _FIELD for key in self._terms), default=-1)

    def total_degree(self, *names: str) -> int:
        """Total degree, in ``names`` only when given; -1 for zero."""
        layout = self._layout(names or self.VARIABLES)
        unpack, size = layout.unpack, layout.size
        return max((sum(unpack(key.to_bytes(size, "big"))) for key in self._terms), default=-1)

    def uses_only(self, names: set[str]) -> bool:
        others = sum(_FIELD << shift for name, shift in self._SHIFTS.items()
                     if name not in names)
        return not any(key & others for key in self._terms)

    def constant_value(self) -> int:
        if not self._terms:
            return 0
        if set(self._terms) == {0}:
            return self._terms[0]
        raise ValueError(f"polynomial {self} is not constant")

    def coefficient_list(self, var: str) -> list["MultiPoly"]:
        """Coefficients in ``var``, ascending, as polynomials in the others."""
        shift = self._shift(var)
        buckets: list[dict[int, int]] = [{} for _ in range(self.degree(var) + 1)]
        for key, coeff in self._terms.items():
            e = key >> shift & _FIELD
            buckets[e][key - (e << shift)] = coeff
        return [self._new(bucket) for bucket in buckets]

    # -- calculus and substitution -------------------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        shift = self._shift(var)
        out: dict[int, int] = {}
        for key, coeff in self._terms.items():
            e = key >> shift & _FIELD
            if e:
                out[key - (1 << shift)] = coeff * e
        return self._new(out)

    def substitute(self, **assignments) -> "MultiPoly":
        """Replace variables by polynomials or integers; others stay put."""
        bases = {self._shift(name): self._coerce(value) for name, value in assignments.items()}
        order = sorted(bases, reverse=True)  # variables in their declared order
        power_cache: dict[tuple[int, int], MultiPoly] = {}

        def power(shift: int, e: int) -> MultiPoly:
            key = (shift, e)
            if key not in power_cache:
                power_cache[key] = bases[shift] ** e
            return power_cache[key]

        def image(key: int, coeff: int) -> MultiPoly:
            term = self._new({0: coeff})
            for shift in order:
                e = key >> shift & _FIELD
                if e:
                    key -= e << shift
                    term = term * power(shift, e)
            return term * self._new({key: 1})

        return self.sum(image(key, coeff) for key, coeff in self._terms.items())

    def evaluate(self, **point: int) -> int:
        """Evaluate at an integer point assigning every used variable."""
        return self.substitute(**point).constant_value()

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
        return self._new({key: coeff // c for key, coeff in self._terms.items()})

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """Lexicographically largest monomial (x-major order) and its coefficient."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms().items())

    def try_exact_div(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Quotient self / divisor over the integers, or None if not exact.

        Leading monomials of the remainder come off a max-heap of negated
        packed monomials; a monomial that cancelled after it was pushed is
        skipped when popped (lazy deletion).  Every step only touches
        monomials below the one it eliminates, so the steps, and the point
        where an inexact division gives up, are those of taking the largest
        remaining monomial each time.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        remainder = dict(self._terms)
        heap = [-key for key in remainder]
        heapify(heap)
        quotient: dict[int, int] = {}
        div_lm = max(divisor._terms)
        div_lc = divisor._terms[div_lm]
        tail = [(key, coeff) for key, coeff in divisor._terms.items() if key != div_lm]
        guards = self._GUARDS
        while heap:
            lm = -heappop(heap)
            lc = remainder.pop(lm, 0)
            if not lc:
                continue
            delta = lm - div_lm
            if delta < 0 or delta & guards:  # a field of the divisor is larger
                return None
            q, r = divmod(lc, div_lc)
            if r:
                return None
            quotient[delta] = q
            for key, coeff in tail:
                key += delta
                previous = remainder.get(key)
                if previous is None:
                    remainder[key] = -q * coeff
                    heappush(heap, -key)
                elif previous == q * coeff:
                    del remainder[key]
                else:
                    remainder[key] = previous - q * coeff
        return self._new(quotient)

    def __floordiv__(self, divisor: "MultiPoly") -> "MultiPoly":
        """The exact quotient; ArithmeticError when there is none."""
        quotient = self.try_exact_div(divisor)
        if quotient is None:
            raise ArithmeticError(f"{self} is not divisible by {divisor}")
        return quotient

    def divides(self, other: "MultiPoly") -> bool:
        return other.try_exact_div(self) is not None


VARIABLES = MultiPoly.VARIABLES


def variables(*names: str) -> tuple[MultiPoly, ...]:
    """Convenience constructor: ``x, y = variables("x", "y")``."""
    return tuple(MultiPoly.variable(name) for name in names)


def _bareiss_determinant(rows: list[list]):
    """Exact determinant of a square matrix over polynomials or integers.

    One-step fraction-free elimination: every division is by the previous
    pivot and is exact by Sylvester's determinant identity, also after the
    row exchanges used to escape zero pivots, so ``//`` is exact division
    for either entry type.
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
                row[j] = entry if previous is None else entry // previous
        previous = pivot
    det = m[size - 1][size - 1]
    return -det if sign < 0 else det


def _bezout_layout(fc: list, gc: list) -> list[list]:
    """Bezout (Cayley) matrix from coefficient lists in descending degree
    order, deg f = m >= 1 and deg g <= m.

    It is the m-square coefficient matrix of (f(s) g(t) - f(t) g(s)) / (s - t),
    rows and columns ordered from the top degree, so it is symmetric.  With
    a_i, b_i the coefficients of degree m - i (g padded by zeros to degree
    m), its entries satisfy B[i][j] = B[i-1][j+1] + a_i b_(j+1) - a_(j+1) b_i,
    the first term absent on the top row and the last column.
    """
    m = len(fc) - 1
    a, b = fc, [0] * (m + 1 - len(gc)) + gc  # an int 0 times either entry type is its zero
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            entry = a[i] * b[j + 1] - a[j + 1] * b[i]
            if i and j + 1 < m:
                entry += rows[i - 1][j + 1]
            rows[i][j] = rows[j][i] = entry
    return rows


def _bezout_resultant(fc: list, gc: list):
    """Res(f, g) from coefficient lists in descending degree order, leading
    coefficients nonzero, over polynomials or integers.

    For m = deg f >= n = deg g, det Bez(f, g) = (-1)^(m(m-1)/2) · a_m^(m-n) ·
    Res(f, g), a_m the leading coefficient of f (Gelfand, Kapranov and
    Zelevinsky, *Discriminants, Resultants and Multidimensional
    Determinants*, ch. 12).  a_m^(m-n) comes off by exact division, and
    deg f < deg g swaps the inputs at the sign (-1)^(mn).
    """
    m, n = len(fc) - 1, len(gc) - 1
    if m < n:
        res = _bezout_resultant(gc, fc)
        return -res if m * n % 2 else res
    if not m:
        return fc[0] ** 0  # two constants: the empty determinant, 1
    det = _bareiss_determinant(_bezout_layout(fc, gc))
    if m > n:
        det //= fc[0] ** (m - n)
    return -det if m * (m - 1) // 2 % 2 else det


class _Packing:
    """Kronecker substitution for Res_var(f, g) at z = 2^b, b = 8 * width.

    A variable v other than ``var`` occurs in the resultant to degree at
    most D_v = deg_var(g)·deg_v(f) + deg_var(f)·deg_v(g), so sending v to
    z^(weight of v), with mixed-radix weights of radix D_v + 1 (the first
    slot most significant), maps distinct monomials of the resultant to
    distinct powers of z below ``box``.  Every coefficient of the resultant
    is at most ‖f‖₁^deg_var(g) · ‖g‖₁^deg_var(f) in absolute value: the
    resultant is the determinant of the Sylvester matrix, a signed sum of
    products of entries, so its 1-norm is at most the permanent of the
    entries' 1-norms, and a permanent is at most the product of its row
    sums, ‖f‖₁ for a row of f and ‖g‖₁ for a row of g.  2^(b-1) exceeds
    that bound, so the balanced base-2^b digits of the evaluated resultant
    are its coefficients.  The bound is on Res itself, so it holds however
    the determinant is taken: ``_bezout_resultant`` divides the extra factor
    a_m^(m-n) of the Bezout determinant out exactly, at z, before the digits
    are read.
    """

    __slots__ = ("var", "shifts", "weights", "box", "width")

    def __init__(self, f: MultiPoly, g: MultiPoly, var: str):
        self.var = var
        deg_f = f.degree(var)
        deg_g = g.degree(var)
        radices = {}
        for name in f.VARIABLES:
            if name != var:
                bound = deg_g * f.degree(name) + deg_f * g.degree(name)
                if bound:
                    radices[f._shift(name)] = bound + 1
        self.shifts = tuple(radices)
        self.weights = []
        box = 1
        for shift in reversed(self.shifts):
            self.weights.insert(0, box)
            box *= radices[shift]
        self.box = box  # number of digits
        norm_f, norm_g = (sum(map(abs, h._terms.values())) for h in (f, g))
        coefficient_bound = norm_f ** deg_g * norm_g ** deg_f
        self.width = coefficient_bound.bit_length() // 8 + 1  # bytes per digit

    def _index(self, key: int) -> int:
        return sum((key >> shift & _FIELD) * w for shift, w in zip(self.shifts, self.weights))

    def evaluate(self, poly: MultiPoly) -> list[int]:
        """Coefficients of ``poly`` in the elimination variable, descending,
        each evaluated at z = 2^b."""
        width = self.width
        coefficients = poly.coefficient_list(self.var)
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
        terms: dict[int, int] = {}
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
                key, rest = 0, k
                for shift, w in zip(self.shifts, self.weights):
                    e, rest = divmod(rest, w)
                    key |= e << shift
                terms[key] = sign * digit
        if carry:
            raise _bound_failure()
        return MultiPoly._wrap(terms)


def _bound_failure() -> RuntimeError:
    return RuntimeError(
        "internal consistency check failed: the Kronecker digits of a resultant "
        "exceed the coefficient bound they were packed with"
    )


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
# and sparse high-degree webs, with both paths on the (m+n)-square Sylvester
# matrix.  Both now take the smaller Bezout matrix; the constants are kept,
# so every input takes the path that fit chose for it, and a refit to the
# Bezout timings is left open.
KRONECKER_RATIO = 4
KRONECKER_QUADRATIC_WORDS = 4000
KRONECKER_MAX_BITS = 1 << 22


def _use_kronecker(f: MultiPoly, g: MultiPoly, packing: _Packing) -> bool:
    words = packing.width / 8
    packed = packing.box * words
    cost = packed * (1 + words) * (1 + packed / KRONECKER_QUADRATIC_WORDS)
    size = f.degree(packing.var) + g.degree(packing.var)
    return packing.box * 8 * packing.width <= KRONECKER_MAX_BITS and (
        cost <= KRONECKER_RATIO * len(f._terms) * len(g._terms) * size
    )


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Resultant of f and g with respect to ``var``.

    Vanishes exactly where the two polynomials share a root in ``var``.
    Degenerate degrees follow the classical conventions: Res(f, g) with g of
    degree zero in ``var`` is g**deg(f), and the resultant of two
    var-constants is 1.  Zero input polynomials are rejected.

    Dense inputs take one integer determinant of the Kronecker-packed
    Bezout matrix (``_Packing``); sparse, high-degree or huge-coefficient
    inputs, where packing would be large, take the Bezout determinant over
    the polynomials.  Both give the exact polynomial, sign included, also
    when deg f < deg g.

    >>> x, y, p = variables("x", "y", "p")
    >>> print(resultant(x + y * p, (y - 3) - p * (x - 5), "p"))
    x^2 + y^2 - 5*x - 3*y
    >>> print(resultant(p - x, p**3 - y, "p"))  # g at the root of f
    x^3 - y
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
    if _use_kronecker(f, g, packing):
        return packing.unpack(_bezout_resultant(packing.evaluate(f), packing.evaluate(g)))
    fc, gc = (list(reversed(h.coefficient_list(var))) for h in (f, g))
    return _bezout_resultant(fc, gc)
