"""Ring arithmetic: canonical reduction, integrals, and algebraic laws."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webpolar.exprparse import parse_ring_expr
from webpolar.multipoly import MultiPoly
from webpolar.ring import (
    MAX_DIMENSION,
    RingElement,
    dual_hyperplane,
    hyperplane,
    integrate,
    monomial,
    one,
    tautological_class,
    zero,
)

DIMS = range(1, 9)


def random_element(rng, n, span=9):
    coeffs = {}
    for a in range(n + 1):
        for b in range(n):
            value = rng.randint(-span, span)
            if value:
                coeffs[(a, b)] = value
    return RingElement(n, coeffs)


class TestReduction:
    def test_dual_square_rewrites_at_n2(self):
        # c^2 = h*c - h^2 once the degree-2 relation is solved for c^2
        assert RingElement(2, {(0, 2): 1}) == RingElement(2, {(1, 1): 1, (2, 0): -1})

    def test_h_power_above_n_dies(self):
        assert RingElement(2, {(3, 0): 1}).is_zero

    @pytest.mark.parametrize("n", DIMS)
    def test_dual_power_n_plus_one_dies(self, n):
        assert RingElement(n, {(0, n + 1): 1}).is_zero

    def test_dual_cube_at_n3_via_relation_times_dual(self):
        # independent route: multiply the defining degree-3 relation by c and
        # reduce; the result must already be zero, so c^4 alone must reduce to
        # the negative of the remaining terms
        n = 3
        relation = RingElement(
            n, {(n - i, i): (-1) ** i for i in range(n + 1)}
        )
        assert relation.is_zero  # the relation itself reduces to 0
        assert (relation * dual_hyperplane(n)).is_zero

    @pytest.mark.parametrize("n", DIMS)
    def test_reduce_is_idempotent_on_canonical(self, n):
        rng = random.Random(100 + n)
        for _ in range(20):
            u = random_element(rng, n)
            assert RingElement(n, u.coefficients()) == u

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            RingElement(2, {(-1, 0): 1})

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            RingElement(0)

    def test_dimension_cap(self):
        n = MAX_DIMENSION
        assert integrate(hyperplane(n) ** n * dual_hyperplane(n) ** (n - 1)) == 1
        with pytest.raises(ValueError, match=f"not in 1..{MAX_DIMENSION}"):
            RingElement(MAX_DIMENSION + 1)

    @pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (2 ** 63, 0)])
    def test_bad_exponent_tuple_rejected(self, exps):
        with pytest.raises(ValueError):
            RingElement(2, {exps: 1})


class TestArithmetic:
    def test_additive_inverse(self):
        h = hyperplane(3)
        assert (h + (-h)).is_zero

    def test_sum_already_canonical(self):
        n = 2
        u = monomial(n, 1, 1) + monomial(n, 2, 0)
        assert u.coefficients() == {(1, 1): 1, (2, 0): 1}

    def test_sum_cancels_to_single_monomial(self):
        n = 2
        u = RingElement(n, {(1, 1): 1, (2, 0): -1}) + monomial(n, 2, 0)
        assert u == monomial(n, 1, 1)

    def test_unit(self):
        rng = random.Random(7)
        for n in (1, 3, 5):
            u = random_element(rng, n)
            assert one(n) * u == u

    def test_product_of_generators_at_n2(self):
        h, c = hyperplane(2), dual_hyperplane(2)
        assert c * c == h * c - h * h

    def test_multiply_h_into_mixed_term(self):
        # hand reduction: h * (h*c - h^2) = h^2*c - h^3 = h^2*c
        h, c = hyperplane(2), dual_hyperplane(2)
        assert h * (h * c - h * h) == monomial(2, 2, 1)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            hyperplane(2) + hyperplane(3)
        with pytest.raises(ValueError):
            hyperplane(2) * hyperplane(3)

    @pytest.mark.parametrize("n", DIMS)
    def test_ring_laws_on_random_elements(self, n):
        rng = random.Random(900 + n)
        for _ in range(12):
            u = random_element(rng, n, span=5)
            v = random_element(rng, n, span=5)
            w = random_element(rng, n, span=5)
            assert u * v == v * u
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert (u + v) + w == u + (v + w)

    def test_int_coercion(self):
        h = hyperplane(2)
        assert 2 * h == h + h
        assert (h - 1) + 1 == h

    def test_products_stay_out_of_the_polynomial_product(self, monkeypatch):
        # the benchmark's multipoly.* counters must count the lab's work only
        calls = []
        original = MultiPoly.__mul__

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counted)
        h, c = hyperplane(4), dual_hyperplane(4)
        assert (h + c) ** 3 == (h + c) * (h + c) * (h + c)
        assert parse_ring_expr("(h + c)^3 * (h - 2*c)", 4) == (h + c) ** 3 * (h - 2 * c)
        assert not calls
        MultiPoly.variable("x") * 2
        assert calls  # the counter does see polynomial products


def raw_maps(n, max_exponent=None):
    """Exponent maps, canonical or not, for the ring of P^n."""
    top = 2 * n if max_exponent is None else max_exponent
    return st.dictionaries(
        st.tuples(st.integers(0, top), st.integers(0, top)),
        st.integers(-9, 9), max_size=6,
    )


def elements(n):
    return raw_maps(n).map(lambda raw: RingElement(n, raw))


def raw_product(f, g):
    out = {}
    for (a1, b1), v1 in f.items():
        for (a2, b2), v2 in g.items():
            out[(a1 + a2, b1 + b2)] = out.get((a1 + a2, b1 + b2), 0) + v1 * v2
    return out


def raw_sum(f, g):
    out = dict(f)
    for key, value in g.items():
        out[key] = out.get(key, 0) + value
    return out


_DIMENSIONS = st.integers(2, 16)
_TRIPLES = _DIMENSIONS.flatmap(lambda n: st.tuples(elements(n), elements(n), elements(n)))


class TestRingProperties:
    @settings(max_examples=150, deadline=None)
    @given(_TRIPLES)
    def test_commutative(self, triple):
        u, v, _ = triple
        assert u * v == v * u
        assert u + v == v + u

    @settings(max_examples=150, deadline=None)
    @given(_TRIPLES)
    def test_associative(self, triple):
        u, v, w = triple
        assert (u * v) * w == u * (v * w)
        assert (u + v) + w == u + (v + w)

    @settings(max_examples=150, deadline=None)
    @given(_TRIPLES)
    def test_distributive(self, triple):
        u, v, w = triple
        assert u * (v + w) == u * v + u * w
        assert u * (v - w) == u * v - u * w
        assert (v - w) + w == v

    @settings(max_examples=150, deadline=None)
    @given(_DIMENSIONS.flatmap(lambda n: st.tuples(st.just(n), raw_maps(n), raw_maps(n, 3))))
    def test_canonical_form_is_unique(self, case):
        # an exponent map and the same map plus multiples of both relations
        # reduce to one element, and its printed form parses back to it
        n, raw, multiplier = case
        relation = {(n - i, i): (-1) ** i for i in range(n + 1)}
        element = RingElement(n, raw)
        shifted = raw_sum(raw_sum(raw, raw_product(relation, multiplier)),
                          raw_product({(n + 1, 0): 1}, multiplier))
        assert RingElement(n, shifted) == element
        assert parse_ring_expr(str(element), n) == element

    @settings(max_examples=150, deadline=None)
    @given(_DIMENSIONS.flatmap(lambda n: st.tuples(elements(n), st.integers(0, 12))))
    def test_power_is_repeated_multiplication(self, case):
        element, m = case
        product = one(element.n)
        for _ in range(m):
            product = product * element
        assert element ** m == product


class TestIntegration:
    @pytest.mark.parametrize("n", DIMS)
    def test_top_monomials_integrate_to_one(self, n):
        assert integrate(hyperplane(n) ** n * dual_hyperplane(n) ** (n - 1)) == 1
        assert integrate(hyperplane(n) ** (n - 1) * dual_hyperplane(n) ** n) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_pure_h_top_power_integrates_to_zero(self, n):
        assert integrate(hyperplane(n) ** (2 * n - 1)) == 0

    @pytest.mark.parametrize("n", DIMS)
    def test_off_degree_monomials_integrate_to_zero(self, n):
        for a in range(n + 1):
            for b in range(n):
                if a + b != 2 * n - 1:
                    assert integrate(monomial(n, a, b)) == 0

    def test_linearity(self):
        rng = random.Random(42)
        for n in (2, 4):
            u = random_element(rng, n)
            v = random_element(rng, n)
            assert integrate(u + v) == integrate(u) + integrate(v)


class TestTautologicalClass:
    @pytest.mark.parametrize("n", DIMS)
    def test_first_evaluation(self, n):
        xi = tautological_class(n)
        assert integrate(xi ** (n - 1) * hyperplane(n) ** n) == (-1) ** (n - 1)

    @pytest.mark.parametrize("n", DIMS)
    def test_second_evaluation(self, n):
        xi = tautological_class(n)
        assert integrate(xi ** n * hyperplane(n) ** (n - 1)) == (-1) ** n * (n + 1)

    @pytest.mark.parametrize("n", DIMS)
    def test_binomial_relation_reduces_to_zero(self, n):
        xi = tautological_class(n)
        h = hyperplane(n)
        acc = zero(n)
        for i in range(n + 1):
            acc = acc + comb(n + 1, i + 1) * h ** (n - i) * xi ** i
        assert acc.is_zero


class TestRendering:
    def test_zero(self):
        assert str(zero(3)) == "0"

    def test_mixed_before_pure_power(self):
        assert str(RingElement(2, {(0, 2): 1})) == "h*c - h^2"

    def test_single_top_monomial(self):
        assert str(monomial(3, 3, 2)) == "h^3*c^2"

    def test_constants_and_units(self):
        assert str(one(2)) == "1"
        assert str(monomial(2, 1, 0, -1)) == "-h"
        assert str(monomial(2, 1, 1, 7) + 3) == "7*h*c + 3"
