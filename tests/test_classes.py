"""Distinguished classes, characteristic-number vectors, and conversions."""

import random
import warnings

import pytest

from tests_support import twist_degree
from webpolar.classes import (
    CharNumbers,
    NegativeCharNumberWarning,
    WebCharNumbers,
    char_numbers_from_web_class,
    conormal_linear,
    pencil_class,
    smooth_hypersurface_char_numbers,
    variety_class,
    web_char_integrals,
    web_class,
)
from webpolar.polar import polar_degree_variety
from webpolar.ring import RingElement, dual_hyperplane, hyperplane, integrate, monomial


def delta_pairing(element, k):
    """Integral against h^k * c^(n-k-1), the pairing dual to the a-layout."""
    n = element.n
    return integrate(element * hyperplane(n) ** k * dual_hyperplane(n) ** (n - k - 1))


def read_back_char_numbers(element, q):
    """Brute-force inversion of the conormal layout via the delta pairing.

    The pairing against h^k c^(n-k-1) returns a_(n-k) + a_(n-k-1), which is
    triangular in the a_i, so the vector is recovered from k = n-1 downward.
    """
    n = element.n
    a = [0] * (n + 1)  # a[0] holds the conventional a_0 = 0
    for k in range(n - 1, -1, -1):
        a[n - k] = delta_pairing(element, k) - a[n - k - 1]
    return CharNumbers(n=n, q=q, a=tuple(a[1:]))


class TestConormalLinear:
    def test_point_is_pure_h_power(self):
        for n in range(1, 7):
            assert conormal_linear(0, n) == monomial(n, n, 0)

    def test_line_in_plane(self):
        assert conormal_linear(1, 2) == RingElement(2, {(2, 0): -1, (1, 1): 1})

    @pytest.mark.parametrize("n", range(1, 9))
    def test_delta_pairing_system(self, n):
        for j in range(n):
            con = conormal_linear(j, n)
            for k in range(n):
                assert delta_pairing(con, k) == (1 if k == j else 0), (n, j, k)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            conormal_linear(2, 2)
        with pytest.raises(ValueError):
            conormal_linear(-1, 2)


class TestVarietyClass:
    def test_explicit_plane_vector(self):
        c = CharNumbers(n=2, q=1, a=(2, 2))
        assert variety_class(c) == RingElement(2, {(2, 0): 2, (1, 1): 2})

    def test_point_vector_reproduces_conormal_of_point(self):
        for n in range(1, 6):
            a = [0] * n
            a[n - 1] = 1  # a_n = 1
            c = CharNumbers(n=n, q=0, a=tuple(a))
            assert variety_class(c) == conormal_linear(0, n)

    def test_linear_subspace_vectors_reproduce_conormal_classes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeCharNumberWarning)
            for n in range(2, 8):
                for j in range(n):
                    con = conormal_linear(j, n)
                    c = read_back_char_numbers(con, q=j)
                    assert variety_class(c) == con

    def test_round_trip_on_random_vectors(self):
        rng = random.Random(11)
        for n in range(2, 7):
            for _ in range(25):
                a = tuple(rng.randint(0, 30) for _ in range(n))
                q = rng.randrange(n)
                c = CharNumbers(n=n, q=q, a=a)
                assert read_back_char_numbers(variety_class(c), q) == c


class TestWebClass:
    def test_degree_two_plane_foliation(self):
        w = WebCharNumbers(n=2, p=1, k=1, d=(1, 2))
        assert web_class(w) == RingElement(2, {(1, 0): 2, (0, 1): 1})

    def test_codimension_one_layout(self):
        w = WebCharNumbers(n=2, p=1, k=3, d=(3, 5))
        assert web_class(w) == RingElement(2, {(1, 0): 5, (0, 1): 3})

    def test_round_trip_random_vectors(self):
        rng = random.Random(23)
        for n in range(2, 7):
            for p in range(1, n):
                for _ in range(10):
                    d = (rng.randint(1, 9),) + tuple(rng.randint(0, 30) for _ in range(p))
                    w = WebCharNumbers.from_vector(n, d)
                    assert char_numbers_from_web_class(web_class(w), p, w.k) == w

    def test_integrals_read_off_coefficients_of_any_integer_class(self):
        # the recovery integrals agree with the raw coefficient layout even
        # for classes with negative entries that are no valid plane field
        rng = random.Random(31)
        count = 0
        for n in range(2, 7):
            for p in range(1, n):
                for _ in range(100):
                    coeffs = {(i, p - i): rng.randint(-20, 20) for i in range(p + 1)}
                    s = RingElement(n, coeffs)
                    expected = tuple(coeffs[(i, p - i)] for i in range(p + 1))
                    assert web_char_integrals(s, p) == expected
                    count += 1
        assert count >= 100

    def test_k_mismatch_raises(self):
        w = WebCharNumbers(n=2, p=1, k=2, d=(2, 5))
        with pytest.raises(ValueError):
            char_numbers_from_web_class(web_class(w), 1, k=1)

    def test_non_homogeneous_input_raises(self):
        s = hyperplane(3) + hyperplane(3) ** 2
        with pytest.raises(ValueError):
            char_numbers_from_web_class(s, 1)

    def test_wrong_degree_raises(self):
        with pytest.raises(ValueError):
            web_char_integrals(hyperplane(3) ** 2, 1)


class TestDegreeOfVariety:
    def test_point(self):
        c = CharNumbers(n=3, q=0, a=(0, 0, 1))
        assert polar_degree_variety(c, 0) == 1

    def test_two_term_sum_on_plane_curve_vector(self):
        c = CharNumbers(n=2, q=1, a=(2, 2))
        assert polar_degree_variety(c, 0) == 2

    def test_matches_ring_integral(self):
        rng = random.Random(5)
        for n in range(2, 7):
            for _ in range(20):
                a = tuple(rng.randint(0, 25) for _ in range(n))
                q = rng.randrange(n)
                c = CharNumbers(n=n, q=q, a=a)
                direct = integrate(
                    variety_class(c)
                    * hyperplane(n) ** q
                    * dual_hyperplane(n) ** (n - q - 1)
                )
                assert polar_degree_variety(c, 0) == direct


class TestPencilClass:
    def test_full_family_is_unit(self):
        for n in range(1, 6):
            assert pencil_class(n + 1, n) == RingElement(n, {(0, 0): 1})

    def test_codimension_two_at_n2(self):
        assert pencil_class(2, 2) == dual_hyperplane(2)

    def test_extreme_index_reduces(self):
        assert pencil_class(1, 2) == RingElement(2, {(1, 1): 1, (2, 0): -1})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pencil_class(0, 3)
        with pytest.raises(ValueError):
            pencil_class(5, 3)


class TestSmoothHypersurface:
    def test_conic_vector(self):
        # degree 2 forces a_2 = d(d-1) - a_1 = 0; the classical pair
        # (degree, class) = (2, 2) is a_1 and a_1 + a_2, not the raw vector
        assert smooth_hypersurface_char_numbers(2, 2).a == (2, 0)

    def test_smooth_cubic_vector(self):
        assert smooth_hypersurface_char_numbers(3, 2).a == (3, 3)

    def test_cubic_class_is_six(self):
        c = smooth_hypersurface_char_numbers(3, 2)
        assert c.coeff(1) + c.coeff(2) == 6

    def test_hyperplane_alternates(self):
        # the recursion with d = 1 gives +1/-1; what vanishes for a
        # hyperplane is every higher polar degree a_(j+1) + a_j, not the a_i
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeCharNumberWarning)
            c = smooth_hypersurface_char_numbers(1, 4)
        assert c.a == (1, -1, 1, -1)
        assert all(c.coeff(j + 1) + c.coeff(j) == 0 for j in range(1, 4))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_two_term_sums_recover_polar_ladder(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeCharNumberWarning)
            for d in range(1, 10):
                c = smooth_hypersurface_char_numbers(d, n)
                for j in range(n):
                    assert c.coeff(j + 1) + c.coeff(j) == d * (d - 1) ** j

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError):
            smooth_hypersurface_char_numbers(0, 3)


class TestTwistDegree:
    def test_codimension_one_case(self):
        for d in range(0, 6):
            assert twist_degree(1, 3, 4, d) == d + 2

    def test_plane_arithmetic(self):
        assert twist_degree(2, 1, 2, 1) == 5
        assert twist_degree(1, 1, 2, 0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            twist_degree(0, 1, 2, 1)
        with pytest.raises(ValueError):
            twist_degree(1, 2, 2, 1)
        with pytest.raises(ValueError):
            twist_degree(1, 1, 2, -1)


class TestVectorValidation:
    def test_negative_entries_warn_not_raise(self):
        with pytest.warns(NegativeCharNumberWarning):
            CharNumbers(n=2, q=1, a=(1, -1))
        with pytest.warns(NegativeCharNumberWarning):
            WebCharNumbers(n=3, p=2, k=1, d=(1, -2, 0))

    @pytest.mark.parametrize("build", [
        lambda: CharNumbers(n=2, q=1, a=(1, -1)),
        lambda: WebCharNumbers(n=3, p=2, k=1, d=(1, -2, 0)),
        lambda: WebCharNumbers.from_vector(2, (1, -2)),
    ], ids=["CharNumbers", "WebCharNumbers", "from_vector"])
    def test_negative_entry_warning_names_the_caller(self, build):
        # not the dataclass-generated __init__, whose file is "<string>"
        with pytest.warns(NegativeCharNumberWarning) as caught:
            build()
        assert [w.filename for w in caught] == [__file__]
        assert caught[0].lineno == build.__code__.co_firstlineno

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            CharNumbers(n=3, q=1, a=(1, 2))
        with pytest.raises(ValueError):
            WebCharNumbers(n=3, p=2, k=1, d=(1, 2))

    def test_d0_must_equal_k(self):
        with pytest.raises(ValueError):
            WebCharNumbers(n=2, p=1, k=2, d=(1, 2))

    def test_q_range(self):
        with pytest.raises(ValueError):
            CharNumbers(n=2, q=2, a=(1, 1))
