"""Polar degrees, invariance inequalities, certification, and degree bounds."""

import random
import warnings

import pytest

import webpolar.polar as polar
from webpolar.classes import (
    CharNumbers,
    NegativeCharNumberWarning,
    WebCharNumbers,
    pencil_class,
    smooth_hypersurface_char_numbers,
    variety_class,
    web_class,
)
from webpolar.polar import (
    Verdict,
    hypersurface_degree_bound,
    integer_root,
    invariance_inequalities,
    polar_degree_variety,
    polar_degree_web,
)
from webpolar.ring import hyperplane, integrate


def random_variety(rng, n):
    a = tuple(rng.randint(0, 30) for _ in range(n))
    q = rng.randrange(n)
    return CharNumbers(n=n, q=q, a=a)


def random_field(rng, n, p=None):
    p = p if p is not None else rng.randint(1, n - 1)
    d = (rng.randint(1, 9),) + tuple(rng.randint(0, 30) for _ in range(p))
    return WebCharNumbers.from_vector(n, d)


class TestPolarDegreeVariety:
    def test_smooth_hypersurface_ladder(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeCharNumberWarning)
            for n in range(2, 6):
                for d in range(1, 7):
                    c = smooth_hypersurface_char_numbers(d, n)
                    for j in range(n):
                        assert polar_degree_variety(c, j) == d * (d - 1) ** j

    def test_hyperplane_higher_polars_vanish(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeCharNumberWarning)
            c = smooth_hypersurface_char_numbers(1, 5)
            assert [polar_degree_variety(c, j) for j in range(5)] == [1, 0, 0, 0, 0]

    def test_matches_ring_integral(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(2, 6)
            c = random_variety(rng, n)
            j = rng.randint(0, c.q)
            direct = integrate(
                variety_class(c)
                * pencil_class(c.q - j + 2, n)
                * hyperplane(n) ** (c.q - j)
            )
            assert polar_degree_variety(c, j) == direct

    def test_out_of_range(self):
        c = CharNumbers(n=3, q=1, a=(1, 2, 3))
        with pytest.raises(ValueError):
            polar_degree_variety(c, 2)
        with pytest.raises(ValueError):
            polar_degree_variety(c, -1)


class TestPolarDegreeWeb:
    def test_first_polar_is_k_plus_degree(self):
        rng = random.Random(29)
        for _ in range(30):
            w = random_field(rng, rng.randint(2, 6))
            assert polar_degree_web(w, 1) == w.k + w.d[1]

    def test_slope_field_of_the_cusp_shaped_web(self):
        # matched by the geometric lab on F = p^2 - x: k = 2, degree 1
        w = WebCharNumbers(n=2, p=1, k=2, d=(2, 1))
        assert polar_degree_web(w, 1) == 3

    def test_degree_two_foliation(self):
        w = WebCharNumbers(n=2, p=1, k=1, d=(1, 2))
        assert polar_degree_web(w, 1) == 3

    def test_matches_ring_integral(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(2, 6)
            w = random_field(rng, n)
            s = rng.randint(1, w.p)
            direct = integrate(
                web_class(w)
                * pencil_class(w.p - s + 2, n)
                * hyperplane(n) ** (n - s)
            )
            assert polar_degree_web(w, s) == direct

    def test_index_above_p_excluded(self):
        w = WebCharNumbers(n=3, p=2, k=1, d=(1, 2, 3))
        with pytest.raises(ValueError):
            polar_degree_web(w, 3)
        with pytest.raises(ValueError):
            polar_degree_web(w, 0)


class TestCrossChecks:
    # the ring cross-checks are explicit raises, kept under python -O
    def test_ring_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(polar, "integrate", lambda element: -1)
        with pytest.raises(RuntimeError, match="internal consistency"):
            polar_degree_variety(CharNumbers(n=3, q=1, a=(1, 2, 3)), 1)
        with pytest.raises(RuntimeError, match="internal consistency"):
            polar_degree_web(WebCharNumbers(n=2, p=1, k=1, d=(1, 2)), 1)

    def test_first_bound_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(polar, "integer_root", lambda value, m: 0)
        with pytest.raises(RuntimeError, match="internal consistency"):
            hypersurface_degree_bound(WebCharNumbers(n=2, p=1, k=1, d=(1, 2)))


class TestInvarianceInequalities:
    def test_quartic_surface_vs_degree_two_foliation_equality(self):
        c = smooth_hypersurface_char_numbers(4, 3)
        w = WebCharNumbers(n=3, p=1, k=1, d=(1, 2))
        report = invariance_inequalities(c, w)
        (entry,) = report.entries
        assert (entry.m, entry.j) == (1, 0)
        assert entry.lhs == 36 and entry.rhs == 36
        assert entry.holds is True and not entry.conditional and not entry.vacuous

    def test_quintic_curve_vs_degree_two_foliation_fails(self):
        c = smooth_hypersurface_char_numbers(5, 2)
        w = WebCharNumbers(n=2, p=1, k=1, d=(1, 2))
        report = invariance_inequalities(c, w)
        (entry,) = report.entries
        assert entry.lhs == 20 and entry.rhs == 15
        assert entry.holds is False

    def test_conditional_entries_flagged(self):
        c = smooth_hypersurface_char_numbers(4, 3)
        w = WebCharNumbers(n=3, p=1, k=1, d=(1, 2))
        report = invariance_inequalities(c, w, include_conditional=True)
        assert [(e.m, e.j) for e in report.entries] == [(1, 0), (1, 1)]
        j0, j1 = report.entries
        assert not j0.conditional and j1.conditional
        assert j1.lhs == 12 and j1.rhs == 12 and j1.holds is True

    def test_hypersurface_entries_match_closed_form(self):
        # for c from a smooth degree-d hypersurface the (m, 0) entry holds
        # exactly when (d-1)^m <= d_m + d_(m-1)
        rng = random.Random(41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeCharNumberWarning)
            for n in range(2, 6):
                for d in range(2, 10):
                    c = smooth_hypersurface_char_numbers(d, n)
                    for p in range(1, n):
                        w = random_field(rng, n, p)
                        report = invariance_inequalities(c, w)
                        for entry in report.entries:
                            assert entry.j == 0 and not entry.vacuous
                            closed = (d - 1) ** entry.m <= w.d[entry.m] + w.d[entry.m - 1]
                            assert entry.holds == closed, (d, n, p, entry)

    def test_degree_one_entries_hold_or_are_vacuous(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeCharNumberWarning)
            rng = random.Random(43)
            for n in range(2, 6):
                c = smooth_hypersurface_char_numbers(1, n)
                for p in range(1, n):
                    w = random_field(rng, n, p)
                    for entry in invariance_inequalities(c, w).entries:
                        assert entry.vacuous or entry.holds

    def test_vacuous_entry_on_degenerate_data(self):
        # a vector with vanishing degree zeroes the denominator, so the
        # entry must be reported as vacuous rather than evaluated
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeCharNumberWarning)
            c = CharNumbers(n=3, q=2, a=(0, 1, -1))
        w = WebCharNumbers(n=3, p=2, k=1, d=(1, 1, 1))
        report = invariance_inequalities(c, w)
        assert any(e.vacuous and e.holds is None for e in report.entries)

    def test_dimension_hypothesis_enforced(self):
        c = CharNumbers(n=3, q=1, a=(1, 2, 3))
        w = WebCharNumbers(n=3, p=2, k=1, d=(1, 1, 1))
        with pytest.raises(ValueError):
            invariance_inequalities(c, w)

    def test_ambient_mismatch(self):
        c = CharNumbers(n=3, q=2, a=(1, 2, 3))
        w = WebCharNumbers(n=2, p=1, k=1, d=(1, 1))
        with pytest.raises(ValueError):
            invariance_inequalities(c, w)


class TestCertification:
    def test_quintic_example_certified(self):
        c = smooth_hypersurface_char_numbers(5, 2)
        w = WebCharNumbers(n=2, p=1, k=1, d=(1, 2))
        result = invariance_inequalities(c, w)
        assert result.verdict is Verdict.NOT_INVARIANT
        assert result.witness.m == 1 and result.witness.j == 0

    def test_all_holding_is_inconclusive(self):
        c = smooth_hypersurface_char_numbers(3, 2)
        w = WebCharNumbers(n=2, p=1, k=1, d=(1, 2))
        result = invariance_inequalities(c, w)
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.witness is None

    def test_dimension_hypothesis(self):
        c = CharNumbers(n=3, q=0, a=(0, 0, 1))
        w = WebCharNumbers(n=3, p=1, k=1, d=(1, 2))
        with pytest.raises(ValueError):
            invariance_inequalities(c, w)

    def test_never_certifies_below_the_bound(self):
        rng = random.Random(47)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeCharNumberWarning)
            for _ in range(150):
                n = rng.randint(2, 5)
                w = random_field(rng, n)
                bound = hypersurface_degree_bound(w).overall
                for d in range(1, bound + 1):
                    c = smooth_hypersurface_char_numbers(d, n)
                    result = invariance_inequalities(c, w)
                    assert result.verdict is Verdict.INCONCLUSIVE, (d, w)


class TestDegreeBounds:
    def test_integer_root_exactness(self):
        rng = random.Random(53)
        for _ in range(300):
            x = rng.randint(0, 10 ** 12)
            m = rng.randint(1, 7)
            r = integer_root(x, m)
            assert r ** m <= x < (r + 1) ** m
        assert integer_root(12, 2) == 3
        assert integer_root((7 ** 31) ** 5 - 1, 5) == 7 ** 31 - 1

    @pytest.mark.parametrize("d,message", [
        ((1, -5), r"d_1 \+ d_0 = -4 is negative, so no degree d >= 1 satisfies \(d-1\)\^1 <= -4$"),
        ((1, 2, -3), r"d_2 \+ d_1 = -1 is negative, so no degree d >= 1 satisfies \(d-1\)\^2 <= -1$"),
    ])
    def test_negative_sum_names_its_entries(self, d, message):
        w = WebCharNumbers.from_vector(len(d), d)
        with pytest.raises(ValueError, match=message):
            hypersurface_degree_bound(w)

    def test_foliation_bound_is_degree_plus_two(self):
        for deg in range(0, 8):
            w = WebCharNumbers(n=2, p=1, k=1, d=(1, deg))
            assert hypersurface_degree_bound(w).overall == deg + 2

    def test_two_plane_field_example(self):
        w = WebCharNumbers(n=3, p=2, k=1, d=(1, 3, 9))
        bounds = hypersurface_degree_bound(w)
        assert bounds.per_m == (5, 4)
        assert bounds.overall == 4

    def test_plane_web_example(self):
        w = WebCharNumbers(n=2, p=1, k=2, d=(2, 1))
        assert hypersurface_degree_bound(w).overall == 4

    def test_first_bound_closed_form(self):
        rng = random.Random(59)
        for _ in range(100):
            w = random_field(rng, rng.randint(2, 6))
            assert hypersurface_degree_bound(w).per_m[0] == w.k + w.d[1] + 1
