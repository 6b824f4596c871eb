"""Acceptance suite: nine exit criteria, all exact arithmetic.

Each test prints one PASS line on success (visible with ``pytest -s``); a
failing assertion marks the criterion red.  Stated wall-clock budgets are
asserted where given.
"""

import json
import random
import time
import warnings
from math import comb
from pathlib import Path

from webpolar.classes import (
    CharNumbers,
    NegativeCharNumberWarning,
    WebCharNumbers,
    char_numbers_from_web_class,
    conormal_linear,
    smooth_hypersurface_char_numbers,
    variety_class,
    web_class,
)
from webpolar.cli import main
from webpolar.multipoly import variables
from webpolar.polar import (
    Verdict,
    hypersurface_degree_bound,
    invariance_inequalities,
    polar_degree_variety,
    polar_degree_web,
)
from webpolar.ring import (
    dual_hyperplane,
    hyperplane,
    integrate,
    tautological_class,
    zero,
)
from webpolar.weblab import ImplicitWeb, end_to_end_check

X, Y, P = variables("x", "y", "p")

GOLDEN = Path(__file__).parent / "golden"


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.budget, f"exceeded {self.budget}s budget"


def test_criterion_1_ring_relations():
    with Stopwatch(5.0):
        for n in range(1, 9):
            h = hyperplane(n)
            c = dual_hyperplane(n)
            xi = tautological_class(n)
            assert integrate(h ** n * c ** (n - 1)) == 1
            assert integrate(h ** (n - 1) * c ** n) == 1
            assert (c ** (n + 1)).is_zero()
            relation = zero(n)
            for i in range(n + 1):
                relation = relation + comb(n + 1, i + 1) * h ** (n - i) * xi ** i
            assert relation.is_zero()
            assert integrate(xi ** (n - 1) * h ** n) == (-1) ** (n - 1)
            assert integrate(xi ** n * h ** (n - 1)) == (-1) ** n * (n + 1)
    _report(1, "ring relations and integrals exact for n = 1..8")


def test_criterion_2_conormal_delta_system():
    with Stopwatch(5.0):
        for n in range(1, 9):
            h = hyperplane(n)
            c = dual_hyperplane(n)
            for j in range(n):
                con = conormal_linear(j, n)
                for k in range(n):
                    value = integrate(con * h ** k * c ** (n - k - 1))
                    assert value == (1 if k == j else 0)
    _report(2, "conormal classes of linear subspaces pair to Kronecker deltas")


def test_criterion_3_web_vector_round_trip():
    with Stopwatch(10.0):
        rng = random.Random(2024)
        for n in range(2, 7):
            for p in range(1, n):
                for _ in range(100):
                    d = (rng.randint(1, 9),) + tuple(
                        rng.randint(0, 50) for _ in range(p)
                    )
                    w = WebCharNumbers.from_vector(n, d)
                    assert char_numbers_from_web_class(web_class(w), p, w.k) == w
    _report(3, "100 random d-vectors per (p, n) round-trip through the class")


def test_criterion_4_polar_degree_oracle_equivalence():
    from webpolar.classes import pencil_class

    with Stopwatch(10.0):
        rng = random.Random(4096)
        for _ in range(200):
            n = rng.randint(2, 6)
            a = tuple(rng.randint(0, 40) for _ in range(n))
            q = rng.randrange(n)
            c = CharNumbers(n=n, q=q, a=a)
            j = rng.randint(0, q)
            closed = c.coeff(n - q + j) + c.coeff(n - q + j - 1)
            integral = integrate(
                variety_class(c) * pencil_class(q - j + 2, n) * hyperplane(n) ** (q - j)
            )
            assert closed == integral == polar_degree_variety(c, j)
        for _ in range(200):
            n = rng.randint(2, 6)
            p = rng.randint(1, n - 1)
            d = (rng.randint(1, 9),) + tuple(rng.randint(0, 40) for _ in range(p))
            w = WebCharNumbers.from_vector(n, d)
            s = rng.randint(1, p)
            closed = w.d[s] + w.d[s - 1]
            integral = integrate(
                web_class(w) * pencil_class(p - s + 2, n) * hyperplane(n) ** (n - s)
            )
            assert closed == integral == polar_degree_web(w, s)
    _report(4, "closed-form polar degrees equal ring integrals on 200+200 samples")


def test_criterion_5_smooth_hypersurface_polar_ladder():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeCharNumberWarning)
        for n in range(2, 6):
            for d in range(1, 7):
                c = smooth_hypersurface_char_numbers(d, n)
                for j in range(n):
                    assert polar_degree_variety(c, j) == d * (d - 1) ** j
    _report(5, "polar ladder d*(d-1)^j reproduced for d <= 6, n <= 5")


def test_criterion_6_degree_bounds():
    # one-dimensional foliations: the overall bound is deg + 2
    for deg in range(0, 10):
        w = WebCharNumbers(n=2, p=1, k=1, d=(1, deg))
        assert hypersurface_degree_bound(w).overall == deg + 2
    # first bound is k + deg + 1 for arbitrary vectors
    rng = random.Random(66)
    for _ in range(100):
        n = rng.randint(2, 6)
        p = rng.randint(1, n - 1)
        d = (rng.randint(1, 9),) + tuple(rng.randint(0, 50) for _ in range(p))
        w = WebCharNumbers.from_vector(n, d)
        assert hypersurface_degree_bound(w).per_m[0] == w.k + w.d[1] + 1
    # equality case: quartic surface against a degree-2 foliation of 3-space
    c = smooth_hypersurface_char_numbers(4, 3)
    w = WebCharNumbers(n=3, p=1, k=1, d=(1, 2))
    (entry,) = invariance_inequalities(c, w).entries
    assert entry.m == 1 and entry.lhs == 36 and entry.rhs == 36 and entry.holds
    _report(6, "foliation bound deg+2, first bound k+deg+1, equality case 36 = 36")


def test_criterion_7_geometric_cross_validation():
    with Stopwatch(60.0):
        r = end_to_end_check(ImplicitWeb(P ** 2 - X))
        assert (r.k, r.degree, r.polar_curve_degree) == (2, 1, 3)
        assert r.polar_check_ok
        r = end_to_end_check(ImplicitWeb(X + Y * P))
        assert (r.k, r.degree, r.polar_curve_degree) == (1, 1, 2)
        assert r.polar_check_ok
        r = end_to_end_check(ImplicitWeb(P ** 2 - Y), 4 * Y - X ** 2)
        assert (r.k, r.degree) == (2, 1)
        assert r.invariant is True
        assert r.curve_degree == 2 and r.degree_bound == 4
        assert r.bound_check == "holds"
    _report(7, "exact tangency, polar and invariance measurements of three reference webs")


def test_criterion_8_noninvariance_certification():
    c = smooth_hypersurface_char_numbers(5, 2)
    w = WebCharNumbers(n=2, p=1, k=1, d=(1, 2))
    result = invariance_inequalities(c, w)
    assert result.verdict is Verdict.NOT_INVARIANT
    assert result.witness.m == 1
    assert result.witness.lhs == 20 and result.witness.rhs == 15
    _report(8, "degree-5 plane curve vs degree-2 foliation certified NOT_INVARIANT")


GOLDEN_RUNS = [
    ("ring.json", 0, ["ring", "--n", "2", "c^2", "--format", "json"]),
    ("conormal.json", 0, ["conormal", "--n", "3", "--j", "1", "--format", "json"]),
    (
        "char_web.json",
        0,
        ["char-web", "--n", "2", "--p", "1", "--k", "1", "2*h + c", "--format", "json"],
    ),
    (
        "polar_variety.json",
        0,
        ["polar", "--n", "3", "--a", "4,8,28", "--q", "2", "--j", "1", "--format", "json"],
    ),
    (
        "polar_web.json",
        0,
        ["polar", "--n", "2", "--d", "2,1", "--s", "1", "--format", "json"],
    ),
    (
        "check.json",
        2,
        ["check", "--n", "2", "--q", "1", "--a", "5,15", "--d", "1,2", "--format", "json"],
    ),
    ("bound.json", 0, ["bound", "--k", "1", "--d", "1,3,9", "--format", "json"]),
    (
        "web_curve.json",
        0,
        ["web", "--f", "p^2 - y", "--curve", "4*y - x^2", "--seed", "7", "--format", "json"],
    ),
    ("web_plain.json", 0, ["web", "--f", "p^2 - x", "--seed", "11", "--format", "json"]),
]


def test_criterion_9_cli_contract(capsys):
    for name, expected_code, argv in GOLDEN_RUNS:
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == expected_code, argv
        assert out == (GOLDEN / name).read_text(), argv
        json.loads(out)  # every golden record is well-formed JSON
    # exit-status contract
    assert main(["ring", "--n", "2", "h^^2"]) == 1
    assert main(["check", "--n", "2", "--q", "0", "--a", "0,1", "--d", "1,2"]) == 1
    assert main(["web", "--f", "p^2 - x", "--curve", "y", "--seed", "5"]) == 2
    capsys.readouterr()
    _report(9, "golden files byte-identical for all subcommands; exit codes honored")
