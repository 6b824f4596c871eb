"""Inputs at the caps, each run in a child process under a CPU and memory bound.

Every input within the limits must get an answer, or exit 1 with one error
line, within its bound (``tests_support.run_bounded``).  The inputs come
from seeded generators.
"""

import json

from tests_support import (
    assert_answer_or_refusal,
    literal_power_sum_source,
    random_web_source,
    run_bounded,
)
from webpolar.exprparse import MAX_EXPONENT, MAX_LITERAL_DIGITS, MAX_SOURCE_LENGTH


class TestBoundedCases:
    def test_web_of_slope_degree_100_answers(self):
        # 30 terms of x/y-degree up to 60 on each of p^0..p^100, ~52 kB; the
        # expanded symbolic polar curve took 227 s and 1.38 GB here
        f = random_web_source(seed=100, k=100, degree=60, terms_per_coefficient=30)
        completed, cpu = run_bounded(["web", "--f", f, "--format", "json"],
                                     cpu_seconds=10, memory_mb=512)
        assert_answer_or_refusal(completed)
        results = json.loads(completed.stdout)["results"]
        assert (results["k"], results["degree"]) == (100, 60)
        assert results["polar_curve_degree"] == results["polar_curve_expected"] == 160
        assert cpu < 10

    def test_sum_of_literal_powers_is_refused(self):
        # each <4000 digits>^1000 took seconds to compute and could never be printed
        source = literal_power_sum_source(seed=1, digits=MAX_LITERAL_DIGITS,
                                          exponent=MAX_EXPONENT, length=MAX_SOURCE_LENGTH)
        completed, cpu = run_bounded(["ring", "--n", "2", source], cpu_seconds=5, memory_mb=512)
        assert_answer_or_refusal(completed)
        assert completed.returncode == 1
        assert completed.stderr == (f"webpolar: parse error: line 1, column "
                                    f"{MAX_LITERAL_DIGITS + 1}: power of a literal longer "
                                    f"than {MAX_LITERAL_DIGITS} digits\n")
        assert cpu < 5
