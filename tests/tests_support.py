"""Helpers shared across test modules."""

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import sympy

import webpolar
from webpolar.multipoly import MultiPoly, _bareiss_determinant

SYMPY_VARS = sympy.symbols("x y p t u")


def to_sympy_poly(poly: MultiPoly):
    acc = sympy.Integer(0)
    for exps, coeff in poly.terms().items():
        term = sympy.Integer(coeff)
        for sym, e in zip(SYMPY_VARS, exps):
            if e:
                term *= sym ** e
        acc += term
    return acc


# The Sylvester matrix is the tests' independent reference for resultants:
# the package takes them through the smaller Bezout matrix.

def sylvester_layout(fc: list, gc: list, zero) -> list[list]:
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
    return sylvester_layout(fc, gc, MultiPoly.zero())


def sylvester_integer_resultant(fc: list[int], gc: list[int]) -> int:
    """Res(f, g) of integer coefficient lists, descending, as the Bareiss
    determinant of their Sylvester matrix; 1 for two constants."""
    rows = sylvester_layout(fc, gc, 0)
    return _bareiss_determinant(rows) if rows else 1


def twist_degree(k: int, p: int, n: int, deg_w: int) -> int:
    """Degree of the line bundle twisting the defining k-symmetric form.

    The form lives in Sym^k of the (n-p)-forms twisted by
    O(deg W + k*(n-p) + k); this bookkeeping pins how many zeros a
    restriction to a linear subspace must have in total.
    """
    if k < 1:
        raise ValueError(f"multiplicity k must be positive, got {k}")
    if not 1 <= p <= n - 1:
        raise ValueError(f"plane dimension p={p} out of range for n={n}")
    if deg_w < 0:
        raise ValueError(f"web degree must be nonnegative, got {deg_w}")
    return deg_w + k * (n - p) + k


# -- inputs at the caps, run in a bounded child process ---------------------------
# The cases are generated from a seed, not committed: each is tens of kB.


def random_web_source(seed: int, k: int, degree: int, terms_per_coefficient: int) -> str:
    """A web with ``terms_per_coefficient`` random terms c*x^a*y^b (a + b <= degree,
    c in [-9, 9] nonzero) on each power p^0..p^k."""
    rng = random.Random(seed)
    terms = []
    for i in range(k + 1):
        for _ in range(terms_per_coefficient):
            a = rng.randint(0, degree)
            b = rng.randint(0, degree - a)
            terms.append(f" {rng.choice('+-')} {rng.randint(1, 9)}*x^{a}*y^{b}*p^{i}")
    return "".join(terms).lstrip(" +")


def literal_power_sum_source(seed: int, digits: int, exponent: int, length: int) -> str:
    """A sum of terms <literal>^exponent*h, each literal ``digits`` random digits
    long, as many as fit in ``length`` characters."""
    rng = random.Random(seed)
    terms = []
    while (len(terms) + 1) * (digits + len(str(exponent)) + 6) <= length:
        literal = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=digits - 1))
        terms.append(f"{literal}^{exponent}*h")
    return " + ".join(terms)


def run_bounded(argv: list[str], cpu_seconds: int,
                memory_mb: int) -> tuple[subprocess.CompletedProcess, float]:
    """``python -m webpolar *argv`` in a child process under RLIMIT_CPU and
    RLIMIT_AS, which ``setrlimit`` sets in the child alone; the completed
    process and the CPU seconds it used.  A child past its CPU bound dies of
    SIGXCPU, and past its memory bound raises MemoryError with a traceback,
    so neither passes ``assert_answer_or_refusal``."""

    def bound():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds + 1))
        resource.setrlimit(resource.RLIMIT_AS, (memory_mb << 20, memory_mb << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(webpolar.__file__).parent.parent))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    completed = subprocess.run(
        [sys.executable, "-m", "webpolar", *argv],
        capture_output=True, text=True, env=env, preexec_fn=bound, timeout=10 * cpu_seconds,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return completed, cpu


def assert_answer_or_refusal(completed: subprocess.CompletedProcess):
    """An answer on stdout (exit 0 or 2), or exit 1 with one stderr line."""
    if completed.returncode == 1:
        assert completed.stdout == ""
        assert len(completed.stderr.splitlines()) == 1, completed.stderr[-2000:]
    else:
        assert completed.returncode in (0, 2), (completed.returncode, completed.stderr[-2000:])
        assert completed.stdout
