"""Independent answer checker for the benchmark.

Run as ``python3 perfbench/oracle.py ANSWERS.jsonl``: each line holds one
request (as built by ``workloads.py``) and the answer the program gave.  The
expected answers come from the construction of the inputs, closed forms and
sympy, never from webpolar.  sympy is imported here only, in a process of its
own, so it touches neither the timed loop nor the measured peak RSS.

Prints one JSON object: {"checked": N, "failed": F, "failures": [...]}.
"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction
from math import comb, gcd

SAFE_INT = 2 ** 53
MAX_REPORTED = 10


class Mismatch(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def rendered(value):
    """An integer as the CLI's JSON contract renders it."""
    return str(value) if abs(value) > SAFE_INT else value


# -- ring closed forms (pure Python) ----------------------------------------------


def integral(poly: dict, n: int) -> int:
    """Integration on the incidence variety M in P^n x dual P^n.

    M is a (1, 1) hypersurface, so the integral of h^a c^b over M is the one
    of h^a c^b (h + c) over the product: 1 for (a, b) = (n, n-1) or (n-1, n),
    0 otherwise.  Valid for any polynomial, reduced or not.
    """
    return poly.get((n, n - 1), 0) + poly.get((n - 1, n), 0)


def times_monomial(poly: dict, i: int, j: int) -> dict:
    return {(a + i, b + j): v for (a, b), v in poly.items()}


def linear_power(a: int, b: int, e: int) -> dict:
    return {(i, e - i): comb(e, i) * a ** i * b ** (e - i) for i in range(e + 1)}


def hc_product(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a1, b1), v1 in f.items():
        for (a2, b2), v2 in g.items():
            out[(a1 + a2, b1 + b2)] = out.get((a1 + a2, b1 + b2), 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def parse_hc(text: str) -> dict:
    """Parse the CLI's rendering of a ring element, e.g. '3*h^2*c - h^3'."""
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    signed = [(-1, pieces[0][1:]) if pieces[0].startswith("-") else (1, pieces[0])]
    signed += [(-1 if op == "-" else 1, body) for op, body in zip(pieces[1::2], pieces[2::2])]
    out: dict = {}
    for sign, body in signed:
        coeff, a, b = 1, 0, 0
        for factor in body.split("*"):
            name, _, power = factor.partition("^")
            if name.isdigit():
                coeff = int(name)
            elif name == "h":
                a = int(power or 1)
            elif name == "c":
                b = int(power or 1)
            else:
                raise Mismatch(f"unexpected factor {factor!r} in {text!r}")
        expect((a, b) not in out, f"repeated monomial in {text!r}")
        out[(a, b)] = sign * coeff
    return out


def check_canonical(poly: dict, n: int, degree: int) -> None:
    for a, b in poly:
        expect(0 <= a <= n and 0 <= b <= n - 1, f"h^{a}*c^{b} lies outside the canonical box")
        expect(a + b == degree, f"h^{a}*c^{b} is not of degree {degree}")


def same_class(got: dict, want: dict, n: int, degree: int) -> None:
    """Poincare duality: classes agree iff they pair alike with every
    monomial of complementary degree."""
    rest = 2 * n - 1 - degree
    for i in range(rest + 1):
        expect(
            integral(times_monomial(got, i, rest - i), n)
            == integral(times_monomial(want, i, rest - i), n),
            f"pairing with h^{i}*c^{rest - i} differs",
        )


def iroot(x: int, m: int) -> int:
    """Largest r with r^m <= x, by bisection."""
    lo, hi = 0, 1
    while hi ** m <= x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** m <= x:
            lo = mid
        else:
            hi = mid
    return lo


def check_calculus(check: dict, argv: list, rc, record) -> None:
    kind = check["type"]
    if kind == "malformed":
        expect(rc == 1, f"malformed input exited {rc}, expected 1")
        expect(record is None, "malformed input printed a record")
        return
    expect(record is not None, "no JSON record printed")
    results = record["results"]
    expected_rc = 0
    if kind == "ring":
        n = check["n"]
        (a1, b1), (a2, b2) = check["forms"]
        e1, e2 = check["exponents"]
        want = hc_product(linear_power(a1, b1, e1), linear_power(a2, b2, e2))
        got = parse_hc(results["canonical"])
        if got:
            check_canonical(got, n, e1 + e2)
        same_class(got, want, n, e1 + e2)
        expect(results["integral"] == rendered(integral(want, n) if e1 + e2 == 2 * n - 1 else 0),
               "integral differs from the closed form")
    elif kind == "conormal":
        n, j = check["n"], check["j"]
        got = parse_hc(results["class"])
        check_canonical(got, n, n)
        for k in range(n):
            expect(integral(times_monomial(got, k, n - 1 - k), n) == (k == j),
                   f"pairing with h^{k}*c^{n - 1 - k} is not the Kronecker delta")
    elif kind == "char-web":
        expect(results["d"] == [rendered(v) for v in check["d"]], "d vector not recovered")
    elif kind == "polar-variety":
        a, q, j, d = check["a"], check["q"], check["j"], check["hypersurface_degree"]
        n = len(a)
        coeff = [0] + a
        want = d * (d - 1) ** j if d is not None else coeff[n - q + j] + coeff[n - q + j - 1]
        expect(results["degree"] == rendered(want), "polar degree differs from the closed form")
    elif kind == "polar-web":
        d, s = check["d"], check["s"]
        expect(results["degree"] == rendered(d[s] + d[s - 1]), "polar degree differs")
    elif kind == "check":
        n, degree, d = check["n"], check["degree"], check["d"]
        q, p = n - 1, len(d) - 1
        polar = [degree * (degree - 1) ** i for i in range(q + 1)]
        entries, witness = [], None
        for m in range(1, p + 1):
            for j in range(q - p + 1):
                lhs, denominator = polar[q - p - j + m], polar[q - p - j]
                rhs = denominator * (d[m] + d[m - 1])
                vacuous = denominator == 0
                holds = None if vacuous else lhs <= rhs
                if j == 0 and not vacuous and not holds and witness is None:
                    witness = m
                entries.append({"m": m, "j": j, "lhs": rendered(lhs), "rhs": rendered(rhs),
                                "holds": holds, "conditional": j > 0, "vacuous": vacuous})
        expect(results["entries"] == entries, "inequality entries differ")
        expect(results["witness_m"] == witness, "witness differs")
        verdict = "NOT_INVARIANT" if witness is not None else "INCONCLUSIVE"
        expect(record["verdict"] == verdict, f"verdict {record['verdict']}, expected {verdict}")
        expected_rc = 2 if witness is not None else 0
    elif kind == "bound":
        d = check["d"]
        per_m = [1 + iroot(d[m] + d[m - 1], m) for m in range(1, len(d))]
        expect(results["per_m"] == [rendered(v) for v in per_m], "per-m bounds differ")
        expect(results["overall"] == rendered(min(per_m)), "overall bound differs")
    else:
        raise Mismatch(f"unknown check type {kind!r}")
    if kind != "check":
        expect(record["verdict"] == "OK", f"verdict {record['verdict']}")
    expect(record["command"] == argv[0], "command field differs")
    expect(rc == expected_rc, f"exit code {rc}, expected {expected_rc}")


# -- plane webs (sympy) -----------------------------------------------------------


class Web:
    """F(x, y, p) from the generator's term list, with sympy ring views of it."""

    def __init__(self, terms: list):
        from sympy import ZZ
        from sympy.polys.rings import ring

        self.terms = {(a, b, c): v for a, b, c, v in terms}
        self.k = max(c for _, _, c in self.terms)
        self.degree = max(a + b for a, b, _ in self.terms)
        self._univariate, _ = ring("p", ZZ)
        self._plane, self._x, self._y = ring("x,y", ZZ)
        self._full, _, _, _ = ring("p,x,y", ZZ)  # p first: resultants eliminate it
        self._square_free = None

    def at(self, x0: int, y0: int):
        """F(x0, y0, p) as a univariate sympy polynomial in p."""
        coeffs: dict = {}
        for (a, b, c), v in self.terms.items():
            coeffs[(c,)] = coeffs.get((c,), 0) + v * x0 ** a * y0 ** b
        return self._univariate.from_dict(coeffs)

    def leading_at(self, x0: int, y0: int) -> int:
        return sum(v * x0 ** a * y0 ** b for (a, b, c), v in self.terms.items() if c == self.k)

    def specialised_discriminants(self, rng: random.Random, count: int):
        """(x0, y0, Res_p(F, F_p) at that point) with lc_p(F) nonzero there."""
        out = []
        while len(out) < count:
            x0, y0 = rng.randint(-50, 50), rng.randint(-50, 50)
            if self.leading_at(x0, y0) == 0:
                continue
            f = self.at(x0, y0)
            out.append((x0, y0, int(f.resultant(f.diff(f.ring.gens[0])))))
        return out

    def square_free(self, rng: random.Random) -> bool:
        """One nonzero specialised discriminant certifies square-freeness;
        otherwise decide with the full symbolic discriminant."""
        if self._square_free is None:
            self._square_free = (
                self.k == 1
                or any(r for _, _, r in self.specialised_discriminants(rng, 2))
                or self._full_discriminant() != 0
            )
        return self._square_free

    def _full_discriminant(self):
        f = self._full.from_dict({(c, a, b): v for (a, b, c), v in self.terms.items()})
        return f.resultant(f.diff(self._full.gens[0]))

    def top_form_nonzero(self) -> bool:
        collected: dict = {}
        for (a, b, c), v in self.terms.items():
            if a + b == self.degree:
                collected[b + c] = collected.get(b + c, 0) + v
        return any(collected.values())

    def curve_invariant(self, curve_terms: list) -> bool:
        """C is invariant iff C divides sum_i A_i (-C_x)^i C_y^(k-i), the
        numerator of F at the curve's slope p = -C_x / C_y (sympy division).

        One divisor is a Groebner basis, and by Gauss's lemma an integer
        quotient exists when the primitive C divides over Q, so a zero
        remainder over Z means C divides."""
        plane = self._plane
        _, curve = plane.from_dict({(a, b): v for a, b, _, v in curve_terms}).primitive()
        c_x, c_y = curve.diff(self._x), curve.diff(self._y)
        coeffs = [plane.zero] * (self.k + 1)
        for (a, b, c), v in self.terms.items():
            coeffs[c] += plane.from_dict({(a, b): v})
        def power(base, e):  # sympy refuses 0**0, which a curve in y alone reaches
            return base ** e if e else plane.one

        cleared = plane.zero
        for i, a_i in enumerate(coeffs):
            cleared += a_i * power(-c_x, i) * power(c_y, self.k - i)
        return cleared.rem(curve) == 0


_WEBS: dict = {}


def web_of(terms: list) -> Web:
    """One Web per distinct F: web-lab queries every web with several curves."""
    key = json.dumps(terms)
    if key not in _WEBS:
        _WEBS.clear()
        _WEBS[key] = Web(terms)
    return _WEBS[key]


def check_web(check: dict, argv: list, rc, record, rng: random.Random) -> None:
    web = web_of(check["f"])
    expect(web.k == check["k"], "generator and oracle disagree on k")
    if not web.square_free(rng):
        expect(rc == 1 and record is None, "non-square-free web was not rejected")
        return
    expect(web.top_form_nonzero(), "oracle cannot decide the web degree of this input")
    expect(record is not None, f"no JSON record printed (exit code {rc})")
    k, degree = web.k, web.degree
    results = record["results"]
    expect(results["k"] == k, f"k = {results['k']}, expected {k}")
    expect(results["degree"] == degree, f"degree = {results['degree']}, expected {degree}")
    expect(results["polar_curve_degree"] == k + degree, "polar curve degree differs")
    expect(results["polar_curve_expected"] == k + degree, "expected polar degree differs")
    expect(results["polar_check"] is True, "polar check failed")
    bound = k + degree + 1
    expect(results["degree_bound"] == bound, "degree bound differs")
    expect(record["seed"] == int(argv[argv.index("--seed") + 1]), "seed not echoed")
    if "curve" not in check:
        expect(record["verdict"] == "OK", f"verdict {record['verdict']}")
        expect(rc == 0, f"exit code {rc}, expected 0")
        return
    invariant = True if check["planted"] else web.curve_invariant(check["curve"])
    curve_degree = max(a + b for a, b, _, _ in check["curve"])
    expect(results["curve_degree"] == curve_degree, "curve degree differs")
    expect(results["invariant"] is invariant, f"invariant = {results['invariant']}, expected {invariant}")
    if invariant:
        bound_check = "holds" if curve_degree <= bound else "violated"
    else:
        bound_check = "skipped"
    expect(results["bound_check"] == bound_check, "bound check differs")
    verdict = "INVARIANT" if invariant else "NOT_INVARIANT"
    expect(record["verdict"] == verdict, f"verdict {record['verdict']}, expected {verdict}")
    expected_rc = 2 if not invariant or bound_check == "violated" else 0
    expect(rc == expected_rc, f"exit code {rc}, expected {expected_rc}")


def check_discriminant(check: dict, answer: dict) -> None:
    """The library's discriminant agrees, up to one common rational factor,
    with sympy's univariate Res_p(F, F_p) at seeded integer points."""
    web = web_of(check["f"])
    rng = random.Random(check["points_seed"])
    if "exc" in answer:
        expect(not web.square_free(rng), f"library raised {answer['exc']}")
        return
    expect(all(not any(t[2:-1]) for t in answer["terms"]), "discriminant involves p, t or u")
    terms = [(t[0], t[1], t[-1]) for t in answer["terms"]]
    expect(bool(terms), "discriminant is zero for a square-free web")
    content = 0
    for _, _, v in terms:
        content = gcd(content, v)
    expect(content == 1, f"discriminant has content {content}, expected a primitive polynomial")
    ratio = None
    for x0, y0, want in web.specialised_discriminants(rng, 4):
        got = sum(v * x0 ** a * y0 ** b for a, b, v in terms)
        if want == 0:
            expect(got == 0, f"discriminant nonzero at ({x0}, {y0}) where sympy's vanishes")
            continue
        here = Fraction(got, want)
        expect(here != 0 and (ratio is None or here == ratio),
               f"discriminant off by a non-constant factor at ({x0}, {y0})")
        ratio = here
    expect(ratio is not None, "no point with a nonzero specialised discriminant")


def check_one(request: dict, answer: dict, rng: random.Random) -> None:
    check = request["check"]
    if request["kind"] == "lib":
        check_discriminant(check, answer)
        return
    expect("exc" not in answer, f"raised {answer.get('exc')}")
    rc = answer["rc"]
    record = json.loads(answer["out"]) if answer["out"] else None
    if check["type"] == "web":
        check_web(check, request["argv"], rc, record, rng)
    else:
        check_calculus(check, request["argv"], rc, record)


def main(argv: list) -> int:
    checked, failures = 0, []
    rng = random.Random(0)
    with open(argv[1], encoding="utf-8") as lines:
        for number, line in enumerate(lines):
            entry = json.loads(line)
            checked += 1
            try:
                check_one(entry["request"], entry["answer"], rng)
            except Mismatch as exc:
                failures.append(f"answer {number}: {exc}")
    print(json.dumps({"checked": checked, "failed": len(failures),
                      "failures": failures[:MAX_REPORTED]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
