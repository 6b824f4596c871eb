"""Seeded request streams for the three benchmark workloads.

Pure Python: this module imports neither webpolar nor sympy, so the same
inputs reach the program under test and the oracle.  A request is a JSON-able
dict with

    kind    "cli" (argv for ``webpolar.cli.main``) or "lib" (the README's
            ``ImplicitWeb(parse_poly_expr(f))`` + ``discriminant_locus``)
    argv    CLI arguments, or ``f`` the web polynomial text for "lib"
    check   what the oracle needs, built from the construction and never
            from webpolar's output

Size classes are fixed by the workload and cycled in a fixed order; the seed
draws only coefficients, points and curves, so a held-out seed gives a
comparable load.  Polynomials are term maps {(x_exp, y_exp, p_exp): coeff}
and travel to the oracle as lists of [x_exp, y_exp, p_exp, coeff].
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("elim", "web-lab", "calculus")

# elim: random webs (k = p-degree, deg = total x,y-degree of each
# p-coefficient, density = share of the possible monomials drawn nonzero).
# The classes form a ladder of request costs from ~15 to ~230 ms (CLI and
# library on one core), so p50 and p90 fall among classes of nearby cost: on
# a gap between two distant classes a quantile would jump between them with
# small shifts in machine speed.  (4, 3) costs ~1.4 s per web and would leave
# too few requests per run.
ELIM_CLASSES = (
    (3, 2, 0.5), (4, 1, 0.7), (3, 2, 1.0), (4, 1, 1.0), (3, 3, 0.5),
    (3, 3, 0.8), (3, 3, 1.0), (4, 2, 0.6), (4, 2, 0.8), (4, 2, 1.0),
)
ELIM_SPAN = 9

# web-lab: (k, degree of the planted invariant curve); every web is also
# queried with two non-invariant control curves of the same degree.  The
# costliest class comes twice so that p90 falls inside it.
WEBLAB_CLASSES = tuple((k, degree) for k in (1, 2) for degree in (3, 4, 5, 6)) + ((2, 6),)
CURVE_SPAN = 5
FACTOR_SPAN = 3

CALCULUS_N = tuple(range(2, 17))
CALCULUS_MAX_ENTRY = 10 ** 30
MALFORMED_EVERY = 4  # one malformed request after every fourth calculus block


def blocks(workload: str, seed: int, label: str = "run"):
    """Endless, reproducible sequence of request blocks; each block runs every
    size class of ``workload`` once.

    ``label`` separates independent streams of one seed (the warm-up uses
    its own, so the measured requests do not depend on it).
    """
    make = {"elim": _elim_block, "web-lab": _weblab_block, "calculus": _calculus_block}[workload]
    for index in itertools.count():
        yield list(make(random.Random(f"{seed}:{workload}:{label}:{index}"), index))


def stream(workload: str, seed: int, label: str = "run"):
    """The requests of ``blocks`` one after another."""
    return itertools.chain.from_iterable(blocks(workload, seed, label))


# -- polynomial helpers -----------------------------------------------------------


def _mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a1, b1, c1), v1 in f.items():
        for (a2, b2, c2), v2 in g.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _add(*polys: dict) -> dict:
    out: dict = {}
    for poly in polys:
        for key, value in poly.items():
            out[key] = out.get(key, 0) + value
    return {k: v for k, v in out.items() if v}


def _d(poly: dict, axis: int) -> dict:
    out = {}
    for exps, value in poly.items():
        if exps[axis]:
            lowered = list(exps)
            lowered[axis] -= 1
            out[tuple(lowered)] = value * exps[axis]
    return out


def _render(poly: dict) -> str:
    """Expanded text in the CLI grammar, highest exponents first."""
    parts = []
    for exps, coeff in sorted(poly.items(), reverse=True):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip("xyp", exps) if e
        )
        mag = abs(coeff)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        if parts:
            parts.append((" - " if coeff < 0 else " + ") + body)
        else:
            parts.append("-" + body if coeff < 0 else body)
    return "".join(parts) or "0"


def _terms(poly: dict) -> list:
    return [[a, b, c, v] for (a, b, c), v in sorted(poly.items())]


def _top_form_nonzero(poly: dict) -> bool:
    """T(a) = sum over top x,y-degree terms of coeff * a^(y_exp + p_exp) is not 0.

    Then a generic line y = a*x + b meets the web in deg_xy(F) affine
    tangencies and none at infinity, so the web degree is deg_xy(F).
    """
    top = max(a + b for a, b, _ in poly)
    collected: dict = {}
    for (a, b, c), v in poly.items():
        if a + b == top:
            collected[b + c] = collected.get(b + c, 0) + v
    return any(collected.values())


def _random_xy(rng: random.Random, degree: int, span: int, density: float) -> dict:
    """Random polynomial in x, y of exact total degree ``degree`` that involves y."""
    while True:
        poly = {}
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                if a + b == degree or rng.random() < density:
                    value = rng.randint(-span, span)
                    if value:
                        poly[(a, b, 0)] = value
        if poly and max(a + b for a, b, _ in poly) == degree and any(b for _, b, _ in poly):
            return poly


def _random_p_poly(rng: random.Random, k: int, degree: int, span: int) -> dict:
    """Dense random polynomial: p-degree <= k, every coefficient of x,y-degree <= degree."""
    return {
        (a, b, c): rng.randint(-span, span)
        for c in range(k + 1)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
    }


# -- elim ------------------------------------------------------------------------


def _elim_block(rng: random.Random, index: int):
    for k, deg, density in ELIM_CLASSES:
        poly = {e: v for e, v in _random_p_poly(rng, k, deg, ELIM_SPAN).items()
                if v and rng.random() < density}
        # the y^deg * p^k coefficient is the only one in front of a^(deg + k)
        # in T(a), so a nonzero draw fixes p-degree k and web degree deg
        poly[(0, deg, k)] = rng.choice([v for v in range(-ELIM_SPAN, ELIM_SPAN + 1) if v])
        text = _render(poly)
        check = {"type": "web", "f": _terms(poly), "k": k}
        yield {"kind": "cli", "argv": ["web", "--f", text, "--seed", str(rng.randrange(10 ** 6)),
                                        "--format", "json"], "check": check}
        yield {"kind": "lib", "f": text,
               "check": {"type": "discriminant", "f": check["f"],
                         "points_seed": rng.randrange(10 ** 9)}}


# -- web-lab ---------------------------------------------------------------------

_P = {(0, 0, 1): 1}


def _slope_form(curve: dict) -> dict:
    """C_y * p + C_x: vanishes on C = 0 exactly at the curve's own slope."""
    return _add(_mul(_d(curve, 1), _P), _d(curve, 0))


def _factor(rng: random.Random, p_degree: int) -> dict:
    return _random_p_poly(rng, p_degree, 1, FACTOR_SPAN)


def _planted_web(rng: random.Random, k: int, curve: dict) -> dict:
    """F = (C_y p + C_x) H + C G, with p-degrees k - 1 for H and k for G.

    On C = 0 at the curve's slope p = -C_x / C_y both summands vanish, so C
    is invariant by construction.
    """
    return _add(_mul(_slope_form(curve), _factor(rng, k - 1)), _mul(curve, _factor(rng, k)))


def _weblab_block(rng: random.Random, index: int):
    for k, degree in WEBLAB_CLASSES:
        while True:
            planted = _random_xy(rng, degree, CURVE_SPAN, 0.5)
            f = _planted_web(rng, k, planted)
            if f and max(c for _, _, c in f) == k and _top_form_nonzero(f):
                break
        controls = [_random_xy(rng, degree, CURVE_SPAN, 0.5) for _ in range(2)]
        text = _render(f)
        web_seed = str(rng.randrange(10 ** 6))
        for curve in [planted] + controls:
            yield {
                "kind": "cli",
                "argv": ["web", "--f", text, "--curve", _render(curve), "--seed", web_seed,
                         "--format", "json"],
                "check": {"type": "web", "f": _terms(f), "k": k,
                          "curve": _terms(curve), "planted": curve is planted},
            }


# -- calculus --------------------------------------------------------------------


def _max_hypersurface_degree(n: int) -> int:
    """Largest d with d * (d-1)^(n-1) <= CALCULUS_MAX_ENTRY."""
    lo, hi = 2, 2
    while hi * (hi - 1) ** (n - 1) <= CALCULUS_MAX_ENTRY:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * (mid - 1) ** (n - 1) <= CALCULUS_MAX_ENTRY:
            lo = mid
        else:
            hi = mid
    return lo


def _smooth_a(d: int, n: int) -> list:
    """a_1..a_n of a smooth degree-d hypersurface: a_(j+1) = d(d-1)^j - a_j."""
    a, previous = [], 0
    for j in range(n):
        previous = d * (d - 1) ** j - previous
        a.append(previous)
    return a


def _entries(rng: random.Random, count: int, first: int | None = None) -> list:
    top = rng.choice([10 ** 3, 10 ** 12, CALCULUS_MAX_ENTRY])
    values = [rng.randint(1, top) for _ in range(count)]
    if first is not None:
        values[0] = first
    return values


def _csv(values) -> str:
    return ",".join(map(str, values))


def _cli(argv: list, check: dict) -> dict:
    return {"kind": "cli", "argv": argv + ["--format", "json"], "check": check}


def _calculus_block(rng: random.Random, index: int):
    n = CALCULUS_N[index % len(CALCULUS_N)]
    ns = str(n)

    # ring: a product of two powers of linear forms, top degree on odd blocks
    total = 2 * n - 1 if index % 2 else rng.randint(1, 2 * n - 1)
    e1 = rng.randint(0, total)
    forms = [[rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(2)] for _ in range(2)]
    expr = "*".join(
        f"({a}*h {'-' if b < 0 else '+'} {abs(b)}*c)^{e}"
        for (a, b), e in zip(forms, (e1, total - e1))
    )
    yield _cli(["ring", "--n", ns, expr],
               {"type": "ring", "n": n, "forms": forms, "exponents": [e1, total - e1]})

    j = rng.randint(0, n - 1)
    yield _cli(["conormal", "--n", ns, "--j", str(j)], {"type": "conormal", "n": n, "j": j})

    p = rng.randint(1, n - 1)
    d = _entries(rng, p + 1, first=rng.randint(1, 4))
    expr = " + ".join(f"{v}*h^{i}*c^{p - i}" for i, v in enumerate(d))
    argv = ["char-web", "--n", ns, "--p", str(p), expr]
    if rng.random() < 0.5:
        argv += ["--k", str(d[0])]
    yield _cli(argv, {"type": "char-web", "d": d})

    if index % 2:
        degree = rng.randint(2, _max_hypersurface_degree(n))
        a, q = _smooth_a(degree, n), n - 1
    else:
        degree, a, q = None, _entries(rng, n), rng.randint(0, n - 1)
    j = rng.randint(0, q)
    yield _cli(["polar", "--n", ns, "--a", _csv(a), "--q", str(q), "--j", str(j)],
               {"type": "polar-variety", "a": a, "q": q, "j": j, "hypersurface_degree": degree})

    p = rng.randint(1, n - 1)
    d = _entries(rng, p + 1, first=rng.randint(1, 4))
    s = rng.randint(1, p)
    yield _cli(["polar", "--n", ns, "--d", _csv(d), "--s", str(s)],
               {"type": "polar-web", "d": d, "s": s})

    degree = rng.randint(2, _max_hypersurface_degree(n))
    p = rng.randint(1, n - 1)
    # d_m + d_(m-1) drawn around (degree-1)^m so both verdicts occur
    d = [rng.randint(1, 4)] + [
        max(1, rng.randint((degree - 1) ** m // 3, 2 * (degree - 1) ** m)) for m in range(1, p + 1)
    ]
    yield _cli(["check", "--n", ns, "--q", str(n - 1), "--a", _csv(_smooth_a(degree, n)),
                "--d", _csv(d), "--include-conditional"],
               {"type": "check", "n": n, "degree": degree, "d": d})

    p = rng.randint(1, n - 1)
    d = _entries(rng, p + 1, first=rng.randint(1, 4))
    argv = ["bound", "--d", _csv(d)]
    if rng.random() < 0.5:
        argv += ["--n", str(rng.randint(p + 1, 16))]
    yield _cli(argv, {"type": "bound", "d": d})

    if index % MALFORMED_EVERY == MALFORMED_EVERY - 1:
        yield _cli(_malformed(rng, n), {"type": "malformed"})


def _malformed(rng: random.Random, n: int) -> list:
    ns = str(n)
    choice = rng.randrange(6)
    if choice == 0:
        return ["ring", "--n", ns, f"h^{rng.randint(1, 9)} +* c"]
    if choice == 1:
        return ["conormal", "--n", ns, "--j", str(n + rng.randint(0, 3))]
    if choice == 2:
        return ["polar", "--n", ns, "--a", _csv(_entries(rng, n - 1)), "--q", "1", "--j", "0"]
    if choice == 3:
        return ["bound", "--d", f"{rng.randint(1, 4)},x,{rng.randint(1, 99)}"]
    if choice == 4:
        return ["check", "--n", ns, "--q", "0", "--a", _csv(_entries(rng, n)),
                "--d", f"{rng.randint(1, 4)},{rng.randint(1, 99)}"]
    return ["ring", "--n", ns]
