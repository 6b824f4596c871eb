"""Command-line surface of the calculator.

Subcommands: ring, conormal, char-web, polar, check, bound, web.  Every one
takes --format {text,json}; the JSON record has the fixed field order
{command, inputs, results, verdict, seed} and renders integers beyond 53-bit
safety as decimal strings, so fixed inputs give byte-identical output.

Each subcommand handler only computes: it returns its inputs, results,
verdict and text lines.  ``main`` owns everything else: it builds the record,
prints it or the text lines, and decides the exit status in one rule: 0 on
success (including an INCONCLUSIVE verdict), 2 when non-invariance is
certified or the degree-bound check fails, 1 on usage, parse or value errors,
which it maps to a message on stderr.  Internal consistency failures are
RuntimeErrors and propagate.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classes import (
    CharNumbers,
    WebCharNumbers,
    char_numbers_from_web_class,
    conormal_linear,
)
from .exprparse import ParseError, parse_poly_expr, parse_ring_expr
from .polar import (
    Verdict,
    hypersurface_degree_bound,
    invariance_inequalities,
    polar_degree_variety,
    polar_degree_web,
)
from .ring import integrate
from .weblab import ImplicitWeb, end_to_end_check

_SAFE_INT = 2 ** 53


class _ArgumentParser(argparse.ArgumentParser):
    # the exit-status contract reserves 1 for usage errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _SAFE_INT else value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _int_vector(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{label} must be a comma-separated list of integers, got {text!r}")


def _web_vector(text: str) -> tuple[int, ...]:
    """The --d vector d_0,...,d_p of a web; p >= 1."""
    d = _int_vector(text, "--d")
    if len(d) < 2:
        raise ValueError(f"--d needs at least d_0,d_1, got {text!r}")
    return d


# -- subcommand handlers: each returns (inputs, results, verdict, text lines) ----


def _cmd_ring(args):
    element = parse_ring_expr(args.expr, args.n)
    integral = integrate(element)
    results = {"canonical": str(element), "integral": integral}
    lines = [f"canonical: {element}", f"integral: {integral}"]
    return {"n": args.n, "expr": args.expr}, results, "OK", lines


def _cmd_conormal(args):
    element = conormal_linear(args.j, args.n)
    return {"n": args.n, "j": args.j}, {"class": str(element)}, "OK", [f"class: {element}"]


def _cmd_char_web(args):
    element = parse_ring_expr(args.expr, args.n)
    w = char_numbers_from_web_class(element, args.p, args.k)
    inputs = {"n": args.n, "p": args.p, "k": args.k, "expr": args.expr}
    return inputs, {"d": list(w.d)}, "OK", ["d = (" + ", ".join(map(str, w.d)) + ")"]


def _cmd_polar(args):
    if (args.a is None) == (args.d is None):
        raise ValueError("give exactly one of --a (variety mode) or --d (web mode)")
    if args.a is not None:
        if args.q is None or args.j is None:
            raise ValueError("variety mode needs --q and --j")
        a = _int_vector(args.a, "--a")
        c = CharNumbers(n=args.n, q=args.q, a=a)
        degree = polar_degree_variety(c, args.j)
        inputs = {"n": args.n, "mode": "variety", "a": list(a), "q": args.q, "j": args.j}
    else:
        if args.s is None:
            raise ValueError("web mode needs --s")
        d = _web_vector(args.d)
        w = WebCharNumbers.from_vector(args.n, d, args.k)
        degree = polar_degree_web(w, args.s)
        inputs = {"n": args.n, "mode": "web", "d": list(d), "k": w.k, "s": args.s}
    return inputs, {"degree": degree}, "OK", [f"degree: {degree}"]


def _cmd_check(args):
    a = _int_vector(args.a, "--a")
    d = _web_vector(args.d)
    c = CharNumbers(n=args.n, q=args.q, a=a)
    w = WebCharNumbers.from_vector(args.n, d, args.k)
    report = invariance_inequalities(c, w, include_conditional=args.include_conditional)
    witness, verdict = report.witness, report.verdict.value
    inputs = {"n": args.n, "q": args.q, "a": list(a), "p": w.p, "k": w.k, "d": list(d),
              "include_conditional": args.include_conditional}
    results = {"entries": [vars(e) for e in report.entries],
               "witness_m": witness.m if witness else None}
    lines = []
    for e in report.entries:
        if e.vacuous:
            status = "vacuous (zero denominator)"
        elif e.holds:
            status = "holds"
        else:
            status = "FAILS"
        tag = " [conditional]" if e.conditional else ""
        lines.append(f"m={e.m} j={e.j}: {e.lhs} <= {e.rhs} {status}{tag}")
    lines.append(f"verdict: {verdict}")
    return inputs, results, verdict, lines


def _cmd_bound(args):
    d = _web_vector(args.d)
    p = len(d) - 1
    n = args.n if args.n is not None else p + 1
    w = WebCharNumbers.from_vector(n, d, args.k)
    bounds = hypersurface_degree_bound(w)
    lines = [f"m={m}: d <= {value}" for m, value in enumerate(bounds.per_m, start=1)]
    lines.append(f"overall: d <= {bounds.overall}")
    results = {"per_m": list(bounds.per_m), "overall": bounds.overall}
    return {"n": n, "p": p, "k": w.k, "d": list(d)}, results, "OK", lines


def _cmd_web(args):
    f = parse_poly_expr(args.f, {"x", "y", "p"})
    curve = parse_poly_expr(args.curve, {"x", "y"}) if args.curve is not None else None
    web = ImplicitWeb(f)
    report = end_to_end_check(web, curve)
    if report.invariant is None:
        verdict = "OK"
    elif report.invariant:
        verdict = "INVARIANT"
    else:
        verdict = Verdict.NOT_INVARIANT.value
    inputs = {"f": args.f, "n": 2}
    if args.curve is not None:
        inputs["curve"] = args.curve
    lines = [
        f"k: {report.k}",
        f"degree: {report.degree}",
        f"polar curve degree: {report.polar_curve_degree}"
        f" (expected {report.polar_curve_expected})"
        f" {'ok' if report.polar_check else 'MISMATCH'}",
        f"degree bound: {report.degree_bound}",
    ]
    if report.curve_degree is not None:
        lines.append(f"curve degree: {report.curve_degree}")
        lines.append(f"invariant: {'yes' if report.invariant else 'no'}")
        if report.bound_check == "skipped":
            lines.append("bound check: skipped")
        else:
            lines.append(
                f"bound check: {report.curve_degree} <= {report.degree_bound} {report.bound_check}"
            )
    lines.append(f"verdict: {verdict}")
    return inputs, report.to_dict(), verdict, lines


# -- parser wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="webpolar",
        description="Exact calculator for plane-web characteristic numbers, "
        "polar degrees, and invariant-hypersurface degree bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="reduce a ring expression in h and c")
    ring.add_argument("--n", type=int, required=True, help="ambient projective dimension")
    ring.add_argument("expr")
    ring.set_defaults(handler=_cmd_ring)

    conormal = sub.add_parser("conormal", help="conormal class of a linear subspace")
    conormal.add_argument("--n", type=int, required=True)
    conormal.add_argument("--j", type=int, required=True, help="dimension of the subspace")
    conormal.set_defaults(handler=_cmd_conormal)

    char_web = sub.add_parser(
        "char-web", help="characteristic numbers of a codimension-p class"
    )
    char_web.add_argument("--n", type=int, required=True)
    char_web.add_argument("--p", type=int, required=True)
    char_web.add_argument("--k", type=int, default=None)
    char_web.add_argument("expr")
    char_web.set_defaults(handler=_cmd_char_web)

    polar = sub.add_parser("polar", help="polar-class degree of a variety or plane field")
    polar.add_argument("--n", type=int, required=True)
    polar.add_argument("--a", help="a_1,...,a_n (variety mode)")
    polar.add_argument("--q", type=int, help="variety dimension (variety mode)")
    polar.add_argument("--j", type=int, help="polar index (variety mode)")
    polar.add_argument("--d", help="d_0,...,d_p (web mode)")
    polar.add_argument("--k", type=int, help="multiplicity (web mode, default d_0)")
    polar.add_argument("--s", type=int, help="polar index (web mode)")
    polar.set_defaults(handler=_cmd_polar)

    check = sub.add_parser("check", help="invariance inequalities for a variety and a field")
    check.add_argument("--n", type=int, required=True)
    check.add_argument("--q", type=int, required=True)
    check.add_argument("--a", required=True, help="a_1,...,a_n")
    check.add_argument("--d", required=True, help="d_0,...,d_p")
    check.add_argument("--k", type=int, default=None)
    check.add_argument("--include-conditional", action="store_true",
                       help="also emit j > 0 entries (their hypothesis is not checkable)")
    check.set_defaults(handler=_cmd_check)

    bound = sub.add_parser("bound", help="degree bounds for a smooth invariant hypersurface")
    bound.add_argument("--k", type=int, default=None)
    bound.add_argument("--d", required=True, help="d_0,...,d_p")
    bound.add_argument("--n", type=int, default=None)
    bound.set_defaults(handler=_cmd_bound)

    web = sub.add_parser("web", help="measure an implicit plane web geometrically")
    web.add_argument("--f", required=True, help="web polynomial F(x, y, p)")
    web.add_argument("--curve", default=None, help="candidate invariant curve C(x, y)")
    web.add_argument("--seed", type=int, default=None,
                     help="echoed in the record; the lab draws no samples")
    web.set_defaults(handler=_cmd_web)

    # added last, so it is listed last in each subcommand's --help
    for command in sub.choices.values():
        command.add_argument("--format", choices=("text", "json"), default="text",
                             help="output mode (json is diff-stable)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:  # rendering is inside: str() of an integer past 4300 digits raises ValueError
        inputs, results, verdict, lines = args.handler(args)
        if args.format == "json":
            record = {"command": args.command, "inputs": inputs, "results": results,
                      "verdict": verdict, "seed": getattr(args, "seed", None)}
            print(json.dumps(_jsonable(record), indent=2))
        else:
            print("\n".join(lines))
    except ParseError as exc:
        print(f"webpolar: parse error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"webpolar: error: {exc}", file=sys.stderr)
        return 1
    if verdict == Verdict.NOT_INVARIANT.value or results.get("bound_check") == "violated":
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
