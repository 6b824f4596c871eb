"""Command-line surface of the calculator.

Subcommands: ring, conormal, char-web, polar, check, bound, web.  Every one
takes --format {text,json}; the JSON record has the fixed field order
{command, inputs, results, verdict, seed} and renders integers beyond 53-bit
safety as decimal strings, so fixed inputs give byte-identical output.

Exit status: 0 on success (including an INCONCLUSIVE verdict), 2 when
non-invariance is certified or the degree-bound check fails, 1 on usage,
parse or value errors, which ``main`` maps to one line on stderr.  Internal
consistency failures are RuntimeErrors and propagate.
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


def _emit(args, record: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(_jsonable(record), indent=2))
    else:
        for line in text_lines:
            print(line)


def _record(command: str, inputs: dict, results: dict, verdict: str, seed=None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "verdict": verdict,
        "seed": seed,
    }


def _int_vector(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{label} must be a comma-separated list of integers, got {text!r}")


# -- subcommand handlers ---------------------------------------------------------


def _cmd_ring(args) -> int:
    element = parse_ring_expr(args.expr, args.n)
    record = _record(
        "ring",
        {"n": args.n, "expr": args.expr},
        {"canonical": str(element), "integral": integrate(element)},
        "OK",
    )
    _emit(args, record, [f"canonical: {element}", f"integral: {integrate(element)}"])
    return 0


def _cmd_conormal(args) -> int:
    element = conormal_linear(args.j, args.n)
    record = _record(
        "conormal",
        {"n": args.n, "j": args.j},
        {"class": str(element)},
        "OK",
    )
    _emit(args, record, [f"class: {element}"])
    return 0


def _cmd_char_web(args) -> int:
    element = parse_ring_expr(args.expr, args.n)
    w = char_numbers_from_web_class(element, args.p, args.k)
    record = _record(
        "char-web",
        {"n": args.n, "p": args.p, "k": args.k, "expr": args.expr},
        {"d": list(w.d)},
        "OK",
    )
    _emit(args, record, ["d = (" + ", ".join(map(str, w.d)) + ")"])
    return 0


def _cmd_polar(args) -> int:
    if (args.a is None) == (args.d is None):
        raise ValueError("give exactly one of --a (variety mode) or --d (web mode)")
    if args.a is not None:
        if args.q is None or args.j is None:
            raise ValueError("variety mode needs --q and --j")
        a = _int_vector(args.a, "--a")
        c = CharNumbers(n=args.n, q=args.q, a=a)
        degree = polar_degree_variety(c, args.j)
        record = _record(
            "polar",
            {"n": args.n, "mode": "variety", "a": list(a), "q": args.q, "j": args.j},
            {"degree": degree},
            "OK",
        )
    else:
        if args.s is None:
            raise ValueError("web mode needs --s")
        d = _int_vector(args.d, "--d")
        w = WebCharNumbers.from_vector(args.n, d, args.k)
        degree = polar_degree_web(w, args.s)
        record = _record(
            "polar",
            {"n": args.n, "mode": "web", "d": list(d), "k": w.k, "s": args.s},
            {"degree": degree},
            "OK",
        )
    _emit(args, record, [f"degree: {record['results']['degree']}"])
    return 0


def _cmd_check(args) -> int:
    a = _int_vector(args.a, "--a")
    d = _int_vector(args.d, "--d")
    c = CharNumbers(n=args.n, q=args.q, a=a)
    w = WebCharNumbers.from_vector(args.n, d, args.k)
    report = invariance_inequalities(c, w, include_conditional=args.include_conditional)
    witness, verdict = report.witness, report.verdict
    entries = [
        {
            "m": e.m,
            "j": e.j,
            "lhs": e.lhs,
            "rhs": e.rhs,
            "holds": e.holds,
            "conditional": e.conditional,
            "vacuous": e.vacuous,
        }
        for e in report.entries
    ]
    record = _record(
        "check",
        {
            "n": args.n,
            "q": args.q,
            "a": list(a),
            "p": w.p,
            "k": w.k,
            "d": list(d),
            "include_conditional": args.include_conditional,
        },
        {"entries": entries, "witness_m": witness.m if witness else None},
        verdict.value,
    )
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
    lines.append(f"verdict: {verdict.value}")
    _emit(args, record, lines)
    return 2 if verdict is Verdict.NOT_INVARIANT else 0


def _cmd_bound(args) -> int:
    d = _int_vector(args.d, "--d")
    p = len(d) - 1
    n = args.n if args.n is not None else p + 1
    w = WebCharNumbers.from_vector(n, d, args.k)
    bounds = hypersurface_degree_bound(w)
    record = _record(
        "bound",
        {"n": n, "p": p, "k": w.k, "d": list(d)},
        {"per_m": list(bounds.per_m), "overall": bounds.overall},
        "OK",
    )
    lines = [f"m={m}: d <= {value}" for m, value in enumerate(bounds.per_m, start=1)]
    lines.append(f"overall: d <= {bounds.overall}")
    _emit(args, record, lines)
    return 0


def _cmd_web(args) -> int:
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
    record = _record("web", inputs, report.to_dict(), verdict, args.seed)
    lines = [
        f"k: {report.k}",
        f"degree: {report.degree}",
        f"polar curve degree: {report.polar_curve_degree}"
        f" (expected {report.polar_curve_expected})"
        f" {'ok' if report.polar_check_ok else 'MISMATCH'}",
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
    _emit(args, record, lines)
    if verdict == Verdict.NOT_INVARIANT.value or report.bound_check == "violated":
        return 2
    return 0


# -- parser wiring ------------------------------------------------------------------


def _add_format(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output mode (json is diff-stable)")


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
    _add_format(ring)
    ring.set_defaults(handler=_cmd_ring)

    conormal = sub.add_parser("conormal", help="conormal class of a linear subspace")
    conormal.add_argument("--n", type=int, required=True)
    conormal.add_argument("--j", type=int, required=True, help="dimension of the subspace")
    _add_format(conormal)
    conormal.set_defaults(handler=_cmd_conormal)

    char_web = sub.add_parser(
        "char-web", help="characteristic numbers of a codimension-p class"
    )
    char_web.add_argument("--n", type=int, required=True)
    char_web.add_argument("--p", type=int, required=True)
    char_web.add_argument("--k", type=int, default=None)
    char_web.add_argument("expr")
    _add_format(char_web)
    char_web.set_defaults(handler=_cmd_char_web)

    polar = sub.add_parser("polar", help="polar-class degree of a variety or plane field")
    polar.add_argument("--n", type=int, required=True)
    polar.add_argument("--a", help="a_1,...,a_n (variety mode)")
    polar.add_argument("--q", type=int, help="variety dimension (variety mode)")
    polar.add_argument("--j", type=int, help="polar index (variety mode)")
    polar.add_argument("--d", help="d_0,...,d_p (web mode)")
    polar.add_argument("--k", type=int, help="multiplicity (web mode, default d_0)")
    polar.add_argument("--s", type=int, help="polar index (web mode)")
    _add_format(polar)
    polar.set_defaults(handler=_cmd_polar)

    check = sub.add_parser("check", help="invariance inequalities for a variety and a field")
    check.add_argument("--n", type=int, required=True)
    check.add_argument("--q", type=int, required=True)
    check.add_argument("--a", required=True, help="a_1,...,a_n")
    check.add_argument("--d", required=True, help="d_0,...,d_p")
    check.add_argument("--k", type=int, default=None)
    check.add_argument("--include-conditional", action="store_true",
                       help="also emit j > 0 entries (their hypothesis is not checkable)")
    _add_format(check)
    check.set_defaults(handler=_cmd_check)

    bound = sub.add_parser("bound", help="degree bounds for a smooth invariant hypersurface")
    bound.add_argument("--k", type=int, default=None)
    bound.add_argument("--d", required=True, help="d_0,...,d_p")
    bound.add_argument("--n", type=int, default=None)
    _add_format(bound)
    bound.set_defaults(handler=_cmd_bound)

    web = sub.add_parser("web", help="measure an implicit plane web geometrically")
    web.add_argument("--f", required=True, help="web polynomial F(x, y, p)")
    web.add_argument("--curve", default=None, help="candidate invariant curve C(x, y)")
    web.add_argument("--seed", type=int, default=None,
                     help="echoed in the record; the lab draws no samples")
    _add_format(web)
    web.set_defaults(handler=_cmd_web)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"webpolar: parse error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"webpolar: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
