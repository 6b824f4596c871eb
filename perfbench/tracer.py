"""Layer spans for the traced benchmark run, installed from outside the package.

Every public entry point listed in ``ENTRY_POINTS`` is wrapped at run time.
``cli``, ``weblab``, ``polar``, ``classes`` and the package ``__init__`` bind
names with ``from ... import``, and ``MultiPoly.__rmul__`` / ``RingElement.__rmul__``
are the very function objects bound to ``__mul__``; so a wrapper replaces the
original under every name that refers to it in every loaded webpolar module
and class, and ``uninstall`` puts the originals back.

A span is [name, start_ns, end_ns, parent_index, note]; the note holds what
the layer's counters need (term pairs, coefficient bits, a failed division,
a rejected sample).  Spans of one request stay in memory until the request
ends and are then folded into ``LayerTotals``, so a long run keeps a bounded
span list.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, span name, note kind)
ENTRY_POINTS = (
    ("cli", "main", "cli.main", None),
    ("exprparse", "parse_poly_expr", "exprparse.parse_poly_expr", None),
    ("exprparse", "parse_ring_expr", "exprparse.parse_ring_expr", None),
    ("ring", "RingElement.__mul__", "ring.mul", None),
    ("ring", "integrate", "ring.integrate", None),
    ("classes", "CharNumbers.__post_init__", "classes.char_numbers", None),
    ("classes", "WebCharNumbers.__post_init__", "classes.web_char_numbers", None),
    ("classes", "conormal_linear", "classes.conormal_linear", None),
    ("classes", "variety_class", "classes.variety_class", None),
    ("classes", "web_class", "classes.web_class", None),
    ("classes", "pencil_class", "classes.pencil_class", None),
    ("classes", "web_char_integrals", "classes.web_char_integrals", None),
    ("classes", "char_numbers_from_web_class", "classes.char_numbers_from_web_class", None),
    ("polar", "polar_degree_variety", "polar.degree_variety", None),
    ("polar", "polar_degree_web", "polar.degree_web", None),
    ("polar", "invariance_inequalities", "polar.invariance_inequalities", "entries"),
    ("polar", "hypersurface_degree_bound", "polar.hypersurface_degree_bound", None),
    ("polar", "integer_root", "polar.integer_root", None),
    ("multipoly", "resultant", "multipoly.resultant", "resultant"),
    ("multipoly", "MultiPoly.__mul__", "multipoly.mul", "mul"),
    ("multipoly", "MultiPoly.try_exact_div", "multipoly.exact_div", "division"),
    ("multipoly", "MultiPoly.substitute", "multipoly.substitute", None),
    ("weblab", "ImplicitWeb.__init__", "weblab.validate", None),
    ("weblab", "ImplicitWeb.infinity_chart", "weblab.infinity_chart", None),
    ("weblab", "web_degree", "weblab.degree", None),
    ("weblab", "sample_line", "weblab.sample_line", None),
    ("weblab", "tangency_with_line", "weblab.tangency", None),
    ("weblab", "polar_curve", "weblab.polar_curve", None),
    ("weblab", "sample_point", "weblab.sample_point", None),
    ("weblab", "discriminant_locus", "weblab.discriminant", None),
    ("weblab", "is_invariant", "weblab.invariance", None),
)


def _coeff_bits(poly) -> int:
    # reads the private term map: .terms() would copy it on every product
    return max(map(abs, poly._terms.values()), default=0).bit_length()


def _note_mul(args, result):
    if result is NotImplemented:
        return None
    left, right = args
    right_terms = len(right._terms) if hasattr(right, "_terms") else 1
    return (len(left._terms) * right_terms, _coeff_bits(result))


def _note_resultant(args, result):
    f, g, var = args
    return (max(f.degree(var), 0) + max(g.degree(var), 0), len(result._terms), _coeff_bits(result))


NOTES = {
    "mul": _note_mul,
    "resultant": _note_resultant,
    "division": lambda args, result: result is None,
    "entries": lambda args, result: len(result.entries),
}


class Tracer:
    """Wraps the entry points and records spans while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
                record[2] = clock()
            if note is not None:
                record[4] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "webpolar" or key.startswith("webpolar."))]
        classes = {id(obj): obj for m in modules for obj in vars(m).values()
                   if isinstance(obj, type) and obj.__module__.startswith("webpolar")}
        owners = modules + list(classes.values())
        for module, path, name, note in ENTRY_POINTS:
            owner = sys.modules[f"webpolar.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self.wrap(name, original.func))
                replacement.__set_name__(owner, attr)
                self._rebind(owner, attr, replacement)
                continue
            wrapper = self.wrap(name, original, NOTES.get(note))
            for candidate in owners:
                for key, value in list(vars(candidate).items()):
                    if value is original:
                        self._rebind(candidate, key, wrapper)

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


# per-layer metric: (unit, better); counts and times are means per request
LAYER_METRICS = {
    "multipoly.resultant_calls": ("count", "lower"),
    "multipoly.resultant_ms": ("ms", "lower"),
    "multipoly.resultant_share": ("ratio", "lower"),
    "multipoly.sylvester_dim_max": ("count", "lower"),
    "multipoly.mul_calls": ("count", "lower"),
    "multipoly.mul_ms": ("ms", "lower"),
    "multipoly.mul_term_pairs": ("count", "lower"),
    "multipoly.exact_div_calls": ("count", "lower"),
    "multipoly.exact_div_ms": ("ms", "lower"),
    "multipoly.exact_div_failed": ("count", "lower"),
    "multipoly.substitute_calls": ("count", "lower"),
    "multipoly.substitute_ms": ("ms", "lower"),
    "multipoly.coeff_bits_max": ("bits", "lower"),
    "multipoly.result_terms_max": ("count", "lower"),
    "weblab.validate_ms": ("ms", "lower"),
    "weblab.discriminant_ms": ("ms", "lower"),
    "weblab.degree_ms": ("ms", "lower"),
    "weblab.lines_drawn": ("count", "lower"),
    "weblab.lines_rejected": ("count", "lower"),
    "weblab.line_yield": ("ratio", "higher"),
    "weblab.infinity_chart_ms": ("ms", "lower"),
    "weblab.polar_ms": ("ms", "lower"),
    "weblab.points_drawn": ("count", "lower"),
    "weblab.points_rejected": ("count", "lower"),
    "weblab.invariance_ms": ("ms", "lower"),
    "ring.mul_calls": ("count", "lower"),
    "ring.mul_ms": ("ms", "lower"),
    "ring.integrate_calls": ("count", "lower"),
    "polar.self_ms": ("ms", "lower"),
    "polar.ring_crosscheck_ms": ("ms", "lower"),
    "polar.entries": ("count", "lower"),
    "classes.ms": ("ms", "lower"),
    "exprparse.calls": ("count", "lower"),
    "exprparse.ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.throughput_ratio": ("ratio", "higher"),
}

_POLAR_DEGREES = ("polar.degree_variety", "polar.degree_web")


class LayerTotals:
    """Span-derived counters summed over the traced requests."""

    def __init__(self):
        self.requests = 0
        self.request_ns = 0
        self.calls: dict = {}
        self.ns: dict = {}
        self.self_ns: dict = {}
        self.failed: dict = {}
        self.term_pairs = 0
        self.coeff_bits_max = 0
        self.sylvester_dim_max = 0
        self.result_terms_max = 0
        self.entries = 0
        self.crosscheck_ns = 0
        self.classes_ns = 0
        self.spans = 0

    def add(self, spans: list, request_ns: int) -> None:
        """Fold one request's spans in.  Self time is a span's duration minus
        the durations of its direct children."""
        self.requests += 1
        self.request_ns += request_ns
        self.spans += len(spans)
        children = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, parent, note) in enumerate(spans):
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.ns[name] = self.ns.get(name, 0) + duration
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - children[index]
            if isinstance(note, str):  # the call raised; only a rejected sample counts
                if note == "DegenerateSampleError":
                    self.failed[name] = self.failed.get(name, 0) + 1
            elif note is True:  # an inexact division
                self.failed[name] = self.failed.get(name, 0) + 1
            elif name == "multipoly.mul" and note:
                self.term_pairs += note[0]
                self.coeff_bits_max = max(self.coeff_bits_max, note[1])
            elif name == "multipoly.resultant" and note:
                self.sylvester_dim_max = max(self.sylvester_dim_max, note[0])
                self.result_terms_max = max(self.result_terms_max, note[1])
                self.coeff_bits_max = max(self.coeff_bits_max, note[2])
            elif name == "polar.invariance_inequalities" and note:
                self.entries += note
            parent_name = spans[parent][0] if parent >= 0 else ""
            layer, parent_layer = name.split(".")[0], parent_name.split(".")[0]
            if parent_name in _POLAR_DEGREES and layer in ("ring", "classes"):
                self.crosscheck_ns += duration
            if layer == "classes" and parent_layer != "classes":
                self.classes_ns += duration

    def metrics(self, throughput_ratio: float) -> dict:
        per = max(self.requests, 1)

        def count(name):
            return self.calls.get(name, 0) / per

        def ms(*names):
            return sum(self.ns.get(n, 0) for n in names) / per / 1e6

        def self_ms(prefix):
            return sum(v for n, v in self.self_ns.items() if n.startswith(prefix)) / per / 1e6

        lines = self.calls.get("weblab.sample_line", 0)
        lines_rejected = self.failed.get("weblab.tangency", 0)
        parse = ("exprparse.parse_poly_expr", "exprparse.parse_ring_expr")
        values = {
            "multipoly.resultant_calls": count("multipoly.resultant"),
            "multipoly.resultant_ms": ms("multipoly.resultant"),
            "multipoly.resultant_share": self.ns.get("multipoly.resultant", 0)
            / max(self.request_ns, 1),
            "multipoly.sylvester_dim_max": self.sylvester_dim_max,
            "multipoly.mul_calls": count("multipoly.mul"),
            "multipoly.mul_ms": ms("multipoly.mul"),
            "multipoly.mul_term_pairs": self.term_pairs / per,
            "multipoly.exact_div_calls": count("multipoly.exact_div"),
            "multipoly.exact_div_ms": ms("multipoly.exact_div"),
            "multipoly.exact_div_failed": self.failed.get("multipoly.exact_div", 0) / per,
            "multipoly.substitute_calls": count("multipoly.substitute"),
            "multipoly.substitute_ms": ms("multipoly.substitute"),
            "multipoly.coeff_bits_max": self.coeff_bits_max,
            "multipoly.result_terms_max": self.result_terms_max,
            "weblab.validate_ms": ms("weblab.validate"),
            "weblab.discriminant_ms": ms("weblab.discriminant"),
            "weblab.degree_ms": ms("weblab.degree"),
            "weblab.lines_drawn": lines / per,
            "weblab.lines_rejected": lines_rejected / per,
            "weblab.line_yield": (lines - lines_rejected) / lines if lines else 0.0,
            "weblab.infinity_chart_ms": ms("weblab.infinity_chart"),
            "weblab.polar_ms": ms("weblab.polar_curve"),
            "weblab.points_drawn": count("weblab.sample_point"),
            "weblab.points_rejected": self.failed.get("weblab.polar_curve", 0) / per,
            "weblab.invariance_ms": ms("weblab.invariance"),
            "ring.mul_calls": count("ring.mul"),
            "ring.mul_ms": ms("ring.mul"),
            "ring.integrate_calls": count("ring.integrate"),
            "polar.self_ms": self_ms("polar."),
            "polar.ring_crosscheck_ms": self.crosscheck_ns / per / 1e6,
            "polar.entries": self.entries / per,
            "classes.ms": self.classes_ns / per / 1e6,
            "exprparse.calls": sum(self.calls.get(n, 0) for n in parse) / per,
            "exprparse.ms": ms(*parse),
            "cli.self_ms": self_ms("cli."),
            "trace.spans": self.spans / per,
            "trace.throughput_ratio": throughput_ratio,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, (unit, _) in LAYER_METRICS.items()}
