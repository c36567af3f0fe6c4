"""Span tracing installed on finfree from outside, for the benchmark's traced runs.

`Tracer.install()` wraps every public function, and every public method of
every public class, defined in the layer modules of `finfree` (one layer per
module).  A wrapped call records a span `[name, start, end, parent, size]`,
where `parent` is the index of the enclosing span (-1 for none) and `size` is
an optional work size (the degree n of a convolution, the y-degree of a
discriminant).  The wrapper is also rebound wherever another module imported
the original by name, such as `finfree.mop.gauss_jacobi` or
`finfree.cli.hyper_poly`, so cross-module calls are seen too.  No file of the
program is edited; `uninstall()` puts every original back.

Self time of a span is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.  Spans stay in memory
until `write_spans` is called at the end of the run.
"""

import importlib
import inspect
import json
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

LAYERS = (
    "poly",
    "conv",
    "hyper",
    "partitions",
    "series",
    "curves",
    "families",
    "mop",
    "quadrature",
    "roots",
    "verify",
    "cli",
)

_MOP_CTORS = (
    "jp_typeI",
    "jp_typeII",
    "ml1_typeI",
    "ml1_typeII",
    "ml2_typeI",
    "ml2_typeII",
    "ml2_typeII_routes",
    "jp_typeI_constant",
    "ml1_typeI_constant",
)

# span name -> sub-layer group reported as <group>.calls / <group>.self_s
GROUPS = {
    "conv.add_conv": "conv.add",
    "conv.mult_conv": "conv.mult",
    "mop.verify_orthogonality": "mop.oracle",
    "mop.typeI_function_eval": "mop.oracle",
    "curves.moments_from_curve": "curves.moments",
    "curves.newton_series_branch": "curves.moments",
    "curves.mass_branch_moments": "curves.moments",
    "curves.reciprocal_moments_from_curve": "curves.moments",
    "curves.solve_curve_branch": "curves.continuation",
    "curves.stieltjes_density": "curves.continuation",
    "curves.y_discriminant": "curves.disc",
    "curves.support_candidates": "curves.disc",
    **{f"mop.{name}": "mop.ctor" for name in _MOP_CTORS},
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _probe_conv(tracer, rec, args, kwargs, result):
    n = _arg(args, kwargs, 2, "n")
    rec[4] = n
    tracer.maxima["conv.n_max"] = max(tracer.maxima["conv.n_max"], n)


def _probe_find_roots(tracer, rec, args, kwargs, result):
    deg = _arg(args, kwargs, 0, "p").degree
    bits = _arg(args, kwargs, 1, "precision_bits") or tracer.default_precision(deg)
    rec[4] = deg
    tracer.sums["roots.degree_sum"] += deg
    tracer.maxima["roots.prec_bits_max"] = max(tracer.maxima["roots.prec_bits_max"], bits)


def _probe_gauss(tracer, rec, args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    rec[4] = m
    tracer.sums["quadrature.nodes_sum"] += m


def _probe_partitions(tracer, rec, args, kwargs, result):
    k = _arg(args, kwargs, 0, "k")
    rec[4] = k
    tracer.maxima["partitions.k_max"] = max(tracer.maxima["partitions.k_max"], k)


def _probe_disc(tracer, rec, args, kwargs, result):
    rec[4] = _arg(args, kwargs, 0, "curve").deg_y


PROBES = {
    "conv.add_conv": _probe_conv,
    "conv.mult_conv": _probe_conv,
    "roots.find_roots": _probe_find_roots,
    "quadrature.gauss_jacobi": _probe_gauss,
    "quadrature.gauss_laguerre": _probe_gauss,
    "partitions.enumerate_partitions": _probe_partitions,
    "partitions.enumerate_nc": _probe_partitions,
    "curves.y_discriminant": _probe_disc,
}

COUNT_KEYS = ("roots.degree_sum", "quadrature.nodes_sum")
MAX_KEYS = ("conv.n_max", "roots.prec_bits_max", "partitions.k_max")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.errors = Counter()
        self.sums = Counter()
        self.maxima = Counter()
        self._last_exc = None
        self._patched = []  # (owner, attribute, original value)
        self.default_precision = None

    # -- recording --------------------------------------------------------

    def call(self, name, fn, *args, probe=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        spans, stack = self.spans, self.stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec[2] = perf_counter()
            stack.pop()
            # count an exception once, in the innermost span it left
            if exc is not self._last_exc:
                self._last_exc = exc
                self.errors[name.split(".", 1)[0]] += 1
            raise
        rec[2] = perf_counter()
        stack.pop()
        if probe is not None:
            probe(self, rec, args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        call = self.call

        @wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, *args, probe=probe, **kwargs)

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions and methods of every layer module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("finfree")
        modules = {layer: importlib.import_module(f"finfree.{layer}") for layer in LAYERS}
        self.default_precision = modules["roots"].default_precision
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:  # properties and data attributes stay as they are
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction --------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]

    def layer_metrics(self):
        """Every per-layer metric of the traced pass, by name."""
        calls, self_s = Counter(), defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            name = rec[0]
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += own
            group = GROUPS.get(name)
            if group is not None:
                calls[group] += 1
                self_s[group] += own
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        for group in ("conv.add", "conv.mult"):
            out[f"{group}.calls"] = calls[group]
            out[f"{group}.self_s"] = self_s[group]
        for group in ("mop.ctor", "mop.oracle", "curves.moments", "curves.continuation", "curves.disc"):
            out[f"{group}.self_s"] = self_s[group]
        for key in COUNT_KEYS:
            out[key] = self.sums[key]
        for key in MAX_KEYS:
            out[key] = self.maxima[key]
        return out

    def orderings(self):
        """The cost orderings the ROADMAP states, as measured in this pass.

        Returns a dict of ratios; a ratio is absent when the pass has no
        spans to compare.
        """
        own = self.self_times()
        by_size = defaultdict(list)
        for rec, t in zip(self.spans, own):
            if rec[4] is not None:
                by_size[(rec[0], rec[4])].append(t)
        out = {}
        add = {n for name, n in by_size if name == "conv.add_conv"}
        mult = {n for name, n in by_size if name == "conv.mult_conv"}
        if add & mult:
            n = max(add & mult)
            a, m = by_size[("conv.add_conv", n)], by_size[("conv.mult_conv", n)]
            out[f"conv.add/conv.mult per call at n={n}"] = (sum(a) / len(a)) / (sum(m) / len(m))
        degs = sorted(d for name, d in by_size if name == "curves.y_discriminant")
        if len(degs) >= 2:
            hi, lo = by_size[("curves.y_discriminant", degs[-1])], by_size[("curves.y_discriminant", degs[-2])]
            out[f"y_discriminant deg_y={degs[-1]} / deg_y={degs[-2]}"] = (sum(hi) / len(hi)) / (sum(lo) / len(lo))
        oracle_total, quad_inside = 0.0, 0.0
        for idx, rec in enumerate(self.spans):
            if GROUPS.get(rec[0]) != "mop.oracle":
                continue
            if not self._has_ancestor(idx, "mop.oracle"):
                oracle_total += rec[2] - rec[1]
        if oracle_total:
            for idx, rec in enumerate(self.spans):
                if rec[0].startswith("quadrature.") and self._has_ancestor(idx, "mop.oracle"):
                    quad_inside += own[idx]
            out["quadrature share of mop.oracle"] = quad_inside / oracle_total
        return out

    def _has_ancestor(self, idx, group):
        parent = self.spans[idx][3]
        while parent >= 0:
            if GROUPS.get(self.spans[parent][0]) == group:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "size"], "spans": self.spans}, fh)
