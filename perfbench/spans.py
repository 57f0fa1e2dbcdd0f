"""In-memory spans around calls into the package's public functions.

Tracing is installed only for the traced operations of a ``--trace 1`` run.
``Tracer.install`` replaces every public module-level function of each layer
module with a timing wrapper, in every namespace that holds it: the defining
module, the modules that imported it by name (for example ``cli.acf``), and
the package root. Calls therefore get a span whichever way the caller reached
the function, and nothing under ``src/`` changes. Private helpers (such as the
objective evaluations inside ``optimize``) get no span.

A span is ``[name, start, end, parent, op, key]``: ``parent`` is the index of
the enclosing span or None, ``op`` the operation it belongs to, and ``key``
the (K, n_samples) synthesis basis the call uses, where there is one.
"""

import functools
import inspect
import statistics
import sys
import time

# Layer modules in the order of the pipeline. ``estimators`` exports only
# classes, so it contributes no spans.
LAYERS = ("codes", "waveform", "mtsfm", "metrics", "optimizer", "estimators", "cli")

# Per-layer time metrics: each sums, per operation, the spans of the listed
# functions that are not nested inside another span of the same list.
TIME_GROUPS = {
    "codes.generate_s": ("codes.generate_msequence",),
    "waveform.synthesize_pc_s": ("waveform.synthesize_pc",),
    "mtsfm.fit_s": ("mtsfm.fit_fourier",),
    "mtsfm.synthesize_s": ("mtsfm.synthesize_mtsfm",),
    "metrics.spectrum_s": ("metrics.spectrum",),
    "metrics.acf_s": ("metrics.acf",),
    "metrics.sidelobe_s": ("metrics.psl", "metrics.isr", "metrics.gisr",
                           "metrics.mainlobe_area"),
    "metrics.compact_s": ("metrics.spectral_compactness",
                          "metrics.rms_bandwidth_spectral"),
    "metrics.ambiguity_s": ("metrics.ambiguity",),
    "metrics.csv_s": ("metrics.spectrum_csv", "metrics.acf_csv"),
    "optimizer.optimize_s": ("optimizer.optimize",),
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:  # cli has no __all__: every non-underscore function
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


def _basis_key(name, args, kwargs):
    """(K, n_samples) of the harmonic basis a call synthesizes with, or None."""
    if name == "mtsfm.synthesize_mtsfm":
        params = args[0] if args else kwargs["params"]
        n = args[1] if len(args) > 1 else kwargs["n_samples"]
        return (params.K, int(n))
    if name in ("optimizer.optimize", "optimizer.objective", "optimizer.gradient"):
        params = args[0] if args else kwargs.get("initial", kwargs.get("params"))
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        return (params.K, cfg.resolve_n_samples(params.K))
    return None


class Tracer:
    """Records spans while installed; ``op`` labels the spans that follow."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []
        self._wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in _public_functions(module):
                self._wrappers[fn] = self._wrap(f"{layer}.{name}", fn)

    def _wrap(self, span_name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = _basis_key(span_name, args, kwargs)
            idx = len(spans)
            spans.append([span_name, clock(), None, stack[-1] if stack else None,
                          self.op, key])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def install(self):
        namespaces = [self.package] + [sys.modules[f"{self.package.__name__}.{layer}"]
                                       for layer in LAYERS]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
                    self._patches.append((ns, attr, value))

    def uninstall(self):
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def op_spans(self, op):
        return [i for i, s in enumerate(self.spans) if s[4] == op]

    def to_records(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4], "key": list(s[5]) if s[5] else None}
                for s in self.spans]


def _outermost_sum(spans, indices, names):
    """Total duration of spans named in ``names`` with no ancestor also named."""
    total = 0.0
    for i in indices:
        name, start, end, parent = spans[i][:4]
        if name not in names:
            continue
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent is None:
            total += end - start
    return total


def _layer_self_time(spans, indices, layer):
    """Time inside the outermost spans of one layer, minus the spans of other
    layers that they call directly."""
    def in_layer(i):
        return i is not None and spans[i][0].startswith(layer + ".")
    total = 0.0
    for i in indices:
        name, start, end, parent = spans[i][:4]
        if in_layer(i) and not in_layer(parent):
            total += end - start
        elif not in_layer(i) and in_layer(parent):
            total -= end - start
    return total


def op_layer_metrics(tracer, op):
    """Per-layer values of one traced operation."""
    spans = tracer.spans
    idx = tracer.op_spans(op)
    out = {name: _outermost_sum(spans, idx, set(group))
           for name, group in TIME_GROUPS.items()}
    out["mtsfm.synthesize_calls"] = sum(
        1 for i in idx if spans[i][0] == "mtsfm.synthesize_mtsfm")
    out["mtsfm.basis_sizes"] = len({spans[i][5] for i in idx if spans[i][5]})
    out["cli.self_s"] = _layer_self_time(spans, idx, "cli")
    return out


def median_per_op(per_op):
    """Median over operations of each per-operation metric."""
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
