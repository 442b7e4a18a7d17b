"""Span recorder and the wrappers that attach it to hopfkit's layers.

Wrappers are installed only in a traced child (request ``"trace": true``);
nothing under ``src/`` knows about them.  Each wrapped call at a layer
boundary records a span ``(name, parent, start_ns, end_ns)`` in memory.
Fine-grained calls (``poly_gcd``, ``Presentation._step_at``,
``Weight.of_mono``, ``CheckReport.record``) are only counted, because a
span each would cost more than the work they do.

A layer's time is the sum of the durations of its outermost spans, so
recursion and nested calls inside one layer are counted once.  Self time
is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

_now = time.perf_counter_ns

# coiso and induce are measured as whole layers: every public function
# defined in them gets a span named "<module>.<function>".
_LAYER_MODULES = ("coiso", "induce")

# name -> (module, attribute path) of single entry points given spans;
# Presentation.mono_product also gets one, see Tracer.mono_product.
_SPANNED = {
    "ncalg.tensor_map": ("ncalg", "tensor_map"),
    "ncalg.Morphism.apply": ("ncalg", "Morphism.apply"),
    "ncalg.morphism_apply": ("ncalg", "morphism_apply"),
    "ncalg.linear_solve": ("ncalg", "linear_solve"),
    "hopf.verify_hopf": ("hopf", "verify_hopf"),
    "pairing.PairEngine.pair": ("pairing", "PairEngine.pair"),
    "pairing.PairEngine.act": ("pairing", "PairEngine.act"),
    "quasiinv.cocycle_check": ("quasiinv", "cocycle_check"),
    "quasiinv.quasi_invariance_check": ("quasiinv", "quasi_invariance_check"),
    "quasiinv.essential_invariance_decide":
        ("quasiinv", "essential_invariance_decide"),
    "parser.parse": ("parser", "parse"),
    "parser.print_element": ("parser", "print_element"),
}

# name -> (module, attribute path) of fine-grained calls that are counted.
_COUNTED = {
    "ncalg.rewrite_steps": ("ncalg", "Presentation._step_at"),
    "quasiinv.weight_calls": ("quasiinv", "Weight.of_mono"),
    "report.checks_recorded": ("report", "CheckReport.record"),
}

# metric -> (module, class, cache attribute): entries summed over every
# instance created while tracing, read when the workload ends.
_CACHES = {
    "ncalg.prod_cache_entries": ("ncalg", "Presentation", "_prod_cache"),
    "ncalg.morphism_cache_entries": ("ncalg", "Morphism", "_mono_cache"),
    "pairing.row_cache_entries": ("pairing", "PairEngine", "_row_cache"),
    "quasiinv.weight_cache_entries": ("quasiinv", "Weight", "_mono_cache"),
}

# time metric -> span names whose outermost occurrences it sums.
_INCLUSIVE = {
    "ncalg.tensor_map_s": ("ncalg.tensor_map",),
    "ncalg.morphism_apply_s": ("ncalg.Morphism.apply", "ncalg.morphism_apply"),
    "ncalg.linear_solve_s": ("ncalg.linear_solve",),
    "hopf.verify_hopf_s": ("hopf.verify_hopf",),
    "pairing.pair_s": ("pairing.PairEngine.pair", "pairing.PairEngine.act"),
    "quasiinv.cocycle_check_s": ("quasiinv.cocycle_check",),
    "quasiinv.quasi_invariance_check_s": ("quasiinv.quasi_invariance_check",),
    "quasiinv.essential_invariance_s": ("quasiinv.essential_invariance_decide",),
    "parser.parse_s": ("parser.parse",),
    "parser.print_s": ("parser.print_element",),
}


class Tracer:
    """In-memory spans and counters for one child process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # (name_id, parent_index, start_ns, end_ns)
        self._stack = []
        self.counts = {name: 0 for name in _COUNTED}
        self.mono_calls = 0
        self.mono_keys = set()
        self.gcd_calls = 0
        self.gcd_ns = 0
        self.gcd_monomial = 0
        self._gcd_depth = 0
        self.instances = {metric: [] for metric in _CACHES}
        self.layer_spans = {}  # metric -> span names, filled by install()

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ----------------------------------------------------------

    def span(self, name, fn):
        """Wrap fn so that each call records a span called name."""
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                spans[idx] = (nid, parent, t0, t1)
        return wrapper

    def mark(self):
        """Index of the next span, to restrict aggregation to a phase."""
        return len(self.spans)

    # -- counters -------------------------------------------------------

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def gcd(self, fn):
        """Count and time top-level poly_gcd calls (not its recursion)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            if tracer._gcd_depth:
                return fn(a, b)
            tracer._gcd_depth = 1
            t0 = _now()
            try:
                return fn(a, b)
            finally:
                tracer.gcd_ns += _now() - t0
                tracer._gcd_depth = 0
                tracer.gcd_calls += 1
                if len(b.terms) == 1:
                    tracer.gcd_monomial += 1
        return wrapper

    def mono_product(self, fn):
        spanned = self.span("ncalg.mono_product", fn)
        keys = self.mono_keys
        tracer = self

        @functools.wraps(fn)
        def wrapper(pres, m1, m2):
            tracer.mono_calls += 1
            keys.add((id(pres), m1, m2))
            return spanned(pres, m1, m2)
        return wrapper

    def registering(self, metric, init):
        """Wrap __init__ so every new instance is kept for a cache read."""
        registry = self.instances[metric]

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)
        return wrapper

    def reset_counters(self):
        """Start the workload phase: counters restart, spans are kept."""
        for name in self.counts:
            self.counts[name] = 0
        self.mono_calls = 0
        self.mono_keys.clear()
        self.gcd_calls = self.gcd_ns = self.gcd_monomial = 0

    # -- aggregation ----------------------------------------------------

    def layer_metrics(self, first_span):
        """Per-layer metrics over the spans recorded from first_span on."""
        spans = self.spans
        groups = dict(_INCLUSIVE)
        groups.update(self.layer_spans)
        metrics = list(groups)
        bit_of_name = [0] * len(self.names)
        for k, metric in enumerate(metrics):
            for name in groups[metric]:
                if name in self._ids:
                    bit_of_name[self._ids[name]] |= 1 << k
        totals = [0] * len(metrics)
        mono_id = self._ids.get("ncalg.mono_product")
        pair_ids = {self._ids.get(name) for name in _INCLUSIVE["pairing.pair_s"]}
        mono_total = 0
        child_ns = [0] * len(spans)
        ancestors = [0] * len(spans)  # group bits held by some ancestor
        for idx, (nid, parent, t0, t1) in enumerate(spans):
            dur = t1 - t0
            if parent >= 0:
                child_ns[parent] += dur
                ancestors[idx] = ancestors[parent] | bit_of_name[spans[parent][0]]
            if idx < first_span:
                continue
            outer = bit_of_name[nid] & ~ancestors[idx]
            k = 0
            while outer:
                if outer & 1:
                    totals[k] += dur
                outer >>= 1
                k += 1
        if mono_id is not None:
            for idx in range(first_span, len(spans)):
                nid, _, t0, t1 = spans[idx]
                if nid == mono_id:
                    mono_total += (t1 - t0) - child_ns[idx]
        out = {metric: totals[k] / 1e9 for k, metric in enumerate(metrics)}
        calls = self.mono_calls
        out.update({
            "scalars.gcd_calls": self.gcd_calls,
            "scalars.gcd_s": self.gcd_ns / 1e9,
            "scalars.gcd_monomial_share":
                self.gcd_monomial / self.gcd_calls if self.gcd_calls else 0.0,
            "ncalg.mono_product_calls": calls,
            "ncalg.mono_product_distinct": len(self.mono_keys),
            "ncalg.product_hit_ratio":
                1 - len(self.mono_keys) / calls if calls else 0.0,
            "ncalg.mono_product_self_s": mono_total / 1e9,
            "pairing.pair_calls": sum(
                1 for idx in range(first_span, len(spans))
                if spans[idx][0] in pair_ids),
        })
        out.update(self.counts)
        for metric, (_, _, attr) in _CACHES.items():
            out[metric] = sum(len(getattr(obj, attr, ()))
                              for obj in self.instances[metric])
        return out

    def write(self, path):
        """Write every span as gzip-compressed columnar JSON."""
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), ()]
        payload = {"names": self.names, "name": cols[0], "parent": cols[1],
                   "start_ns": cols[2], "end_ns": cols[3]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _resolve(module, dotted):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _replace_everywhere(modules, old, new):
    """Point every module-level reference to old at new (from-imports too)."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install(tracer, hopfkit):
    """Attach tracer to the imported hopfkit package.  Returns tracer."""
    names = ("scalars", "ncalg", "hopf", "pairing", "coiso", "quasiinv",
             "induce", "parser", "report", "cli")
    mods = {n: importlib.import_module(f"{hopfkit.__name__}.{n}") for n in names}
    every = [hopfkit] + list(mods.values())

    def patch(mod_name, dotted, make):
        owner, attr = _resolve(mods[mod_name], dotted)
        old = getattr(owner, attr)
        new = make(old)
        if inspect.isclass(owner):
            setattr(owner, attr, new)
        else:
            _replace_everywhere(every, old, new)

    patch("scalars", "poly_gcd", tracer.gcd)
    patch("ncalg", "Presentation.mono_product", tracer.mono_product)
    for name, (mod, dotted) in _SPANNED.items():
        patch(mod, dotted, functools.partial(tracer.span, name))
    for name, (mod, dotted) in _COUNTED.items():
        patch(mod, dotted, functools.partial(tracer.counted, name))
    for metric, (mod, cls, _) in _CACHES.items():
        patch(mod, f"{cls}.__init__",
              functools.partial(tracer.registering, metric))

    for layer in _LAYER_MODULES:
        mod = mods[layer]
        spans = []
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            span_name = f"{layer}.{attr}"
            _replace_everywhere(every, fn, tracer.span(span_name, fn))
            spans.append(span_name)
        tracer.layer_spans[f"{layer}.s"] = tuple(spans)

    suites = mods["cli"].SUITES
    for suite, fn in list(suites.items()):
        span_name = f"cli.suite.{suite}"
        suites[suite] = tracer.span(span_name, fn)
        tracer.layer_spans[f"cli.suite.{suite}_s"] = (span_name,)
    return tracer
