"""Span tracer installed from outside on volcount's layers.

Tracer.install wraps every public function of each layer module, and every
public method of the layer's public classes, in a span recorder.  The
modules bind each other's functions with `from .x import f`, so a function
is replaced at every module binding that holds it (for example both
volcount.exact_arith.is_prime and volcount.form_families.is_prime), and
recursion through a module global (hall_count) passes through the wrapper
on every level.  Generator functions are left alone: a span around one
would time only the creation of the generator.

A span is (name id, start, end, parent span index or -1, op id).  Spans stay
in memory until the run ends; layer_metrics turns them into per-layer self
times, where a span's self time is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "exact_arith",
    "local_invariants",
    "form_families",
    "free_groups",
    "decorated_graphs",
    "assembler",
    "acceptance",
    "cli",
)

# Work counters recorded at the same boundaries as the spans.
HOOKS = {
    "exact_arith.is_prime": lambda t, args, r: t.prime_arguments.add(args[0]),
    "form_families.noncommensurability_certificate": lambda t, args, r: t.count(
        "form_families.certified", r is not None
    ),
    "free_groups.enumerate_subgroups": lambda t, args, r: t.count(
        "free_groups.enumerate.tables", len(r)
    ),
    "free_groups.distinguishing_word": lambda t, args, r: t.count(
        "free_groups.distinguish.letters", 0 if r is None else len(r)
    ),
    "decorated_graphs.has_common_decorated_cover": lambda t, args, r: t.count(
        "decorated_graphs.cover.hits", r.has_cover
    ),
    "decorated_graphs.fiber_product": lambda t, args, r: (
        t.count("decorated_graphs.fiber_product.vertices", r.product.vertex_count),
        t.count("decorated_graphs.fiber_product.components", len(r.components)),
    ),
    "assembler.descriptor_to_json": lambda t, args, r: t.count("assembler.json_bytes", len(r)),
    "assembler.emit_descriptors": lambda t, args, r: t.count("assembler.files_written", r),
}

# Spans named after an argument rather than the function.
NAMERS = {
    "acceptance.run_criterion": lambda args: f"acceptance.criterion_{args[0]}",
}


class Tracer:
    """Spans and work counters of one pass, recorded by wrappers it installs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self.prime_arguments: set = set()
        self.op = -1
        self.recording = True
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list = []

    def count(self, name: str, amount) -> None:
        self.counters[name] += amount

    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, name: str, function, hook=None, namer=None):
        """A callable that runs `function` inside a span named `name`."""
        spans, stack, clock = self.spans, self._stack, self.clock
        fixed = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                name_id = fixed if namer is None else self.name_id(namer(args))
                spans[index] = (name_id, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def install(self, package: str, layers=LAYERS, hooks=HOOKS, namers=NAMERS) -> int:
        """Wrap the layers' public callables at every binding inside `package`.

        Returns the number of callables wrapped.
        """
        wrappers = {}
        methods = 0
        for layer in layers:
            module = importlib.import_module(f"{package}.{layer}")
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                qualified = f"{layer}.{name}"
                if isinstance(value, type):
                    for method_name, method in list(vars(value).items()):
                        if method_name.startswith("_") or not inspect.isfunction(method):
                            continue
                        if inspect.isgeneratorfunction(method):
                            continue
                        method_qualified = f"{qualified}.{method_name}"
                        self._patch(value, method_name, self.wrap(
                            method_qualified, method,
                            hooks.get(method_qualified), namers.get(method_qualified),
                        ))
                        methods += 1
                elif callable(value) and not inspect.isgeneratorfunction(value):
                    wrappers[id(value)] = (value, self.wrap(
                        qualified, value, hooks.get(qualified), namers.get(qualified)
                    ))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == package or module_name.startswith(package + ".")):
                continue
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, entry[1])
        return len(wrappers) + methods

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name\tstart_s\tend_s\tparent\top\n")
            for name_id, start, end, parent, op in self.spans:
                handle.write(
                    f"{self.names[name_id]}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{op}\n"
                )


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans of one thread never overlap their siblings, so the covered time is
    the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


# Per-layer scopes: the layer's self time inside the named spans, nested
# spans of the same layer included, other scopes' spans excluded (a span
# belongs to its nearest enclosing scope).
SCOPES = {
    "form_families.prime_search": (
        "form_families.search_primes_isotropic",
        "form_families.search_primes_anisotropic",
    ),
    "free_groups.enumerate": ("free_groups.enumerate_subgroups",),
    "free_groups.hall_count": ("free_groups.hall_count",),
    "free_groups.distinguish": ("free_groups.distinguishing_word",),
    "decorated_graphs.fiber_product": ("decorated_graphs.fiber_product",),
    "decorated_graphs.is_isomorphic": ("decorated_graphs.is_isomorphic",),
    "assembler.assemble": ("assembler.assemble",),
    "assembler.to_json": ("assembler.descriptor_to_json",),
    "assembler.emit": ("assembler.emit_descriptors",),
    "assembler.from_json": ("assembler.descriptor_from_json",),
    "assembler.trace_word": ("assembler.trace_word",),
    "assembler.verdict": ("assembler.commensurability_verdict",),
}

# Entry points of one Hilbert symbol evaluation; a call counts once even when
# one entry point dispatches to another.
HILBERT = frozenset({
    "local_invariants.hilbert",
    "local_invariants.hilbert_real",
    "local_invariants.hilbert_dyadic",
    "local_invariants.hilbert_odd_p",
    "local_invariants.hilbert_odd_from_parts",
})

CRITERIA = range(1, 10)

# Every per-layer metric: (unit, which direction is better).  The trace.*
# entries describe the tracer itself and are filled in by run.py.
PER_LAYER = {
    "exact_arith.self_s": ("s", "lower"),
    "exact_arith.is_prime.calls": ("count", "lower"),
    "exact_arith.is_prime.distinct_ratio": ("ratio", "higher"),
    "exact_arith.factor_int.calls": ("count", "lower"),
    "local_invariants.self_s": ("s", "lower"),
    "local_invariants.hilbert.calls": ("count", "lower"),
    "form_families.self_s": ("s", "lower"),
    "form_families.certificate.calls": ("count", "lower"),
    "form_families.certified_ratio": ("ratio", "higher"),
    "form_families.prime_search.self_s": ("s", "lower"),
    "free_groups.enumerate.self_s": ("s", "lower"),
    "free_groups.enumerate.tables": ("count", "lower"),
    "free_groups.hall_count.self_s": ("s", "lower"),
    "free_groups.distinguish.self_s": ("s", "lower"),
    "free_groups.distinguish.letters": ("count", "lower"),
    "decorated_graphs.self_s": ("s", "lower"),
    "decorated_graphs.cover.calls": ("count", "lower"),
    "decorated_graphs.cover.hit_ratio": ("ratio", "higher"),
    "decorated_graphs.fiber_product.self_s": ("s", "lower"),
    "decorated_graphs.fiber_product.vertices": ("count", "lower"),
    "decorated_graphs.fiber_product.components": ("count", "lower"),
    "decorated_graphs.is_isomorphic.self_s": ("s", "lower"),
    "assembler.assemble.self_s": ("s", "lower"),
    "assembler.to_json.self_s": ("s", "lower"),
    "assembler.json_bytes": ("B", "lower"),
    "assembler.emit.self_s": ("s", "lower"),
    "assembler.files_written": ("count", "higher"),
    "assembler.from_json.self_s": ("s", "lower"),
    "assembler.trace_word.self_s": ("s", "lower"),
    "assembler.verdict.self_s": ("s", "lower"),
    **{f"acceptance.criterion_{number}_s": ("s", "lower") for number in CRITERIA},
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(names, spans, counters, prime_arguments) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    Metrics of layers the pass never entered read 0, ratios with no attempts
    included.
    """
    counters = Counter(counters)
    own = self_times(spans)
    span_names = [names[name_id] for name_id, *_ in spans]
    scope_of_name = {span: scope for scope, members in SCOPES.items() for span in members}
    scope: list[str | None] = []
    layer_self: Counter = Counter()
    scope_self: Counter = Counter()
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    hilbert_calls = 0
    for i, (_, start, end, parent, _) in enumerate(spans):
        name = span_names[i]
        enclosing = scope_of_name.get(name) or (scope[parent] if parent >= 0 else None)
        scope.append(enclosing)
        layer = _layer(name)
        layer_self[layer] += own[i]
        if enclosing is not None and _layer(enclosing) == layer:
            scope_self[enclosing] += own[i]
        calls[name] += 1
        inclusive[name] += end - start
        if name in HILBERT and (parent < 0 or span_names[parent] not in HILBERT):
            hilbert_calls += 1

    prime_calls = calls["exact_arith.is_prime"]
    certificates = calls["form_families.noncommensurability_certificate"]
    covers = calls["decorated_graphs.has_common_decorated_cover"]
    metrics = {
        "exact_arith.self_s": layer_self["exact_arith"],
        "exact_arith.is_prime.calls": prime_calls,
        "exact_arith.is_prime.distinct_ratio": _ratio(len(prime_arguments), prime_calls),
        "exact_arith.factor_int.calls": calls["exact_arith.factor_int"],
        "local_invariants.self_s": layer_self["local_invariants"],
        "local_invariants.hilbert.calls": hilbert_calls,
        "form_families.self_s": layer_self["form_families"],
        "form_families.certificate.calls": certificates,
        "form_families.certified_ratio": _ratio(counters["form_families.certified"], certificates),
        "form_families.prime_search.self_s": scope_self["form_families.prime_search"],
        "free_groups.enumerate.self_s": scope_self["free_groups.enumerate"],
        "free_groups.enumerate.tables": counters["free_groups.enumerate.tables"],
        "free_groups.hall_count.self_s": scope_self["free_groups.hall_count"],
        "free_groups.distinguish.self_s": scope_self["free_groups.distinguish"],
        "free_groups.distinguish.letters": counters["free_groups.distinguish.letters"],
        "decorated_graphs.self_s": layer_self["decorated_graphs"],
        "decorated_graphs.cover.calls": covers,
        "decorated_graphs.cover.hit_ratio": _ratio(counters["decorated_graphs.cover.hits"], covers),
        "decorated_graphs.fiber_product.self_s": scope_self["decorated_graphs.fiber_product"],
        "decorated_graphs.fiber_product.vertices": counters["decorated_graphs.fiber_product.vertices"],
        "decorated_graphs.fiber_product.components": counters["decorated_graphs.fiber_product.components"],
        "decorated_graphs.is_isomorphic.self_s": scope_self["decorated_graphs.is_isomorphic"],
        "assembler.assemble.self_s": scope_self["assembler.assemble"],
        "assembler.to_json.self_s": scope_self["assembler.to_json"],
        "assembler.json_bytes": counters["assembler.json_bytes"],
        "assembler.emit.self_s": scope_self["assembler.emit"],
        "assembler.files_written": counters["assembler.files_written"],
        "assembler.from_json.self_s": scope_self["assembler.from_json"],
        "assembler.trace_word.self_s": scope_self["assembler.trace_word"],
        "assembler.verdict.self_s": scope_self["assembler.verdict"],
    }
    for number in CRITERIA:
        metrics[f"acceptance.criterion_{number}_s"] = inclusive[f"acceptance.criterion_{number}"]
    metrics["cli.self_s"] = layer_self["cli"]
    return metrics
