"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces, in every loaded ``cotail`` module, each binding
of a traced function with a timing wrapper, so calls are caught where the
program makes them (``cotail.estimators.order_view``,
``cotail.simulate.sample_dataset``, ...). ``restore()`` puts every original
back. A target that no longer exists is listed in ``missing`` and the metrics
that depend only on it are left out instead of failing the run.

Each wrapper keeps a stack of open spans. A layer's time is self time: the
span's duration minus the part covered by spans of other layers. Nested calls
within one layer count once in ``calls``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter

LAYER_MODULES = (
    "cotail.rng",
    "cotail.simulate",
    "cotail.core",
    "cotail.tail_index",
    "cotail.estimators",
    "cotail.tail_function",
    "cotail.cli",
)

# (layer, module, attribute); "*" takes every public function defined in the
# module. The layer name is the metric prefix.
TARGETS = (
    ("rng", "cotail.rng", "*"),
    ("rng", "cotail.rng", "_gamma_at_least_one"),
    ("simulate.sample", "cotail.simulate", "sample_dataset"),
    ("simulate.mc", "cotail.simulate", "run_mc"),
    ("core.sample_init", "cotail.core", "BivariateSample.__post_init__"),
    ("core.order_view", "cotail.core", "order_view"),
    ("tail_index.hill", "cotail.tail_index", "hill_estimate"),
    ("estimators", "cotail.estimators", "*"),
    ("estimators.fsum", "cotail.estimators", "math.fsum"),
    ("tail_function", "cotail.tail_function", "*"),
    ("cli", "cotail.cli", "main"),
    ("cli.read", "cotail.cli", "_read_text"),
    ("cli.parse", "cotail.cli", "ingest_text"),
    ("cli.emit", "cotail.cli", "_emit"),
    ("cli.emit", "cotail.cli", "_sample_payload"),
    ("cli.write", "cotail.cli", "_write_text"),
)

# per-layer metric -> (unit, counter it reads)
METRICS = {
    "rng.s": ("s", "rng.s"),
    "rng.calls": ("count", "rng.calls"),
    "rng.gamma.accept_ratio": ("ratio", None),
    "simulate.sample.s": ("s", "simulate.sample.s"),
    "simulate.sample.calls": ("count", "simulate.sample.calls"),
    "simulate.sample.pairs": ("count", "simulate.sample.pairs"),
    "simulate.mc_self.s": ("s", "simulate.mc.s"),
    "simulate.mc.failures": ("count", "simulate.mc.failures"),
    "core.sample_init.s": ("s", "core.sample_init.s"),
    "core.sample_init.calls": ("count", "core.sample_init.calls"),
    "core.order_view.s": ("s", "core.order_view.s"),
    "core.order_view.calls": ("count", "core.order_view.calls"),
    "core.order_view.elems": ("count", "core.order_view.elems"),
    "tail_index.hill.s": ("s", "tail_index.hill.s"),
    "tail_index.hill.calls": ("count", "tail_index.hill.calls"),
    "estimators.self.s": ("s", "estimators.s"),
    "estimators.calls": ("count", "estimators.calls"),
    "estimators.fsum.s": ("s", "estimators.fsum.s"),
    "estimators.fsum.calls": ("count", "estimators.fsum.calls"),
    "tail_function.s": ("s", "tail_function.s"),
    "tail_function.calls": ("count", "tail_function.calls"),
    "cli.self.s": ("s", "cli.s"),
    "cli.read.s": ("s", "cli.read.s"),
    "cli.parse.s": ("s", "cli.parse.s"),
    "cli.parse.rows": ("count", "cli.parse.rows"),
    "cli.emit.s": ("s", "cli.emit.s"),
    "cli.write.s": ("s", "cli.write.s"),
    "cli.write.bytes": ("bytes", "cli.write.bytes"),
}


@dataclass
class _Span:
    layer: str
    name: str
    child: float = 0.0


@dataclass
class _Stat:
    s: float = 0.0
    calls: int = 0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


class Tracer:
    def __init__(self):
        self.stack: list[_Span] = []
        self.stats: dict[str, _Stat] = {}
        self.attached: set[tuple[str, str]] = set()
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        stats = self.stats.setdefault(layer, _Stat())
        stack = self.stack
        keys, hook = self._hook(layer, name)
        for key in keys:
            stats.extra.setdefault(key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal hook
            parent = stack[-1] if stack else None
            span = _Span(layer, name)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats.s += elapsed - span.child
                if parent is not None:
                    parent.child += elapsed
            nested = parent is not None and parent.layer == layer
            if not nested:
                stats.calls += 1
            if hook is not None:
                try:
                    hook(stats, parent, nested, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the call no longer has the shape this counter reads:
                    # drop the counter rather than report a wrong value
                    self.missing.append(f"{layer}.{'/'.join(keys)} counter of {name}")
                    for key in keys:
                        stats.extra.pop(key, None)
                    hook = None
            return result

        return traced

    @staticmethod
    def _hook(layer: str, name: str):
        """Extra counters of one traced function: (counter keys, update)."""
        if layer == "rng" and name == "_gamma_at_least_one":
            return ("gamma.accepted",), (
                lambda st, parent, nested, a, kw, r: st.add("gamma.accepted", len(r)))
        if layer == "rng" and name == "standard_normal":
            def candidates(st, parent, nested, a, kw, r):
                if parent is not None and parent.name == "_gamma_at_least_one":
                    st.add("gamma.candidates", len(r))
            return ("gamma.candidates",), candidates
        if layer == "simulate.sample":
            return ("pairs",), lambda st, parent, nested, a, kw, r: st.add("pairs", r.n)
        if layer == "simulate.mc":
            return ("failures",), lambda st, parent, nested, a, kw, r: st.add(
                "failures", sum(c.failures for c in r.cells.values()))
        if layer == "core.order_view":
            return ("elems",), lambda st, parent, nested, a, kw, r: st.add(
                "elems", int(r.x_sorted.size))
        if layer == "cli.parse":
            def rows(st, parent, nested, a, kw, r):
                transform = a[1] if len(a) > 1 else kw.get("transform", "none")
                st.add("rows", r.n + (transform.replace("_", "-") == "abs-log-returns"))
            return ("rows",), rows
        if layer == "cli.write":
            def written(st, parent, nested, a, kw, r):
                text = a[1]
                st.add("bytes", len(text) if text.isascii() else len(text.encode("utf-8")))
            return ("bytes",), written
        return (), None

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "cotail" or mod_name.startswith("cotail.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        modules = {}
        for name in LAYER_MODULES:
            try:
                modules[name] = importlib.import_module(name)
            except ModuleNotFoundError:
                self.missing.append(name)
        for layer, mod_name, attr in TARGETS:
            module = modules.get(mod_name)
            if module is None:
                continue
            if attr == "*":
                names = [
                    n for n, v in vars(module).items()
                    if inspect.isfunction(v) and v.__module__ == mod_name
                    and not n.startswith("_")
                ]
            else:
                names = [attr]
            for name in names:
                self._install_one(layer, module, mod_name, name)
        return self

    def _install_one(self, layer, module, mod_name, attr) -> None:
        owner_name, _, leaf = attr.rpartition(".")
        owner = module
        for part in filter(None, owner_name.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            self.missing.append(f"{mod_name}.{attr}")
            return
        wrapper = self._wrap(original, layer, leaf)
        if owner_name == "math":
            # a private copy of math for this module only, so other callers
            # of math.fsum stay untraced
            proxy = types.ModuleType("math")
            proxy.__dict__.update(vars(math))
            setattr(proxy, leaf, wrapper)
            self._undo.append((module, "math", module.math))
            module.math = proxy
        elif owner_name:
            self._undo.append((owner, leaf, owner.__dict__[leaf]))
            setattr(owner, leaf, wrapper)
        else:
            self._replace_everywhere(original, wrapper)
        self.attached.add((mod_name, attr))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def counters(self) -> dict:
        """Raw, summable counters: ``<layer>.s``, ``<layer>.calls`` and extras."""
        out = {}
        for layer, st in self.stats.items():
            out[f"{layer}.s"] = st.s
            out[f"{layer}.calls"] = st.calls
            for key, value in st.extra.items():
                out[f"{layer}.{key}"] = value
        return out


def add_counters(total: dict, part: dict) -> dict:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


def metrics_from_counters(counters: dict) -> dict:
    """The per-layer metrics whose counters exist.

    A layer whose bindings attached but saw no work reports 0; a counter whose
    binding is gone is absent, and the tracer lists it in ``missing``.
    """
    out = {}
    for name, (unit, source) in METRICS.items():
        if name == "rng.gamma.accept_ratio":
            accepted = counters.get("rng.gamma.accepted")
            candidates = counters.get("rng.gamma.candidates")
            if accepted is None or candidates is None:
                continue
            # 0 when no gamma variate was drawn
            value = accepted / candidates if candidates else 0.0
        elif source in counters:
            value = counters[source]
        else:
            continue
        out[name] = {"value": value, "unit": unit}
    return out
