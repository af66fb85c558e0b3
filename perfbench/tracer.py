"""Layer tracing from outside the program.

The tracer replaces public functions and methods of the mystica modules with
timing wrappers while a traced pass runs, and puts every original object back
when it ends.  A module-level function is patched in every ``mystica.*``
namespace that holds it (``from .linalg import sparse_rank`` re-binds the
name in the importing module), so calls through any of those names are seen.

Each wrapped callable keeps an aggregate: calls, cumulative time and self time
(its duration minus the time of the wrapped calls made inside it).  Calls into
the hot leaf layers (``cyclo``, ``monomial``), into operator dunders and into
a few hot methods are aggregated only; every other call is also kept as a span (id, parent, name,
start, end, self time) in memory, for the caller to write out when the pass
ends.

Counters that need arguments or results (entries fed to the modular
certificate, degrees visited by the saturation search, ...) are computed by
small hooks attached to single functions.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
from functools import _lru_cache_wrapper
from time import perf_counter

LAYERS = ("cyclo", "monomial", "groups", "qpoly", "groupalg", "mystic", "classify", "linalg", "verify", "cli")

# layers whose every call is aggregated instead of recorded as a span
LEAF_LAYERS = {"cyclo", "monomial"}

# arithmetic and comparison dunders that are wrapped on every class
DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__",
)

# private callables wrapped in addition to the public ones
EXTRA = {
    "groups": ("IndexedGroup.__init__",),
    "classify": ("_MultTable.__init__",),
    "qpoly": ("_integer_sum_matrix",),
    "linalg": ("_modq_rank",),
}

# hot methods outside the leaf layers: aggregated, no span per call
HOT = {
    "groups.IndexedGroup.mul",
    "groups.IndexedGroup.class_of",
    "groups.FiniteMonomialGroup.element_set",
    "linalg.SparseMatrix.add",
    "qpoly.phi_eval",
    "qpoly.phi_w_eval",
    "qpoly.qform_bracket",
    "qpoly.slice_monomials",
    "groupalg.GroupAlgebraElement.items",
}


def _is_plain_callable(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, _lru_cache_wrapper)


def _mystica_namespaces():
    return [m for name, m in sorted(sys.modules.items()) if name == "mystica" or name.startswith("mystica.")]


class Tracer:
    """Install with ``with Tracer() as tr:``; read the results after exit."""

    def __init__(self):
        self.aggregates: dict[str, list] = {}  # name -> [calls, cumulative s, self s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self)
        self._stack: list[list] = [[perf_counter(), 0.0, 0, "bench"]]  # [start, child time, span id, name]
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._next_id = itertools.count(1).__next__

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"mystica.{layer}") for layer in LAYERS}
        namespaces = _mystica_namespaces()
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif _is_plain_callable(obj) and not attr.startswith("_"):
                    self._wrap_function(layer, obj, namespaces)
            for dotted in EXTRA.get(layer, ()):
                head, _, method = dotted.partition(".")
                if method:
                    self._wrap_method(layer, getattr(mod, head), method)
                else:
                    self._wrap_function(layer, getattr(mod, head), namespaces)
        self._stack[:] = [[perf_counter(), 0.0, 0, "bench"]]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_function(self, layer: str, fn, namespaces) -> None:
        key = f"{layer}.{fn.__name__}"
        wrapper = self._wrapper(fn, key, layer)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in sorted(vars(cls).items()):
            if attr in DUNDERS or (not attr.startswith("_") and not isinstance(raw, property)):
                self._wrap_method(layer, cls, attr)

    def _wrap_method(self, layer: str, cls, attr: str) -> None:
        raw = vars(cls)[attr]
        key = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrapper(raw.__func__, key, layer))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, key, layer))
        elif inspect.isfunction(raw):
            wrapped = self._wrapper(raw, key, layer)
        else:
            return
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    # -- the wrapper ---------------------------------------------------------

    def _wrapper(self, fn, key: str, layer: str):
        agg = self.aggregates.setdefault(key, [0, 0.0, 0.0])
        frames = self._stack
        spans = self.spans
        next_id = self._next_id
        attr = key.rsplit(".", 1)[1]
        is_dunder = attr.startswith("__") and attr != "__init__"
        is_span = layer not in LEAF_LAYERS and key not in HOT and not is_dunder
        hook = HOOKS.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = frames[-1]
            span_id = next_id() if is_span else 0
            token = hook.before(tracer, args, kwargs) if hook else None
            frame = [perf_counter(), 0.0, span_id, key]
            frames.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - frame[0]
                own = duration - frame[1]
                parent[1] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += own
                if is_span:
                    spans.append((span_id, parent[2], key, frame[0], end, own))
                if hook:
                    hook.after(tracer, args, kwargs, result, token)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def active(self, key: str) -> bool:
        return any(frame[3] == key for frame in self._stack)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates and counters, in a form that merges across processes."""
        return {
            "aggregates": {k: v for k, v in self.aggregates.items() if v[0]},
            "counters": dict(self.counters),
        }


def merge_summaries(summaries) -> dict:
    aggregates: dict[str, list] = {}
    counters: dict[str, float] = {}
    for s in summaries:
        for key, (calls, cum, own) in s["aggregates"].items():
            cur = aggregates.setdefault(key, [0, 0.0, 0.0])
            cur[0] += calls
            cur[1] += cum
            cur[2] += own
        for key, value in s["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"aggregates": aggregates, "counters": counters}


# -- counters that need arguments or results ----------------------------------


class _Hook:
    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, args, kwargs, result, token) -> None:
        pass


class _Certificate(_Hook):
    """Successes, and row entries mapped into F_q (the conversion volume)."""

    def after(self, tracer, args, kwargs, result, token):
        rows, target = args[0], args[1]
        if isinstance(rows, list) and len(rows) == target:
            tracer.count("linalg.entries_converted", sum(len(r) for r in rows))
        if result is True:
            tracer.count("linalg.certificate_successes")


class _SparseRank(_Hook):
    """Exact eliminations run by the saturation search after an inconclusive
    certificate."""

    def after(self, tracer, args, kwargs, result, token):
        if tracer.active("mystic.faithfulness_saturation_degree"):
            tracer.count("linalg.exact_fallbacks")


class _Saturation(_Hook):
    def after(self, tracer, args, kwargs, result, token):
        if result is not None:
            degree = result[0]
            max_degree = args[2] if len(args) > 2 else kwargs["max_degree"]
            tracer.count("mystic.saturation_degrees", (degree if degree is not None else max_degree) + 1)


class _EquivCheck(_Hook):
    def after(self, tracer, args, kwargs, result, token):
        if result is not None:
            tracer.count("mystic.equiv_slices", len(result.per_degree))


class _OperatorMatrix(_Hook):
    def after(self, tracer, args, kwargs, result, token):
        if result is not None:
            tracer.count("qpoly.slice_entries", len(result.entries))


class _Isomorphic(_Hook):
    """A pair is settled by its fingerprint when the call compared
    fingerprints and never built the multiplication tables of the search."""

    def before(self, tracer, args, kwargs):
        return (
            tracer.aggregates["classify.fingerprint"][0],
            tracer.aggregates["classify._MultTable.__init__"][0],
        )

    def after(self, tracer, args, kwargs, result, token):
        fingerprints = tracer.aggregates["classify.fingerprint"][0] - token[0]
        tables = tracer.aggregates["classify._MultTable.__init__"][0] - token[1]
        if fingerprints and not tables:
            tracer.count("classify.fingerprint_decided")


HOOKS = {
    "linalg.modular_full_rank_certificate": _Certificate(),
    "linalg.sparse_rank": _SparseRank(),
    "mystic.faithfulness_saturation_degree": _Saturation(),
    "mystic.mystic_equiv_check": _EquivCheck(),
    "qpoly.operator_matrix": _OperatorMatrix(),
    "classify.isomorphic": _Isomorphic(),
}
