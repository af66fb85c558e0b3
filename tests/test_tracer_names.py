"""The names perfbench calls by name must exist in mystica.

The layer tracer behind `perfbench/run.py --trace 1` wraps a few private
callables by name (EXTRA) and attaches counter hooks to others (HOOKS), and
the group-structure and identity-suites workloads call `mystica.verify`
functions by name.  A rename or deletion of one of them in src breaks the
benchmark; these tests fail first.  The traced operator-rank round also
expects the saturation search to reach the slices through
`qpoly.operator_matrix`, once per degree it searches.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    """The object a name such as 'groups.IndexedGroup.__init__' names in mystica."""
    layer, _, rest = dotted.partition(".")
    obj = importlib.import_module(f"mystica.{layer}")
    for part in rest.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_wraps_every_named_callable():
    tracer = _load("tracer")
    names = [f"{layer}.{name}" for layer, names in tracer.EXTRA.items() for name in names]
    names += list(tracer.HOOKS)
    originals = {name: _resolve(name) for name in names}
    tr = tracer.Tracer()
    tr.install()
    try:
        for name in names:
            assert name in tr.aggregates, name
            assert _resolve(name).__wrapped__ is originals[name], name
    finally:
        tr.uninstall()
    for name in names:
        assert _resolve(name) is originals[name], name


def test_workloads_name_existing_verify_functions():
    workloads = _load("workloads")
    names = [fn for _, fn in workloads.IDENTITY_SUITES]
    names += [fn for _, fn, _, _ in workloads.GROUP_STRUCTURE_CHECKS]
    verify = importlib.import_module("mystica.verify")
    missing = [name for name in names if not callable(getattr(verify, name, None))]
    assert not missing


@pytest.mark.parametrize("c", [0, 1, "zeta4"])
def test_the_saturation_search_calls_operator_matrix_once_per_degree(monkeypatch, c):
    cyclo, groups, mystic = (importlib.import_module(f"mystica.{name}") for name in ("cyclo", "groups", "mystic"))
    c = cyclo.cyc_make(4, 1) if c == "zeta4" else c
    calls = []
    original = mystic.operator_matrix

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(mystic, "operator_matrix", counted)
    G = groups.make_gmpn(4, 1, 2)
    degree, rank = mystic.faithfulness_saturation_degree(G, c, G.n * G.N + 2)
    assert rank == G.order
    assert calls == list(range(degree + 1))
