"""The names perfbench/tracer.py wraps by name must exist in mystica.

The layer tracer behind `perfbench/run.py --trace 1` wraps a few private
callables by name (EXTRA) and attaches counter hooks to others (HOOKS).  A
rename or deletion of one of them in src breaks the traced benchmark run;
this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
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
    tracer = _load_tracer()
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
