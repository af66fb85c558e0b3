"""Tests for the package's public surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mystica


def test_every_exported_name_resolves():
    missing = [name for name in mystica.__all__ if not hasattr(mystica, name)]
    assert not missing
    assert len(set(mystica.__all__)) == len(mystica.__all__)
    # each name is the object its defining module holds
    wrong = []
    for name in mystica.__all__:
        value = getattr(mystica, name)
        home = importlib.import_module(value.__module__)
        if not home.__name__.startswith("mystica.") or getattr(home, name) is not value:
            wrong.append(name)
    assert not wrong


def test_import_loads_no_submodule():
    code = "import sys, mystica; print(sorted(m for m in sys.modules if m.startswith('mystica.')))"
    src = str(Path(mystica.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from mystica import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mystica.__all__)


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(mystica, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        mystica.no_such_name


def test_dir_covers_all():
    assert set(mystica.__all__) <= set(dir(mystica))
