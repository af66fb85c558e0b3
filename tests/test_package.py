"""Tests for the package's public surface."""

import mystica


def test_every_exported_name_resolves():
    missing = [name for name in mystica.__all__ if not hasattr(mystica, name)]
    assert not missing
    assert len(set(mystica.__all__)) == len(mystica.__all__)
