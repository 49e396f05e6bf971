"""The package's public names: every export resolves, once."""

import moutardkit


def test_every_exported_name_resolves():
    missing = [name for name in moutardkit.__all__ if not hasattr(moutardkit, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(moutardkit.__all__)) == len(moutardkit.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from moutardkit import *", namespace)
    assert set(moutardkit.__all__) <= set(namespace)
