"""Every name a ``repro`` module lists in ``__all__`` must resolve.

A stale ``__all__`` entry only fails on ``from package import *`` or on
a direct import, so deleting a function without updating its
package's export list goes unnoticed elsewhere.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ lists undefined names"


def test_every_subpackage_is_walked():
    packages = {
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    }
    assert {"repro.core", "repro.link", "repro.telemetry"} <= packages
