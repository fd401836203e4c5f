"""An engine's output may depend on its inputs only, so no linmetric module
keeps mutable state at module level."""

import importlib
import itertools
import pkgutil

import linmetric

# read-only lookup tables, never written after import
TABLES = {("metrics", "ENGINES"), ("gen", "_SYM_SWAPS")}


def test_no_module_holds_mutable_state():
    found = []
    for info in pkgutil.iter_modules(linmetric.__path__):
        module = importlib.import_module(f"linmetric.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__") or (info.name, name) in TABLES:
                continue
            if isinstance(value, (dict, list, set, itertools.count)):
                found.append(f"{info.name}.{name}")
    assert found == []
