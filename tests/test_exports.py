"""Every exported name exists, and the package root is the union of the
library modules' export lists."""

import collections
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import quditpure

MODULES = sorted(info.name for info in pkgutil.iter_modules(quditpure.__path__))
# The modules whose names the root re-exports; oracle and cli stay modules.
ROOT_MODULES = ["indices", "states", "recurrence", "hashing", "multipartite"]


def exported(module):
    return importlib.import_module(f"quditpure.{module}").__all__


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_bound(module):
    mod = importlib.import_module(f"quditpure.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_root_names_are_the_union_of_module_exports():
    public = {
        name for name, value in vars(quditpure).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for module in ROOT_MODULES for name in exported(module)}


def test_no_name_is_exported_by_two_root_modules():
    """A later star import would silently shadow an earlier one."""
    counts = collections.Counter(name for module in ROOT_MODULES for name in exported(module))
    assert [name for name, n in counts.items() if n > 1] == []


def test_root_import_leaves_oracle_and_cli_unloaded():
    code = (
        "import sys, quditpure; "
        "print(sorted(m for m in ('quditpure.oracle', 'quditpure.cli') if m in sys.modules))"
    )
    src = str(Path(quditpure.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert result.stdout == "[]\n"


# What ``import quditpure, quditpure.cli`` adds to a process that has
# imported numpy, besides quditpure's own modules (Python 3.11).
IMPORTED_WITH_PACKAGE = {
    "__future__", "_json", "argparse", "copy", "dataclasses", "gettext",
    "json", "json.decoder", "json.encoder", "json.scanner",
}


def test_package_import_loads_nothing_more():
    """The helper threads (FFT kernel, Lemma 1 Monte Carlo) come from
    ``threading``, which the interpreter has loaded before numpy: no
    executor or pool module joins."""
    code = (
        "import json, sys, numpy; before = set(sys.modules); "
        "import quditpure, quditpure.cli; "
        "print(json.dumps([sorted(set(sys.modules) - before), 'concurrent.futures' in sys.modules]))"
    )
    src = str(Path(quditpure.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    added, futures = json.loads(result.stdout)
    added = {m for m in added if m.split(".")[0] != "quditpure"}
    assert added <= IMPORTED_WITH_PACKAGE and not futures
