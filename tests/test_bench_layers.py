"""The benchmark's traced names stay bound in the package.

``bench/tracer.py`` looks up every name in ``bench/layers.py``'s
``TRACED`` with ``getattr``, so a rename breaks traced runs.  The layers
file imports nothing from quditpure and is loaded here by path.
"""

import importlib
import runpy
from pathlib import Path

from quditpure import recurrence, states

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_every_traced_name_exists():
    missing = [
        f"{module}.{name}"
        for module, names in runpy.run_path(str(LAYERS))["TRACED"].items()
        for name in names
        if not hasattr(importlib.import_module(f"quditpure.{module}"), name)
    ]
    assert missing == []


def test_recurrence_keeps_the_tracer_bindings():
    """recurrence.py binds these two for the tracer only (see its imports)."""
    assert recurrence.make_preset is states.make_preset
    assert recurrence.depolarize_channel is states.depolarize_channel
