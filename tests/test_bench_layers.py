"""The benchmark's traced layers name functions that exist.

`bench/tracing.py` reports a traced name that no longer resolves as absent
and leaves its metrics out of the traced run's result, so a renamed or
deleted layer would silently shorten that result.  The file is read and
executed in memory, so no bytecode cache is written next to it.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    layers = _tracing_module().LAYERS
    assert layers
    missing = []
    for mod_name, qual, _fields in layers:
        obj = importlib.import_module(f"eqcut.{mod_name}")
        for part in qual.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{qual}")
    assert missing == []
