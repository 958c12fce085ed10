"""The benchmark's tracer must find every function it wraps.

perfbench/tracer.py patches afrelay's layer functions and `cli.Pool` by name,
so deleting or renaming one of them breaks the traced benchmark runs. This
test makes that break show up in the test suite instead.
"""

import importlib.util
from pathlib import Path

import afrelay
import afrelay.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_layer_function():
    tracer = load_tracer()
    targets = [(getattr(afrelay, home), name)
               for _, home, names, _ in tracer.LAYER_FUNCTIONS for name in names]
    targets.append((afrelay.cli, "Pool"))
    missing = [f"{mod.__name__}.{name}" for mod, name in targets if not hasattr(mod, name)]
    assert not missing, f"tracer wraps names that no longer exist: {missing}"
    originals = [getattr(mod, name) for mod, name in targets]

    t = tracer.Tracer(afrelay)
    t.install()
    try:
        wrapped = [getattr(mod, name) for mod, name in targets]
    finally:
        t.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(getattr(mod, name) is o for (mod, name), o in zip(targets, originals))
