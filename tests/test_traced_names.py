"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps every
``(module, attr)`` of ``perfbench/tracer.py``'s ``TRACED_FUNCTIONS`` by
``getattr`` on the library module, so each of those names must still
exist.  The tracer is loaded from its file, read-only."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED_FUNCTIONS
    for module_name, attr in tracer.TRACED_FUNCTIONS:
        module = importlib.import_module(f"mixedframes.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    frames = importlib.import_module("mixedframes.frames")
    assert callable(frames.FrameSequence.__post_init__)
