"""The benchmark tracer (benchmarks/tracer.py) wraps spikegrow functions at
the names their callers look up. A refactor that unbinds one of those names
would break traced benchmark runs; this test fails first."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_is_bound():
    patches = load_tracer().PATCHES
    assert patches
    unbound = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in patches if attr not in owner.__dict__]
    assert unbound == []
