"""The benchmark's tracer reaches into the package by attribute name.

`perfbench/tracing.py` replaces functions with `setattr(owner, attr, ...)`
after reading `vars(owner)[attr]`, so renaming or deleting one of its
targets breaks `perfbench/run.py --trace 1`.  This test loads the tracer
module by path, installs nothing, and checks every target still exists.
"""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                       "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    tracing = _load_tracing()
    assert tracing.TARGETS
    missing = [(getattr(owner, "__name__", owner), attr)
               for _, owner, attr, _, _ in tracing.TARGETS
               if attr not in vars(owner)]
    assert missing == []
    for cache in tracing.AMBIENT_CACHES + (tracing.LATTICE_CACHE,):
        assert hasattr(cache, "cache_info")
