"""The benchmark's tracer reaches into the package by attribute name.

`perfbench/tracing.py` replaces functions with `setattr(owner, attr, ...)`
after reading `vars(owner)[attr]`, so renaming or deleting one of its
targets breaks `perfbench/run.py --trace 1`.  This test loads the tracer
module by path, installs nothing, and checks every target still exists.
It also checks that the benchmark's cold cycles find every cache of the
package to clear.
"""

import importlib
import importlib.util
import os
import pkgutil
import sys

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


def _package_caches_by_module():
    """(module name, attribute, cache) for every lru_cache that a module
    of the package binds, under any name."""
    import genusfields
    out = []
    for info in pkgutil.iter_modules(genusfields.__path__):
        module = importlib.import_module("genusfields." + info.name)
        out += [(module.__name__, attr, value)
                for attr, value in vars(module).items()
                if hasattr(value, "cache_clear")]
    return out


def test_every_cache_is_bound_in_its_own_module():
    # `perfbench/workloads.package_caches()` clears before each cold cycle
    # the caches a module binds under its own __module__.  An lru_cache
    # takes the __module__ of what it wraps, so a cache bound only in
    # another module would be missed, and cold cycles would run warm.
    for name, attr, cache in _package_caches_by_module():
        owner = sys.modules.get(cache.__module__)
        assert cache.__module__.startswith("genusfields.") and any(
            value is cache for value in vars(owner).values()), (name, attr)


def test_package_caches_finds_every_cache_once():
    perfbench = os.path.dirname(TRACING)
    sys.path.insert(0, perfbench)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", os.path.join(perfbench, "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(perfbench)
    found = workloads.package_caches()
    assert len({id(c) for c in found}) == len(found)
    assert {id(c) for c in found} == {
        id(c) for _, _, c in _package_caches_by_module()}
