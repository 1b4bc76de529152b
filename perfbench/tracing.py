"""Per-layer tracing installed from outside the program.

Each layer's public functions are replaced, with `setattr` on their
module or class, by wrappers that record a span (group, start, end,
parent span, operation id) in memory.  This reaches every call because
the modules call one another through module attributes (`abelian.hnf`,
`fqpoly.FqPoly.__mul__`, ...).  A few targets only count calls, or count
the items a generator yields, where a span per call would cost more than
the call itself.

A layer's self time is the summed duration of its spans minus the time
their direct child spans cover; its call count is the number of spans
entered from outside the same group.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from genusfields import (abelian, characters, cli, fqpoly, genus_function,
                         genus_number, oracle)


def _note_order(tracer, order):
    if order > tracer.largest_group_order:
        tracer.largest_group_order = order


def _observe_unit_group(tracer, result):
    _note_order(tracer, result.order)


def _observe_subgroup(tracer, result):
    _note_order(tracer, result.ambient.order)


def _observe_subgroups(tracer, result):
    tracer.counts["oracle.subgroups_enumerated"] += len(result)


SPAN, COUNT, YIELDS = "span", "count", "yields"

# (group, owner, attribute, kind, observer)
TARGETS = [
    ("abelian.hnf", abelian, "hnf", SPAN, None),
    ("abelian.hnf", abelian, "hnf_with_transform", SPAN, None),
    ("abelian.snf", abelian, "smith_normal_form", SPAN, None),
    ("abelian.snf", abelian, "snf_with_transform", SPAN, None),
    ("abelian.subgroup", abelian, "subgroup_from_generators", SPAN,
     _observe_subgroup),
    ("abelian.subgroup", abelian, "product", SPAN, None),
    ("abelian.subgroup", abelian, "intersect", SPAN, None),
    ("abelian.dlog", abelian.UnitGroup, "dlog", SPAN, None),
    ("abelian.unit_group", abelian, "unit_group", SPAN, _observe_unit_group),
    ("fqpoly.mul", fqpoly.FqPoly, "__mul__", SPAN, None),
    ("fqpoly.divmod", fqpoly.FqPoly, "__divmod__", SPAN, None),
    ("fqpoly.poly_new", fqpoly.FqPoly, "__post_init__", COUNT, None),
    ("fqpoly.factor", fqpoly, "factor_modulus", SPAN, None),
    ("fqpoly.dlog", fqpoly.UnitGroupModN, "dlog", SPAN, None),
    ("characters.conductor", characters, "conductor_of_group", SPAN, None),
    ("characters.conductor", characters, "conductor", SPAN, None),
    ("characters.kernels", characters.NumericAmbient, "reduction_kernel",
     COUNT, None),
    ("characters.kernels", characters.FunctionFieldAmbient,
     "reduction_kernel", COUNT, None),
    ("characters.residues", characters.NumericAmbient, "residues", YIELDS,
     None),
    ("characters.residues", characters.FunctionFieldAmbient, "residues",
     YIELDS, None),
    ("characters.components", characters, "component_decompose", SPAN, None),
    ("characters.components", characters, "component_order", SPAN, None),
    ("characters.components", characters, "restrict_to_component", SPAN,
     None),
    ("characters.components", characters, "inflate_from_component", SPAN,
     None),
    ("genus_number.report", genus_number, "build_report", SPAN, None),
    ("genus_number.extended", genus_number, "extended_genus_characters",
     SPAN, None),
    ("genus_number.plus_part", genus_number, "plus_part", SPAN, None),
    ("genus_number.local", genus_number, "lp_degree_from_local", SPAN, None),
    ("genus_number.local", genus_number, "lp_degree_is_stable", SPAN, None),
    ("genus_number.local", genus_number, "classify_l2", SPAN, None),
    ("genus_number.local", genus_number, "tame_degree", SPAN, None),
    ("genus_function.idele", genus_function, "idele_quotient_check", SPAN,
     None),
    ("genus_function.carlitz", genus_function, "carlitz_operator", SPAN,
     None),
    ("genus_function.carlitz", genus_function, "torsion_order_check", SPAN,
     None),
    ("genus_function.genus_ff", genus_function,
     "extended_genus_characters_ff", SPAN, None),
    ("genus_function.genus_ff", genus_function, "genus_characters_ff", SPAN,
     None),
    ("genus_function.genus_ff", genus_function, "component_fields", SPAN,
     None),
    ("genus_function.genus_ff", genus_function, "constants_kernel_part",
     SPAN, None),
    ("genus_function.infinity", genus_function.InfinityUnits, "__init__",
     SPAN, None),
    ("genus_function.infinity", genus_function, "s_field_invariants", SPAN,
     None),
    ("oracle.enumerate", oracle, "enumerate_subfields", SPAN, None),
    ("oracle.enumerate", oracle, "enumerate_subgroups", SPAN,
     _observe_subgroups),
    ("oracle.search", oracle, "maximal_extended_search", SPAN, None),
    ("oracle.search", oracle, "maximal_genus_search", SPAN, None),
    ("cli.parse", cli, "load_document", SPAN, None),
    ("cli.parse", cli, "parse_document", SPAN, None),
    ("cli.parse", cli, "_build_parser", SPAN, None),
    ("cli.main", cli, "main", SPAN, None),
]

AMBIENT_CACHES = (characters.numeric_ambient, characters._ff_ambient_cached)
LATTICE_CACHE = oracle._lattice_cached


class Tracer:
    """Wrappers for every target, and the spans and counts they record."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None
        self.largest_group_order = 0
        self._saved = []

    def install(self):
        for group, owner, attr, kind, observe in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            if kind == SPAN:
                wrapper = self._span_wrapper(group, original, observe)
            elif kind == COUNT:
                wrapper = self._count_wrapper(group, original)
            else:
                wrapper = self._yield_wrapper(group, original)
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, group, fn, observe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (group, start, end, parent, self.op)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _count_wrapper(self, group, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_wrapper(self, group, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[group] += 1
                yield item

        return wrapper

    def layer_totals(self, timed):
        """(calls, self seconds) per group, over spans of timed operations
        when `timed`, else over spans outside any operation."""
        spans = self.spans
        child = [0.0] * len(spans)
        for group, start, end, parent, op in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for idx, (group, start, end, parent, op) in enumerate(spans):
            if (op is not None) != timed:
                continue
            self_s[group] += end - start - child[idx]
            if parent < 0 or spans[parent][0] != group:
                calls[group] += 1
        return calls, self_s


def cache_hit_ratio(caches):
    hits = sum(c.cache_info().hits for c in caches)
    misses = sum(c.cache_info().misses for c in caches)
    return hits / (hits + misses) if hits + misses else 0.0


def cache_use(caches):
    """One line on how the caches were used.  An lru_cache inserts an
    entry on every miss, so misses - currsize entries were evicted."""
    infos = [c.cache_info() for c in caches]
    misses = sum(i.misses for i in infos)
    return (f"ambient caches: {misses} misses, "
            f"{sum(i.hits for i in infos)} hits, "
            f"{misses - sum(i.currsize for i in infos)} evicted "
            f"(maxsize {'/'.join(str(i.maxsize) for i in infos)})")


def _calls_and_self(*groups):
    return [(f"{g}.{k}", "count" if k == "calls" else "s", "lower")
            for g in groups for k in ("calls", "self_s")]


# per-layer metrics: (name, unit, better)
LAYER_METRICS = (
    _calls_and_self("abelian.hnf", "abelian.snf", "abelian.subgroup",
                    "abelian.dlog", "abelian.unit_group")
    + [("abelian.largest_group_order", "elements", "lower")]
    + _calls_and_self("fqpoly.mul", "fqpoly.divmod")
    + [("fqpoly.poly_new.calls", "count", "lower")]
    + _calls_and_self("fqpoly.factor", "fqpoly.dlog", "characters.conductor")
    + [("characters.conductor.kernels_per_call", "ratio", "lower"),
       ("characters.residues_enumerated", "count", "lower")]
    + _calls_and_self("characters.components")
    + [("characters.ambient_cache.hit_ratio", "ratio", "higher")]
    + [(f"genus_number.{g}.self_s", "s", "lower")
       for g in ("report", "extended", "plus_part", "local")]
    + _calls_and_self("genus_function.idele", "genus_function.carlitz",
                      "genus_function.genus_ff", "genus_function.infinity")
    + [("oracle.enumerate.self_s", "s", "lower"),
       ("oracle.search.self_s", "s", "lower"),
       ("oracle.subgroups_enumerated", "count", "lower"),
       ("oracle.lattice_cache.hit_ratio", "ratio", "higher"),
       ("cli.parse.self_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("cli.output_bytes", "bytes", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)
