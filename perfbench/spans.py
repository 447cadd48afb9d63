"""Layer spans recorded from outside corekit, for the traced run.

The tracer replaces corekit's public functions with timing wrappers. A name
bound elsewhere with ``from .x import y`` is found by identity and replaced
too, so a call is timed whichever module makes it. Generators are timed per
``next``, so a generator's span covers only the work it does, not its
consumer's.

Each span's duration and its self time (duration minus the time its child
spans cover) are summed per function in memory, per thread, and read out
once the pass ends. Millions of spans a pass rule out keeping them one by
one; the sums are what the layer metrics need.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

# (module, attribute, kind): kind "call" times a call, "gen" times each
# next() of the returned iterator and counts the items.
TARGETS = (
    ("partitions", "beta_set", "call"),
    ("partitions", "partition_of_beta", "call"),
    ("partitions", "size_from_beta", "call"),
    ("partitions", "check_beta", "call"),
    ("partitions", "hook_lengths", "call"),
    ("partitions", "hook_length_set", "call"),
    ("cores", "enumerate_partitions", "gen"),
    ("cores", "is_core", "call"),
    ("cores", "abacus_is_t_core", "call"),
    ("cores", "enumerate_simultaneous_cores", "call"),
    ("residues", "size_of_vector", "call"),
    ("series", "iter_distinct_core_vectors", "gen"),
    ("series", "distinct_core_series", "call"),
    ("series", "distinct_core_series_brute", "call"),
    ("series", "distinct_core_series_closed", "call"),
    ("consecutive", "fibonacci_convolution", "call"),
    ("consecutive", "fibonacci_triple_convolution", "call"),
    ("consecutive", "iter_nice_subsets", "gen"),
)
# Constructors, wrapped on the class: Partition validation and ResidueVector
# construction.
METHODS = (
    ("partitions", "Partition", "__post_init__"),
    ("residues", "ResidueVector", "__init__"),
)

# count metric -> functions whose spans it sums: calls, or for ITEM_COUNTS
# the items the functions yielded or returned.
COUNTS = {
    "partitions.validations": ("partitions.Partition.__post_init__",),
    "partitions.beta_calls": (
        "partitions.beta_set",
        "partitions.partition_of_beta",
        "partitions.size_from_beta",
        "partitions.check_beta",
    ),
    "partitions.hook_calls": ("partitions.hook_lengths", "partitions.hook_length_set"),
    "cores.partitions_yielded": ("cores.enumerate_partitions",),
    "cores.core_tests": ("cores.is_core", "cores.abacus_is_t_core"),
    "cores.pair_cores_found": ("cores.enumerate_simultaneous_cores",),
    "residues.vectors_built": ("residues.ResidueVector.__init__",),
    "residues.size_evals": ("residues.size_of_vector",),
    "series.dfs_nodes": ("series.iter_distinct_core_vectors",),
    "consecutive.subsets_walked": ("consecutive.iter_nice_subsets",),
    "consecutive.conv_terms_by_index": (
        "consecutive.fibonacci_convolution",
        "consecutive.fibonacci_triple_convolution",
    ),
}
SELF_TIMES = {
    "partitions.validate_s": COUNTS["partitions.validations"],
    "partitions.beta_s": COUNTS["partitions.beta_calls"],
    "partitions.hook_s": COUNTS["partitions.hook_calls"],
    "cores.enumerate_s": COUNTS["cores.partitions_yielded"],
    "cores.core_test_s": COUNTS["cores.core_tests"],
    "cores.pair_enum_s": COUNTS["cores.pair_cores_found"],
    "residues.vector_s": COUNTS["residues.vectors_built"],
    "residues.size_s": COUNTS["residues.size_evals"],
    "series.eq2_s": ("series.distinct_core_series", "series.iter_distinct_core_vectors"),
    "series.brute_s": ("series.distinct_core_series_brute",),
    "series.closed_s": ("series.distinct_core_series_closed",),
    "consecutive.conv_s": COUNTS["consecutive.conv_terms_by_index"],
    "consecutive.subset_s": ("consecutive.iter_nice_subsets",),
}
ITEM_COUNTS = {
    "cores.partitions_yielded",
    "cores.pair_cores_found",
    "series.dfs_nodes",
    "consecutive.subsets_walked",
    "consecutive.conv_terms_by_index",
}


def conv_terms_by_index(name: str, args: tuple, kwargs: dict, result) -> int:
    """Products a direct convolution at index n forms, computed from n.

    The count is read off the argument, not observed inside the function:
    it weights each call by its index, and does not change if the body is
    rewritten to form fewer products.
    """
    n = args[0] if args else kwargs["n"]
    if name.endswith("triple_convolution"):
        return (n - 1) * (n - 2) if n > 2 else 0  # two per term, C(n-1, 2) terms
    return max(n - 1, 0)


def result_len(name: str, args: tuple, kwargs: dict, result) -> int:
    return len(result)


ITEMS = {
    "cores.enumerate_simultaneous_cores": result_len,
    "consecutive.fibonacci_convolution": conv_terms_by_index,
    "consecutive.fibonacci_triple_convolution": conv_terms_by_index,
}
_END = object()


class Tracer:
    def __init__(self, corekit):
        self.corekit = corekit
        self._local = threading.local()
        self._tables: list[dict] = []  # one per thread
        self._undo: list[tuple] = []
        self._population = corekit.consecutive.distinct_core_partitions

    def _enter(self) -> float:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stats = {}
            self._tables.append(local.stats)
        local.stack.append(0.0)
        return perf_counter()

    def _leave(self, name: str, start: float, items: int) -> None:
        elapsed = perf_counter() - start
        local = self._local
        stack = local.stack
        child = stack.pop()
        if stack:
            stack[-1] += elapsed
        rec = local.stats.get(name)
        if rec is None:
            rec = local.stats[name] = [0, 0, 0.0]
        rec[0] += 1
        rec[1] += items
        rec[2] += elapsed - child

    def _wrap_call(self, name, fn):
        tracer = self
        count = ITEMS.get(name)

        def traced(*args, **kwargs):
            start = tracer._enter()
            items = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    items = count(name, args, kwargs, result)
                return result
            finally:
                tracer._leave(name, start, items)

        return traced

    def _wrap_gen(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            start = tracer._enter()
            try:
                inner = iter(fn(*args, **kwargs))
            finally:
                tracer._leave(name, start, 0)
            try:
                while True:
                    item = _END
                    start = tracer._enter()
                    try:
                        item = next(inner, _END)
                    finally:
                        tracer._leave(name, start, int(item is not _END))
                    if item is _END:
                        return
                    yield item
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "corekit" or n.startswith("corekit.")]
        for mod_name, attr, kind in TARGETS:
            original = getattr(getattr(self.corekit, mod_name), attr)
            name = f"{mod_name}.{attr}"
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            wrapper = wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for mod_name, cls_name, method in METHODS:
            cls = getattr(getattr(self.corekit, mod_name), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap_call(f"{mod_name}.{cls_name}.{method}", original))
            self._undo.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def totals(self) -> dict[str, list]:
        """function -> [calls, items, self seconds], summed over threads."""
        merged: dict[str, list] = {}
        for stats in self._tables:
            for name, (calls, items, self_s) in stats.items():
                rec = merged.setdefault(name, [0, 0, 0.0])
                rec[0] += calls
                rec[1] += items
                rec[2] += self_s
        return merged

    def layer_metrics(self) -> dict[str, float]:
        totals = self.totals()
        out: dict[str, float] = {}
        for metric, names in COUNTS.items():
            column = 1 if metric in ITEM_COUNTS else 0
            out[metric] = sum(totals.get(n, (0, 0, 0.0))[column] for n in names)
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(totals.get(n, (0, 0, 0.0))[2] for n in names)
        info = self._population.cache_info()
        calls = info.hits + info.misses
        out["consecutive.population_builds"] = info.misses
        out["consecutive.population_hit_ratio"] = info.hits / calls if calls else 0.0
        return out
