"""Layer timings for nonstab, taken from outside the library.

`Tracer.install()` replaces every public function of the nine library
modules, and the public methods of `galois.PrimeField`, with a wrapper that
records calls, inclusive time and self time (inclusive time minus the time
of traced calls made inside it).  A function is replaced in every module
namespace that binds it, so `from .oracle import apply` in `decoder` is
traced as well.  Generator functions are left alone, because a wrapper
would time only the creation of the generator; `weyl.enumerate_bounded` is
therefore timed inside its one consumer, `gottesman.bounded_pair_arrays`.

A few functions also report work counts, taken from their arguments or
results (see `_COUNTS`).  A function with a `stats` parameter is handed a
dict when its caller passed none, and its entries are added to the counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "galois",
    "weyl",
    "gottesman",
    "fourier_code",
    "families",
    "oracle",
    "circuits",
    "decoder",
    "cli",
)


def _report_counts(report) -> dict:
    return report.counts or {}


# Work counts per traced function: (bound arguments, result) -> {stat: n}.
_COUNTS = {
    "oracle.kl_check": lambda a, r: {"errors": _report_counts(r).get("errors", 0)},
    "oracle.apply": lambda a, r: {"amplitudes": len(a["state"])},
    "circuits.simulate": lambda a, r: {
        "gates": len(a["circuit"].gates),
        "support_out": len(r),
    },
    "gottesman.bounded_pair_arrays": lambda a, r: {"pairs": len(r[0])},
    "gottesman.forbidden_set": lambda a, r: {"members": len(r)},
    "fourier_code.verify_distance": lambda a, r: {
        "differences": _report_counts(r).get("differences", 0)
    },
    "fourier_code.greedy_construct": lambda a, r: {
        "picked": len(r),
        "group": a["spec"].size,
    },
}


class _Record:
    __slots__ = ("calls", "s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts: dict = defaultdict(int)


class Tracer:
    """Installs and removes the wrappers; holds what they recorded."""

    def __init__(self) -> None:
        self.modules = [importlib.import_module("nonstab")] + [
            importlib.import_module(f"nonstab.{layer}") for layer in LAYERS
        ]
        self.records: dict[str, _Record] = defaultdict(_Record)
        self.outer_s: dict[str, float] = defaultdict(float)  # per module
        self._stack: list[float] = []  # child time of each open call
        self._depth: dict[str, int] = defaultdict(int)  # open calls per module
        self._patched: list[tuple] = []
        self._wrappers = {  # original -> (owner, attribute, wrapper)
            fn: (owner, attr, self._wrap(name, fn)) for owner, attr, fn, name in self._targets()
        }

    def _targets(self):
        """(owner, attribute, function, traced name) for every traced function."""
        for module in self.modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    yield module, attr, obj, f"{layer}.{attr}"
        field = importlib.import_module("nonstab.galois").PrimeField
        for attr, obj in vars(field).items():
            if inspect.isfunction(obj) and not attr.startswith("_"):
                yield field, attr, obj, f"galois.PrimeField.{attr}"

    def _wrap(self, name: str, fn):
        record = self.records[name]
        layer = name.split(".", 1)[0]
        counts = _COUNTS.get(name)
        signature = inspect.signature(fn)
        takes_stats = "stats" in signature.parameters
        stack, depth, outer_s = self._stack, self._depth, self.outer_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = None
            if takes_stats:
                bound = signature.bind(*args, **kwargs)
                stats = bound.arguments.get("stats")
                if stats is None:
                    stats = bound.arguments["stats"] = {}
                    args, kwargs = bound.args, bound.kwargs
            stack.append(0.0)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                depth[layer] -= 1
                if not depth[layer]:
                    outer_s[layer] += elapsed
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record.calls += 1
                record.s += elapsed
                record.self_s += elapsed - child
            if counts is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                for key, value in counts(arguments, result).items():
                    record.counts[key] += value
            if stats:
                for key, value in stats.items():
                    record.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for fn, (owner, attr, wrapper) in self._wrappers.items():
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, fn))
        # re-bindings made by `from ... import` in other modules
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, attr, self._wrappers[obj][2])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def reset(self) -> None:
        for record in self.records.values():
            record.calls, record.s, record.self_s = 0, 0.0, 0.0
            record.counts.clear()
        self.outer_s.clear()

    def module_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(r.self_s for name, r in self.records.items() if name.startswith(prefix))

    def value(self, metric: str) -> float:
        """Total of one per-layer metric name, without its `setup.` prefix.

        `<module>.<function>.<stat>`: stat is `s` (inclusive), `self_s`,
        `calls` or a work count from `_COUNTS`; `<module>.self_s` is the
        module's summed self time; `families.build.s` is the inclusive time
        of the outermost `families` calls.
        """
        if metric == "families.build.s":
            return self.outer_s["families"]
        parts = metric.split(".")
        if len(parts) == 2 and parts[1] == "self_s":
            return self.module_self_s(parts[0])
        fn_name, stat = ".".join(parts[:-1]), parts[-1]
        record = self.records.get(fn_name)
        if record is None:
            raise KeyError(f"no traced function {fn_name}")
        if stat in ("s", "self_s", "calls"):
            return getattr(record, stat)
        if stat == "picked_frac":
            group = record.counts["group"]
            return record.counts["picked"] / group if group else 0.0
        return record.counts[stat]

    def table(self) -> dict:
        """Every traced function that was called, for the report."""
        return {
            name: dict(calls=r.calls, s=r.s, self_s=r.self_s, **r.counts)
            for name, r in sorted(self.records.items())
            if r.calls
        }
