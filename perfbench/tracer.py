"""Span tracing of modegap's public functions, installed from outside the package.

Every public function of the traced modules is replaced, in every module
namespace that binds it, by one wrapper that records a span (name, start,
end, parent) per call; public methods of the modules' classes are wrapped on
the class.  A span is named after the defining module, so
``modegap.cli.reconstruct`` and ``modegap.network.reconstruct`` both record
``bogoliubov.reconstruct``.  Spans are kept in flat arrays and only summarised
when the traced commands have finished.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("activations", "spectral", "bogoliubov", "network", "svgplot", "cli")


def _size_of_second_arg(args, kwargs):
    return int(np.size(args[1]))


def _rows_of_spectrum(args, kwargs):
    return len(args[1].amplitudes)


def _rows_of_activation(args, kwargs):
    return len(args[1].samples)


def _points_of_curves(args, kwargs):
    return sum(len(curve[1]) for curve in args[1])


# Work counts kept next to the call counts: (span name, count name) -> size.
SIZES = {
    ("bogoliubov.evaluate", "points"): _size_of_second_arg,
    ("spectral.write_spectrum_csv", "rows"): _rows_of_spectrum,
    ("bogoliubov.write_activation_csv", "rows"): _rows_of_activation,
    ("svgplot.line_plot", "points"): _points_of_curves,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.sizes = {key: 0 for key in SIZES}
        self._stack = [-1]

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        sizers = [(key, sizer) for key, sizer in SIZES.items() if key[0] == name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, sizes = self.span_start, self.span_end, self._stack, self.sizes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            for key, sizer in sizers:
                sizes[key] += sizer(args, kwargs)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap the public functions and methods of every module in LAYERS."""
        modules = [importlib.import_module(f"modegap.{layer}") for layer in LAYERS]
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("modegap.") or layer not in LAYERS:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrapped[obj])
            layer = module.__name__.rpartition(".")[2]
            for attr, cls in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isclass(cls) \
                        or cls.__module__ != module.__name__:
                    continue
                for name, member in list(vars(cls).items()):
                    if not name.startswith("_") and inspect.isfunction(member):
                        setattr(cls, name, self._wrap(f"{layer}.{name}", member))
        if len(set(self.names)) != len(self.names):
            raise RuntimeError("two traced callables share a span name")

    def arrays(self):
        """(name id, parent index, duration) per span, as numpy arrays."""
        names = np.frombuffer(self.span_name, dtype=np.intc).astype(np.int64)
        parents = np.frombuffer(self.span_parent, dtype=np.intc).astype(np.int64)
        durations = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        return names, parents, durations

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        names, parents, durations = self.arrays()
        count = len(self.names)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=durations[nested],
                               minlength=len(durations))
        calls = np.bincount(names, minlength=count)
        total = np.bincount(names, weights=durations, minlength=count)
        own = np.bincount(names, weights=durations - children, minlength=count)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def calls_inside(self, inner, outer):
        """Number of ``inner`` spans that have an ``outer`` span among their ancestors."""
        names, parents, _ = self.arrays()
        inner_ids = [self.names.index(name) for name in inner]
        outer_id = self.names.index(outer)
        ancestor = parents[np.isin(names, inner_ids)]
        inside = np.zeros(len(ancestor), dtype=bool)
        while np.any(ancestor >= 0):
            live = ancestor >= 0
            inside[live] |= names[ancestor[live]] == outer_id
            ancestor[live] = parents[ancestor[live]]
        return int(np.count_nonzero(inside))
