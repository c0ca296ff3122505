"""Per-layer tracing of `nhmetro` from outside the package.

Every public function a layer module defines is wrapped, and the wrapper is
bound at every place that holds the original: the defining module, each
module that imported the name (`from .dynamics import evolve`), and dicts at
module level such as `cli.COMMANDS`. Each call records its count, inclusive
time and self time (inclusive time minus the time of wrapped calls made
inside it), and the caller -> callee edge.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "config", "linalg", "models", "dynamics", "fisher",
          "measure", "estimate", "dilation")
PACKAGE = "nhmetro"
ROOT = "<bench>"

# The 2x2/4x4 kernel and the local generator; see `generator_kernel_calls`.
KERNEL = "linalg.mat_exp"
GENERATOR = "fisher.generator_quadrature"


def public_functions(module):
    """Functions a module defines itself (not imports), without a leading _."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class LayerTracer:
    def __init__(self):
        self.calls = collections.Counter()
        self.inclusive = collections.defaultdict(float)
        self.self_time = collections.defaultdict(float)
        self.edges = collections.Counter()
        # Direct kernel calls made by each generator call, one entry per call.
        self.generator_kernel_calls = []
        self._stack = []
        self._originals = {}   # key -> original function
        self._rebound = []     # (container, slot, original)

    def _wrap(self, key, fn):
        stack = self._stack
        calls, inclusive, self_time, edges = (self.calls, self.inclusive,
                                              self.self_time, self.edges)
        kernel_log = self.generator_kernel_calls
        is_kernel, is_generator = key == KERNEL, key == GENERATOR

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            edges[(parent[1] if parent else ROOT, key)] += 1
            if is_kernel and parent is not None:
                parent[2] += 1
            frame = [0.0, key, 0]  # child time, key, direct kernel calls
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                calls[key] += 1
                inclusive[key] += elapsed
                self_time[key] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if is_generator:
                    kernel_log.append(frame[2])

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    @staticmethod
    def _package_modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                key = f"{layer}.{name}"
                self._originals[key] = fn
                wrappers[id(fn)] = (fn, self._wrap(key, fn))
        for container, slot, value in self._slots():
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                container[slot] = wrappers[id(value)][1]
                self._rebound.append((container, slot, value))
        return self

    def uninstall(self):
        for container, slot, original in reversed(self._rebound):
            container[slot] = original
        self._rebound.clear()

    def _slots(self):
        """Every (dict, key, value) in the package that can hold a function:
        module globals and the values of module-level dicts."""
        for module in self._package_modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                yield namespace, name, value
                if isinstance(value, dict) and not name.startswith("__"):
                    for slot, inner in list(value.items()):
                        yield value, slot, inner

    def stale_references(self):
        """Places that still hold an unwrapped original after `install`."""
        originals = {id(fn): key for key, fn in self._originals.items()}
        stale = []
        for container, slot, value in self._slots():
            key = originals.get(id(value))
            if key is not None and self._originals[key] is value:
                stale.append(f"{slot} -> {key}")
        return sorted(stale)

    def layer_edges(self):
        """Calls counted by (caller layer, callee layer)."""
        out = collections.Counter()
        for (caller, callee), n in self.edges.items():
            out[(caller.split(".")[0], callee.split(".")[0])] += n
        return out

    def layer_totals(self):
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        for key, n in self.calls.items():
            layer = key.split(".")[0]
            calls[layer] += n
            self_s[layer] += self.self_time[key]
        return {layer: (calls[layer], self_s[layer]) for layer in LAYERS}
