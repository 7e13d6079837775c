"""Per-layer tracing for the benchmark, installed from outside the package.

The layers are the package modules named in ``LAYERS``.  Every public
function defined in a layer module is replaced by a wrapper that records a
span: a call count, the span's total time, and its self time (its duration
minus the time of the spans it caused), attributed to the layer.  The
package's modules import each other's functions by name
(``from .link import sideband_powers``), so each wrapper is installed under
every name, in every ``fcqkd`` module, that is bound to the original.

The hottest inner calls are counted without a span, so that the tracer
does not dominate what it measures; their time stays with the calling
span.  ``ModulatorSpec.__post_init__`` runs once per validated modulator
object and is counted as ``modulator.specs_built``.

Spans are aggregated as they close rather than stored one by one: a
traced ``classify`` pass makes hundreds of thousands of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "modulator",
    "link",
    "protocols",
    "harmonics",
    "verification",
    "montecarlo",
    "config",
    "cli",
)

# The benchmark's own code inside an op, outside every package span.
BENCH_LAYER = "bench"

COUNT_ONLY = frozenset({"harmonics.bessel_j"})


def _session_counts(stats):
    return {"montecarlo.pulses": stats.sent, "montecarlo.sifted_bits": stats.sifted_bits}


# Counters read from a span's return value, at the layer boundary.
RESULT_COUNTERS = {"montecarlo.run_session": _session_counts}


class Tracer:
    """Call counts and per-layer self time, collected while ``on`` is set."""

    def __init__(self):
        self.on = False
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self._open = []  # child time accumulated by each open span
        self._replaced = []  # (owner, name, original) for uninstall

    def span(self, layer: str, name: str, fn):
        calls, self_s, total_s, open_spans = self.calls, self.self_s, self.total_s, self._open
        on_result = RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            calls[name] += 1
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - open_spans.pop()
                total_s[name] += elapsed
                if open_spans:
                    open_spans[-1] += elapsed
            if on_result is not None:
                calls.update(on_result(result))
            return result

        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run(self, fn):
        """Run one benchmark op as a root span of the ``bench`` layer."""
        self.on = True
        try:
            return self.span(BENCH_LAYER, "bench.op", fn)()
        finally:
            self.on = False

    def install(self) -> None:
        """Wrap every public function of every layer, under all its names."""
        modules = {layer: importlib.import_module(f"fcqkd.{layer}") for layer in LAYERS}
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == "fcqkd" or name.startswith("fcqkd.")
        ]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapper = self.counter(name, fn)
                else:
                    wrapper = self.span(layer, name, fn)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            self._replace(namespace, key, wrapper)
        spec = modules["modulator"].ModulatorSpec
        self._replace(spec, "__post_init__",
                      self.counter("modulator.specs_built", spec.__post_init__))

    def _replace(self, owner, name: str, wrapper) -> None:
        self._replaced.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._replaced:
            owner, name, original = self._replaced.pop()
            setattr(owner, name, original)
