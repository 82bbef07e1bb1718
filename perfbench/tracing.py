"""Span tracing of hflab from outside the program.

`Tracer.installed()` replaces every binding of a public function of an hflab
module -- including the names other modules took with ``from ... import`` --
and every numpy/scipy kernel entry point in KERNELS with a timing wrapper,
and puts the originals back on exit.  Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of its child spans.
Spans are aggregated as they close (calls and self time per function),
so memory stays constant however many calls a workload makes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import time
import tracemalloc
from dataclasses import dataclass

LAYERS = (
    "lattice",
    "potentials",
    "hartree_fock",
    "semiclassics",
    "fock",
    "fewbody",
    "energy",
    "states",
    "scenarios",
    "cli",
)
KERNEL_LAYER = "kernels"

# Kernel name -> library attributes it covers.  hflab reaches numpy through
# attribute lookups (np.fft.fftn) and scipy through `from ... import` names;
# patching the library attribute and every hflab binding of the same object
# covers both.
KERNELS = {
    "fft": (("numpy.fft", "fftn"), ("numpy.fft", "ifftn")),
    "eigh_tridiagonal": (("scipy.linalg", "eigh_tridiagonal"),),
    "svd": (("numpy.linalg", "svd"),),
    "eigvalsh": (("numpy.linalg", "eigvalsh"),),
    "eigh": (("numpy.linalg", "eigh"),),
    "det": (("numpy.linalg", "det"),),
    "qr": (("numpy.linalg", "qr"),),
    "expm": (("scipy.linalg", "expm"),),
    "expm_multiply": (("scipy.sparse.linalg", "expm_multiply"),),
}

# Every propagator step, whether it enters through hf_step or run_hf, passes
# through this function; "per step" counts divide by its call count.
STEP_FUNCTION = "hf_step_with_drift"

FFT_FLOPS_PER_POINT_LOG2 = 5.0  # 5 n log2 n per length-n transform
FFT_BYTES_PER_POINT = 2 * 16  # one complex128 read and one written


@dataclass
class SpanStats:
    calls: int = 0
    calls_in_step: int = 0
    self_s: float = 0.0


class Patcher:
    """Replaces bindings of an object across module namespaces; restores them."""

    def __init__(self):
        self._patches = []  # (namespace, attribute, original)
        self._wrapper_ids = set()

    def replace(self, original, wrapper, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    self._patches.append((ns, attr, original))
        self._wrapper_ids.add(id(wrapper))

    def restore(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def leftovers(self, namespaces) -> list:
        """Bindings in `namespaces` that still hold a wrapper after restore."""
        return [
            f"{ns.__name__}.{attr}"
            for ns in namespaces
            for attr, value in vars(ns).items()
            if id(value) in self._wrapper_ids
        ]


def hflab_modules() -> dict:
    """Layer name -> imported hflab module, plus the package itself under 'hflab'."""
    mods = {layer: importlib.import_module(f"hflab.{layer}") for layer in LAYERS}
    mods["hflab"] = importlib.import_module("hflab")
    return mods


def patch_namespaces() -> list:
    libs = {importlib.import_module(mod) for sites in KERNELS.values() for mod, _ in sites}
    return list(hflab_modules().values()) + sorted(libs, key=lambda m: m.__name__)


class Tracer:
    """Aggregated spans over hflab's public functions and the kernels below them."""

    def __init__(self):
        self.stats: dict = {}  # (layer, name) -> SpanStats
        self.preset_s: dict = {}  # scenario name -> inclusive run_scenario time
        self.fft_points = 0
        self.fft_points_in_step = 0
        self.fft_flops = 0.0
        self.step_alloc_peak_mb = 0.0
        self._stack: list = []  # child-time accumulator of each open span
        self._step_depth = 0
        self._alloc_measured = False
        self._patcher = Patcher()
        self.restore_leftovers: list = []

    @contextlib.contextmanager
    def installed(self):
        namespaces = patch_namespaces()
        try:
            for layer, mod in hflab_modules().items():
                if layer not in LAYERS:
                    continue
                for name, obj in list(vars(mod).items()):
                    if (name.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != mod.__name__):
                        continue
                    self._patcher.replace(obj, self._wrap(obj, layer, name), namespaces)
            for kernel, sites in KERNELS.items():
                wrapped = {}
                for modname, attr in sites:
                    original = getattr(importlib.import_module(modname), attr)
                    if id(original) not in wrapped:
                        wrapped[id(original)] = self._wrap(original, KERNEL_LAYER, kernel)
                        self._patcher.replace(original, wrapped[id(original)], namespaces)
            yield self
        finally:
            self._patcher.restore()
            self.restore_leftovers = self._patcher.leftovers(namespaces)

    def _wrap(self, fn, layer, name):
        stats = self.stats.setdefault((layer, name), SpanStats())
        stack = self._stack
        is_step = layer == "hartree_fock" and name == STEP_FUNCTION
        after = {
            (KERNEL_LAYER, "fft"): self._count_fft,
            ("scenarios", "run_scenario"): self._time_preset,
        }.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            alloc = is_step and not self._alloc_measured and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            if is_step:
                self._step_depth += 1
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if is_step:
                    self._step_depth -= 1
                stats.calls += 1
                stats.calls_in_step += self._step_depth > 0
                stats.self_s += elapsed - frame[0]
                if alloc:
                    self.step_alloc_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    self._alloc_measured = True
                    tracemalloc.stop()
            if after is not None:
                after(args, kwargs, out, elapsed)
            return out

        return wrapper

    def _count_fft(self, args, kwargs, out, _elapsed):
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        n = out.size if axes is None else math.prod(out.shape[a] for a in axes)
        self.fft_points += out.size
        if self._step_depth:
            self.fft_points_in_step += out.size
        if n > 1:
            self.fft_flops += FFT_FLOPS_PER_POINT_LOG2 * out.size * math.log2(n)

    def _time_preset(self, args, kwargs, _out, elapsed):
        cfg = args[0] if args else kwargs["cfg"]
        self.preset_s[cfg.scenario] = self.preset_s.get(cfg.scenario, 0.0) + elapsed

    def get(self, layer: str, name: str) -> SpanStats:
        return self.stats.get((layer, name), SpanStats())

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for (lay, _), s in self.stats.items() if lay == layer)

    @property
    def step_calls(self) -> int:
        return self.get("hartree_fock", STEP_FUNCTION).calls
