"""Spans around the program's public functions, for the traced run.

:class:`Tracer` replaces each traced function with a wrapper that opens a
span on entry and closes it on exit, in every ``regnets`` module that
binds it, and puts the originals back on :meth:`Tracer.uninstall`.  No
source file is edited.  A span's self time is its duration minus the
durations of the spans opened inside it; the tracer keeps per-name sums
of self time and call counts in memory.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a name of None is worked out per call
FUNCTIONS = (
    ("radon", "assemble_matrix", "radon.assemble_matrix"),
    ("radon", "gen_phantom", "radon.gen_phantom"),
    ("linop", "svd_decompose", "linop.svd_decompose"),
    ("storage", "write_operator", "storage.write_operator"),
    ("storage", "read_operator", "storage.read_operator"),
    ("storage", "read_model", "storage.read_model"),
    ("storage", "write_model", "storage.write_model"),
    ("network", "grad_backprop", "network.grad_backprop"),
    ("network", "sgd_momentum_step", "network.sgd_momentum_step"),
    ("network", "lipschitz_upper_bound", "network.lipschitz_upper_bound"),
    ("network", "forward_batch", "network.forward_batch"),
    ("analysis", "evaluate_testset", "analysis.evaluate_testset"),
    ("analysis", "rate_experiment", "analysis.rate_experiment"),
    ("analysis", "distance_function", "analysis.distance_function"),
)
METHODS = (
    ("regnet", "ReconstructionMethod", "reconstruct"),
    ("filters", "FilterRegularizer", "coefficients"),
    ("filters", "FilterRegularizer", "synthesize"),
)


def conv_flops(arch, batch: int) -> int:
    """Floating-point operations of the 3x3 convolutions in one
    grad_backprop call: the forward pass and the weight gradient of every
    layer, and the input gradient of every layer but the first."""
    plane = 2 * 9 * batch * arch.grid**2
    chans = arch.channels
    pairs = list(zip(chans[:-1], chans[1:]))
    return sum(plane * cin * cout * (2 if li == 0 else 3) for li, (cin, cout) in enumerate(pairs))


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.flops = 0
        self._stack = []  # [name, start, child seconds]
        self._restore = []

    # spans
    def open(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self):
        name, start, child = self._stack.pop()
        span = time.perf_counter() - start
        self.self_s[name] += span - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += span
        return span

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    # patching
    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {n: sys.modules[f"regnets.{n}"] for n in ("radon", "linop", "storage", "network", "analysis", "regnet", "filters")}
        bound = [m for n, m in sys.modules.items() if n == "regnets" or n.startswith("regnets.")]
        for mod, attr, name in FUNCTIONS:
            original = getattr(mods[mod], attr)
            wrapper = self._wrap_backprop(original) if attr == "grad_backprop" else self.wrap(name, original)
            for m in bound:  # also the `from .x import f` bindings
                if getattr(m, attr, None) is original:
                    self._set(m, attr, wrapper)

        regnet = mods["regnet"]
        projection = regnet.residual_projection

        def residual_projection(*args, **kwargs):
            project = projection(*args, **kwargs)
            return None if project is None else self.wrap("regnet.project", project)

        self._set(regnet, "residual_projection", residual_projection)

        for mod, cls_name, attr in METHODS:
            cls = getattr(mods[mod], cls_name)
            self._set(cls, attr, self._wrap_method(f"{mod}.{attr}", getattr(cls, attr), attr == "reconstruct"))

    def _wrap_backprop(self, fn):
        traced = self.wrap("network.grad_backprop", fn)

        @functools.wraps(fn)
        def counted(params, inputs, *args, **kwargs):
            rows = 1 if getattr(inputs, "ndim", 2) == 1 else len(inputs)
            self.flops += conv_flops(params.arch, rows)
            return traced(params, inputs, *args, **kwargs)

        return counted

    def _wrap_method(self, name, fn, per_variant):
        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            self.open(f"{name}.{obj.variant}" if per_variant else name)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self.close()

        return traced

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
