"""In-memory span tracer for nspyr's public functions.

The tracer replaces each public function of the layer modules with a
wrapper at every name the ``nspyr`` modules bind it to (``from .x import f``
makes a second binding, and a call through it would otherwise go
unseen).  Each call records a span: label, start, end and parent; a
span's self time is its duration minus the durations of its direct
children.  Spans stay in memory until :meth:`Tracer.aggregate`.

Some labels also record counts at the same boundary.  ``flops`` and
``bytes`` of a convolution are computed from the operand sizes, not
measured: ``flops = 2 * len(a) * len(b)`` (direct-form multiply-adds) and
``bytes = 8 * (len(a) + len(b) + len(out))`` (each operand read and the
result written once).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("sequences", "subdivision", "decimation", "pyramid", "geometry",
          "cli")
# Subcommand handlers get the subcommand's name.
_RENAME = {"cli.cmd_decompose": "cli.decompose",
           "cli.cmd_reconstruct": "cli.reconstruct"}


def _convolve_counts(counts, args, kwargs, result, state):
    a, b = args
    counts["sequences.convolve.flops"] += 2 * len(a) * len(b)
    counts["sequences.convolve.bytes"] += 8 * (len(a) + len(b) + len(result))


def _cache_size():
    return len(sys.modules["nspyr.decimation"]._filter_cache)


def _solve_gamma_counts(counts, args, kwargs, result, size_before):
    counts["decimation.solve_gamma.hits"] += _cache_size() == size_before
    counts["decimation.zeta_taps_total"] += len(result.zeta)


def _to_json_counts(counts, args, kwargs, result, state):
    counts["pyramid.json_bytes_total"] += len(result)


# label -> (state taken before the call, counter run after it)
_COUNTERS = {
    "sequences.convolve": (None, _convolve_counts),
    "decimation.solve_gamma": (_cache_size, _solve_gamma_counts),
    "pyramid.to_json": (None, _to_json_counts),
}


def _targets():
    """(label, owner, attribute, original) for everything traced."""
    nspyr = sys.modules["nspyr"]
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "nspyr"
                                     or name.startswith("nspyr."))]
    found = []
    for layer in LAYERS:
        mod = sys.modules.get(f"nspyr.{layer}")
        if mod is None:
            continue
        for name, fn in sorted(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            label = _RENAME.get(f"{layer}.{name}", f"{layer}.{name}")
            for owner in modules:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        found.append((label, owner, attr, fn))
    for cls in vars(nspyr.subdivision).values():
        if (inspect.isclass(cls) and issubclass(cls, nspyr.SchemeFamily)
                and "mask_at_level" in vars(cls)):
            found.append(("subdivision.mask_at_level", cls, "mask_at_level",
                          vars(cls)["mask_at_level"]))
    for attr in ("to_json", "from_json"):
        found.append((f"pyramid.{attr}", nspyr.Pyramid, attr,
                      vars(nspyr.Pyramid)[attr]))
    return found


class Tracer:
    """Span recorder; create it once the nspyr modules to trace are imported.

    :meth:`install` and :meth:`uninstall` may alternate any number of times;
    spans and counts accumulate across installs.
    """

    def __init__(self):
        # One entry per span, in start order; parent is an index or -1.
        self.labels, self.parents, self.starts, self.ends = [], [], [], []
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []
        self._targets = _targets()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, label, fn):
        labels, parents, starts, ends = (self.labels, self.parents,
                                         self.starts, self.ends)
        stack, counts = self._stack, self.counts
        clock = time.perf_counter
        before, after = _COUNTERS.get(label, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(labels)
            labels.append(label)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            state = before() if before else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            # A call re-entering itself (convolve swaps its operands) is
            # counted once, by the outer call.
            if after and not (parent >= 0 and labels[parent] == label):
                after(counts, args, kwargs, result, state)
            return result

        return wrapper

    def install(self):
        wrapped = {}
        for label, owner, attr, original in self._targets:
            key = id(original)
            if key not in wrapped:
                if isinstance(original, classmethod):
                    wrapped[key] = classmethod(
                        self._wrap(label, original.__func__))
                else:
                    wrapped[key] = self._wrap(label, original)
            setattr(owner, attr, wrapped[key])
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def aggregate(self):
        """Per-label ``{"calls": n, "self_s": t}`` over all recorded spans."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += duration
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for label, duration, inner in zip(self.labels, durations, child):
            out[label]["calls"] += 1
            out[label]["self_s"] += duration - inner
        return out
