"""Timing spans around the public functions of every ``brdfnqm`` module.

Nothing in the package is edited. ``Tracer.install`` replaces each public
function of each imported ``brdfnqm`` module with a wrapper that records a
span, in the function's home module and in every other package module that
bound the same function by name (``cli`` binds ``load_merl``, ``read_table``
and friends; ``synth`` binds ``halfdiff_to_io_arrays``). ``nn.train`` reaches
``forward``/``backward``/``adam_step`` and ``synth.iter_dataset`` reaches
``tabulate``/``distort`` through module globals, so every call is timed.
``Tracer.restore`` puts every original back.

A span's self time is its duration minus the time of its direct child spans,
so ``synth.tabulate`` excludes the ``geometry`` call inside it and
``pairio.read_pair`` excludes the ``tables.read_table`` calls inside it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "brdfnqm"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans of the enclosing span, -1 at top level
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


def _forward_name(args, kwargs):
    return "nn.forward_" + kwargs.get("mode", args[2] if len(args) > 2 else "eval")


def _distort_name(args, kwargs):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return "synth.distort." + spec.kind.value


# span names that depend on the arguments; every other function is "<module>.<name>"
_NAMERS = {("nn", "forward"): _forward_name, ("synth", "distort"): _distort_name}


def _count_merl_write(counters, args, kwargs, result):
    counters["merl.bytes_written"] += os.path.getsize(str(kwargs.get("path", args[1])))


def _count_merl_read(counters, args, kwargs, result):
    counters["merl.bytes_read"] += os.path.getsize(str(kwargs.get("path", args[0])))


def _count_grazing(counters, args, kwargs, result):
    counters["sampling.grazing_candidates"] += len(args[0])
    counters["sampling.grazing_kept"] += len(result)


def _count_forward(counters, args, kwargs, result):
    if _forward_name(args, kwargs) == "nn.forward_train":
        model, batch = args[0], args[1]
        counters["nn.batch_rows_max"] = max(counters["nn.batch_rows_max"], len(batch))
        # dense-layer multiply-adds of one step: 2 FLOPs each forward, 4 backward
        macs = sum(w.shape[0] * w.shape[1] for w in model.weights)
        counters["nn.step_flops"] = 6 * counters["nn.batch_rows_max"] * macs


def _count_adam(counters, args, kwargs, result):
    model, grads, state = args[0], args[1], args[2]
    total = 0
    for key in ("weights", "biases", "gammas", "betas"):
        for p, g, m, v in zip(getattr(model, key), grads[key], state.m[key], state.v[key]):
            # parameters, m and v are read and written; the gradient is read
            total += 2 * p.nbytes + g.nbytes + 2 * m.nbytes + 2 * v.nbytes
    counters["nn.adam_bytes"] = total


_OBSERVERS = {
    ("merl", "save_merl"): _count_merl_write,
    ("merl", "load_merl"): _count_merl_read,
    ("sampling", "filter_grazing"): _count_grazing,
    ("nn", "forward"): _count_forward,
    ("nn", "adam_step"): _count_adam,
}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {
        attr: obj for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__
    }


class Tracer:
    """Collects spans and counters in memory; install/restore the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.seconds

    def _wrap(self, short: str, attr: str, fn):
        namer = _NAMERS.get((short, attr))
        observer = _OBSERVERS.get((short, attr))
        fixed = f"{short}.{attr}"
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(namer(args, kwargs) if namer else fixed):
                result = fn(*args, **kwargs)
            if observer:
                observer(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public package function wherever the package binds it."""
        if self._patched:
            raise RuntimeError("wrappers already installed")
        modules = package_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in public_functions(mod).items():
                wrappers[id(fn)] = (fn, self._wrap(short, attr, fn))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, obj))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            out[s.name].append(s)
        return out
