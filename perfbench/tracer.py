"""Span tracing of yamstab from outside the package.

`Tracer.installed()` rebinds every public function of the traced modules, in
every namespace that binds it (module globals, the package namespace and
dicts held there such as `cli.RUNNERS`), to a wrapper that records one span
per call: name, module, start, end, parent and the exception type if one
escaped.  The dense entry points `scipy.linalg.{cho_factor, cho_solve, solve,
eigh}` and `numpy.linalg.qr` become spans of the `linalg` layer; each call is
also counted, with the n^3 of its leading dimension, under the innermost open
span of a yamstab module.  Leaving the context restores every binding.

Matrix products written with `@` (for example `Z.T @ H @ Z` in the Newton
solves) are not function calls into a module and cannot be counted from
outside; their cost shows up only as self time of the span that runs them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy.linalg
import scipy.linalg

import yamstab
from yamstab import cli, disc, energy, lsred, minimize, model, spectrum, stability

MODULES = {"model": model, "disc": disc, "energy": energy, "minimize": minimize,
           "spectrum": spectrum, "lsred": lsred, "stability": stability, "cli": cli}

# dense kernels counted per calling module; cho_solve is O(n^2) per right-hand
# side and so adds no n^3 term
LINALG = ((scipy.linalg, "cho_factor", True), (scipy.linalg, "cho_solve", False),
          (scipy.linalg, "solve", True), (scipy.linalg, "eigh", True),
          (numpy.linalg, "qr", True))

# public classes whose construction does real work, traced as a span
CONSTRUCTORS = ((lsred.ReductionChart, "lsred"),)

# spans whose return values feed per-layer metrics
KEEP_RESULTS = ("minimize.minimize_energy", "lsred.reduced_energy",
                "stability.sample_deficit_distance")


class Tracer:
    """In-memory span store with per-module dense-kernel counters."""

    def __init__(self):
        self.spans: list[list] = []   # [name, module, start, end, parent, error]
        self.stack: list[int] = []
        self.linalg: dict[str, Counter] = defaultdict(Counter)
        self.results: dict[str, list] = defaultdict(list)

    def _caller_module(self) -> str:
        for idx in reversed(self.stack):
            if self.spans[idx][1] != "linalg":
                return self.spans[idx][1]
        return "bench"

    def _wrap(self, fn, name: str, module: str, n3: bool | None = None):
        tracer = self
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if n3 is not None:
                counts = tracer.linalg[tracer._caller_module()]
                counts[name.split(".")[1] + "_calls"] += 1
                if n3:
                    counts["dense_n3"] += int(args[0].shape[0]) ** 3
            idx = len(tracer.spans)
            span = [name, module, time.perf_counter(), None,
                    tracer.stack[-1] if tracer.stack else None, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if keep:
                tracer.results[name].append(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the block; restore all bindings after."""
        undo = []
        wrapped = {}
        for mod_name, mod in MODULES.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = self._wrap(fn, f"{mod_name}.{attr}", mod_name)
        namespaces = [vars(yamstab)] + [vars(mod) for mod in MODULES.values()]
        namespaces += [val for ns in list(namespaces) for val in ns.values()
                       if isinstance(val, dict) and val is not ns]
        for ns in namespaces:
            for key, val in list(ns.items()):
                if id(val) in wrapped and wrapped[id(val)].__wrapped__ is val:
                    undo.append((ns.__setitem__, key, val))
                    ns[key] = wrapped[id(val)]
        for mod, attr, n3 in LINALG:
            fn = getattr(mod, attr)
            undo.append((functools.partial(setattr, mod), attr, fn))
            setattr(mod, attr, self._wrap(fn, f"linalg.{attr}", "linalg", n3))
        for cls, mod_name in CONSTRUCTORS:
            init = cls.__init__
            undo.append((functools.partial(setattr, cls), "__init__", init))
            cls.__init__ = self._wrap(init, f"{mod_name}.{cls.__name__}", mod_name)
        try:
            yield self
        finally:
            for setter, key, val in reversed(undo):
                setter(key, val)

    # ------------------------------------------------------------------
    # summaries

    def module_times(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per module.

        Inclusive time counts each span whose ancestors hold no span of the
        same module; self time is a span's duration minus its children's.
        """
        inclusive, self_s = Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, mod, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for idx, (name, mod, start, end, parent, _) in enumerate(self.spans):
            self_s[mod] += end - start - child[idx]
            up = parent
            while up is not None and self.spans[up][1] != mod:
                up = self.spans[up][4]
            if up is None:
                inclusive[mod] += end - start
        return dict(inclusive), dict(self_s)

    def span_seconds(self, name: str) -> float:
        """Summed duration of the outermost spans with this name."""
        total = 0.0
        for name_, _, start, end, parent, _ in self.spans:
            if name_ != name:
                continue
            up = parent
            while up is not None and self.spans[up][0] != name:
                up = self.spans[up][4]
            if up is None:
                total += end - start
        return total

    def calls(self, name: str, error: str | None = None) -> int:
        return sum(1 for s in self.spans
                   if s[0] == name and (error is None or s[5] == error))

    def signature(self) -> dict:
        """Deterministic part of the trace: span and dense-kernel counts."""
        return {"spans": dict(sorted(Counter(s[0] for s in self.spans).items())),
                "linalg": {mod: dict(sorted(c.items()))
                           for mod, c in sorted(self.linalg.items()) if c}}

    def write(self, path: str):
        """One JSON line per span, times in seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, mod, start, end, parent, err) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "module": mod,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent, "error": err}) + "\n")
