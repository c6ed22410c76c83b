"""Span tracer for the per-layer run of the benchmark.

The tracer wraps every public function of the traced ``spinvar`` modules
from outside the library.  A function imported by name into another module
(``optimize`` imports ``eval_perturbed``, ``matcore`` calls its own
``cholesky``) is rebound there too, so every call site records a span.

Spans stay in memory in one flat ``array('d')`` of ``FIELDS`` numbers per
span and are written once, when the run ends.  One ``extend`` call adds a
span, so a timer signal that aborts an item can never leave the record
half written; ``close_item`` repairs the spans and the stack such an abort
leaves open.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "spinvar"
MODULES = ("matcore", "path", "functionals", "variation", "optimize", "continuous", "battery", "cli")
FIELDS = 6  # name id, parent span, item id, start, end, failed
_NAME, _PARENT, _ITEM, _START, _END, _FAILED = range(FIELDS)


def _minimize_hook(out, args, kwargs):
    """(iterations, converged, is last eps stage) of one minimize_fixed call."""
    eps = args[5] if len(args) > 5 else kwargs["eps"]
    opts = args[6] if len(args) > 6 else kwargs["opts"]
    return (out.iterations, int(out.converged), int(eps == opts.eps_schedule[-1]))


class Tracer:
    """Records one span per call of a public function of ``MODULES``.

    ``ignore`` lists exception types that abort an item from outside (the
    item deadline); they are not counted as failed calls.
    """

    def __init__(self, ignore=()):
        self.ignore = tuple(ignore)
        self.names: list[str] = []
        self.spans = array("d")
        self.extras: dict[int, tuple] = {}
        self.stack = [-1]
        self.item = -1
        self._item_first_span = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[obj] = self._wrap(obj, f"{short}.{attr}")
        targets = [importlib.import_module(PACKAGE)]
        targets += [importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self.stack
        extras = self.extras
        ignore = self.ignore
        hook = _minimize_hook if name == "optimize.minimize_fixed" else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) // FIELDS
            spans.extend((nid, stack[-1], tracer.item, clock(), 0.0, 0.0))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except ignore:
                raise
            except BaseException:
                spans[idx * FIELDS + _FAILED] = 1.0
                raise
            finally:
                spans[idx * FIELDS + _END] = clock()
                stack.pop()
            if hook is not None:
                extras[idx] = hook(out, args, kwargs)
            return out

        return traced

    # -- items -------------------------------------------------------------

    def open_item(self, item: int):
        self.item = item
        self._item_first_span = len(self.spans) // FIELDS
        del self.stack[1:]

    def close_item(self, t_end: float):
        """Close the spans an aborted item left open, and reset the stack."""
        for idx in range(self._item_first_span, len(self.spans) // FIELDS):
            if self.spans[idx * FIELDS + _END] == 0.0:
                self.spans[idx * FIELDS + _END] = t_end
        del self.stack[1:]
        self.item = -1

    # -- results -----------------------------------------------------------

    def table(self) -> np.ndarray:
        """The spans as an (n, FIELDS) view; take it only once tracing is over."""
        return np.frombuffer(self.spans, dtype=float).reshape(-1, FIELDS)

    def save(self, path: str):
        """Write the spans: times in integer nanoseconds from the first span."""
        tab = self.table()
        t0 = tab[0, _START] if len(tab) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=tab[:, _NAME].astype(np.int16),
            parent=tab[:, _PARENT].astype(np.int32),
            item=tab[:, _ITEM].astype(np.int32),
            start_ns=np.round((tab[:, _START] - t0) * 1e9).astype(np.int64),
            dur_ns=np.round((tab[:, _END] - tab[:, _START]) * 1e9).astype(np.int64),
            failed=tab[:, _FAILED].astype(bool),
        )

    def summary(self, item_labels: dict[int, str]) -> dict[str, float]:
        """Per-function counts and self times, plus the derived optimizer ratios.

        Keys are ``<module>.<function>.calls|self_s|failed|s``; ``s`` is the
        inclusive time.  ``battery.<check>.s`` sums the root spans of the
        items labelled with that check.
        """
        tab = self.table()
        nid = tab[:, _NAME].astype(np.int32)
        parent = tab[:, _PARENT].astype(np.int32)
        dur = tab[:, _END] - tab[:, _START]
        has_parent = parent >= 0
        covered = np.zeros(len(tab))
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        count = len(self.names)
        calls = np.bincount(nid, minlength=count)
        self_s = np.bincount(nid, weights=self_time, minlength=count)
        incl_s = np.bincount(nid, weights=dur, minlength=count)
        failed = np.bincount(nid, weights=tab[:, _FAILED], minlength=count)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.s"] = float(incl_s[i])
            out[f"{name}.failed"] = int(failed[i])

        ids = {name: i for i, name in enumerate(self.names)}
        parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

        def children_of(child: str, parent_name: str) -> int:
            return int(np.sum((nid == ids[child]) & (parent_nid == ids[parent_name])))

        minimize = list(self.extras.values())  # the only hooked function is minimize_fixed
        iterations = sum(v[0] for v in minimize)
        out["optimize.minimize_fixed.iterations"] = iterations
        out["optimize.minimize_fixed.converged_ratio"] = (
            sum(v[1] for v in minimize) / len(minimize) if minimize else 0.0
        )
        out["optimize.stage_last.iterations"] = sum(v[0] for v in minimize if v[2])
        evals = children_of("functionals.eval_perturbed", "optimize.minimize_fixed")
        grads = children_of("variation.grad_parisi", "optimize.minimize_fixed") + children_of(
            "variation.grad_cs", "optimize.minimize_fixed"
        )
        out["optimize.minimize_fixed.evals_per_iter"] = evals / iterations if iterations else 0.0
        out["optimize.minimize_fixed.grads_per_iter"] = grads / iterations if iterations else 0.0
        out["optimize.search.candidates"] = children_of("optimize.continuation", "optimize.search")

        for idx in np.flatnonzero(~has_parent):
            name = self.names[nid[idx]]
            label = item_labels.get(int(tab[idx, _ITEM]))
            if name.startswith("battery.check_") and label is not None:
                key = f"battery.{label}.s"
                out[key] = out.get(key, 0.0) + float(dur[idx])
        return out
