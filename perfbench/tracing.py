"""Span tracing from outside the package.

The tracer swaps wrappers in for the public functions named in ``TARGETS``
(and for ``minimize`` as the ``divergence`` and ``verify`` modules bind it),
in every module of the package that binds them, and restores the originals
on ``uninstall``. Nothing under ``src/`` is edited. Spans are kept in memory
as ``[name, layer, start, end, parent, attrs]`` and written out when the run
ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

PACKAGE = "qmultimeter"
LAYERS = ("linalg", "quantum", "groups", "postprocessing", "divergence", "verify")


def _dual_bytes(args, out):
    # computed, not measured: one dense complex128 operator of the dual's size
    return {"bytes": out.shape[0] * out.shape[1] * 16}


def _converged(args, out):
    return {"converged": bool(out.converged)}


def _trials(args, out):
    return {"trials": int(out.trials)}


def _nm_result(args, out):
    return {"nfev": int(out.nfev), "success": bool(out.success)}


# (span name, module defining it, attribute path in that module, recorder)
TARGETS = (
    ("linalg.tensor", "linalg", "tensor", None),
    ("linalg.require_hermitian", "linalg", "require_hermitian", None),
    ("quantum.program", "quantum", "program", None),
    ("quantum.fidelity", "quantum", "fidelity", None),
    ("quantum.dual_matrix", "quantum", "QuantumChannel.dual_matrix", _dual_bytes),
    # dataclass __init__ calls __post_init__ through the class, so this times
    # the validation of every instance wherever it is built
    ("quantum.Observable", "quantum", "Observable.__post_init__", None),
    ("quantum.DensityState", "quantum", "DensityState.__post_init__", None),
    ("groups.covariant_multimeter", "groups", "covariant_multimeter", None),
    ("groups.eigenvector_program_states", "groups", "eigenvector_program_states", None),
    ("groups.coset_postprocessing", "groups", "coset_postprocessing", None),
    ("postprocessing.post_process_observable", "postprocessing", "post_process_observable", None),
    ("divergence.observable_divergence", "divergence", "observable_divergence", _converged),
    ("verify.verify_prop1", "verify", "verify_prop1", _trials),
    ("verify.verify_prop3", "verify", "verify_prop3", _trials),
    ("verify.sharpmin_bound", "verify", "sharpmin_bound", None),
    ("verify.phase_space_demo", "verify", "phase_space_demo", None),
)

# scipy's optimizer, wrapped only where each module binds it
MINIMIZERS = (
    ("divergence.nm", "divergence"),
    ("verify.sharpmin.nm", "verify"),
)


class Tracer:
    """Installs span wrappers into the imported package and collects spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap(self, name: str, fn, record):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if record is not None:
                span[5] = record(args, out)
            return out

        return traced

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for name, module, path, record in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr], record))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, record)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patch(m, attr, wrapper)
        for name, module in MINIMIZERS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            self._patch(owner, "minimize", self._wrap(name, owner.minimize, _nm_result))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Root span recorded by the benchmark itself around one op."""
        span = [name, "bench", time.perf_counter(), 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, layer, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "layer": layer, "start": start,
                       "end": end, "parent": parent}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


class OpSummary:
    """Per-name and per-layer totals over a sequence of traced ops."""

    def __init__(self):
        self.ops = 0
        self.calls: dict = {}
        self.busy: dict = {}
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.attrs: dict = {}

    def add(self, spans: list, first: int):
        """Fold in the spans of one op, which start at index ``first``."""
        self.ops += 1
        child_time = [0.0] * (len(spans) - first)
        for i in range(first, len(spans)):
            parent = spans[i][4]
            if parent >= first:
                child_time[parent - first] += spans[i][3] - spans[i][2]
        for i in range(first, len(spans)):
            name, layer, start, end, parent, attrs = spans[i]
            duration = end - start
            if layer in self.self_time:
                self.self_time[layer] += duration - child_time[i - first]
            self.calls[name] = self.calls.get(name, 0) + 1
            if not _nested_in_same(spans, i, name):
                self.busy[name] = self.busy.get(name, 0.0) + duration
            for key, value in (attrs or {}).items():
                slot = self.attrs.setdefault(name, {})
                slot[key] = slot.get(key, 0) + value

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def attr(self, name: str, key: str):
        return self.attrs.get(name, {}).get(key, 0)


def _nested_in_same(spans, i, name) -> bool:
    parent = spans[i][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False


def _ratio(num, den) -> float:
    # a ratio whose base is zero on a workload (no runs, no trials) reads 0
    return float(num) / den if den else 0.0


def layer_metrics(window: OpSummary, total: OpSummary) -> dict:
    """Per-layer metrics: counts per op over the fixed ``window`` of traced ops
    (they repeat exactly for a seed), times per op over ``total``."""
    k, n = window.ops, total.ops

    def calls(name):
        return _ratio(window.count(name), k)

    def busy(name):
        return _ratio(total.busy.get(name, 0.0), n)

    def self_s(layer):
        return _ratio(total.self_time[layer], n)

    nm_runs = window.count("divergence.nm")
    estimates = window.count("divergence.observable_divergence")
    trials = total.attr("verify.verify_prop1", "trials") + total.attr("verify.verify_prop3", "trials")
    return {
        "linalg.tensor.calls": (calls("linalg.tensor"), "count/op"),
        "linalg.tensor.busy_s": (busy("linalg.tensor"), "s/op"),
        "linalg.require_hermitian.calls": (calls("linalg.require_hermitian"), "count/op"),
        "linalg.self_s": (self_s("linalg"), "s/op"),
        "quantum.program.calls": (calls("quantum.program"), "count/op"),
        "quantum.program.busy_s": (busy("quantum.program"), "s/op"),
        "quantum.dual_matrix.calls": (calls("quantum.dual_matrix"), "count/op"),
        "quantum.dual_matrix.busy_s": (busy("quantum.dual_matrix"), "s/op"),
        "quantum.dual_bytes": (_ratio(window.attr("quantum.dual_matrix", "bytes"), k), "B/op"),
        "quantum.Observable.calls": (calls("quantum.Observable"), "count/op"),
        "quantum.Observable.busy_s": (busy("quantum.Observable"), "s/op"),
        "quantum.DensityState.calls": (calls("quantum.DensityState"), "count/op"),
        "quantum.fidelity.busy_s": (busy("quantum.fidelity"), "s/op"),
        "quantum.self_s": (self_s("quantum"), "s/op"),
        "groups.covariant_multimeter.busy_s": (busy("groups.covariant_multimeter"), "s/op"),
        "groups.eigenvector_program_states.calls": (calls("groups.eigenvector_program_states"), "count/op"),
        "groups.eigenvector_program_states.busy_s": (busy("groups.eigenvector_program_states"), "s/op"),
        "groups.coset_postprocessing.busy_s": (busy("groups.coset_postprocessing"), "s/op"),
        "groups.self_s": (self_s("groups"), "s/op"),
        "postprocessing.post_process_observable.calls": (calls("postprocessing.post_process_observable"), "count/op"),
        "postprocessing.post_process_observable.busy_s": (busy("postprocessing.post_process_observable"), "s/op"),
        "postprocessing.self_s": (self_s("postprocessing"), "s/op"),
        "divergence.observable_divergence.busy_s": (busy("divergence.observable_divergence"), "s/op"),
        "divergence.nm_runs": (calls("divergence.nm"), "count/op"),
        "divergence.nfev": (_ratio(window.attr("divergence.nm", "nfev"), k), "count/op"),
        "divergence.nm.busy_s": (busy("divergence.nm"), "s/op"),
        "divergence.s_per_eval": (
            _ratio(total.busy.get("divergence.nm", 0.0), total.attr("divergence.nm", "nfev")), "s"),
        "divergence.nm_converged_ratio": (_ratio(window.attr("divergence.nm", "success"), nm_runs), "ratio"),
        "divergence.unconverged_ratio": (
            _ratio(estimates - window.attr("divergence.observable_divergence", "converged"), estimates),
            "ratio"),
        "divergence.self_s": (self_s("divergence"), "s/op"),
        "verify.verify_prop1.busy_s": (busy("verify.verify_prop1"), "s/op"),
        "verify.verify_prop3.busy_s": (busy("verify.verify_prop3"), "s/op"),
        "verify.self_s": (self_s("verify"), "s/op"),
        "verify.trials_per_s": (_ratio(trials, total.self_time["verify"]), "1/s"),
        "verify.sharpmin_bound.busy_s": (busy("verify.sharpmin_bound"), "s/op"),
        "verify.sharpmin.nm_runs": (calls("verify.sharpmin.nm"), "count/op"),
        "verify.sharpmin.nfev": (_ratio(window.attr("verify.sharpmin.nm", "nfev"), k), "count/op"),
    }
