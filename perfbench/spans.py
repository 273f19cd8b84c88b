"""Span recording for the traced benchmark run, installed from outside the package.

install() replaces functions at the module attributes their callers look
up (``padic_lseries.lseries.is_prime``, ``padic_lseries.quadrature.
additive_character`` and so on) with wrappers that record one span per call:
name, start, end, parent span and request id, kept in flat integer arrays
and written out once at the end.  The untraced runs never import this
module, so they run the package untouched.

Besides the named hot paths, the public entry points each layer offers the
CLI are wrapped too, so that a layer's self time (its spans minus their
direct children) is not charged to whichever layer called it.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

# (span name, modules whose global the callers read); the layer is the
# part of the name before the first dot
TARGETS = (
    ("characters.enumerate_characters", ("cli", "modular", "selftest")),
    ("padic.circle_representatives", ("quadrature",)),
    ("padic.additive_character", ("quadrature", "selftest")),
    ("padic.padic_from_fraction", ("cli", "quadrature", "wavelets")),
    ("padic.is_prime", ("padic", "quadrature", "wavelets", "lseries")),
    ("quadrature.gamma_by_quadrature", ("cli", "selftest")),
    ("quadrature.integrate_circle", ("quadrature", "selftest")),
    ("quadrature.gamma_closed_form", ("cli", "selftest", "wavelets")),
    ("wavelets.apply_kernel", ("cli", "selftest")),
    ("wavelets.eigenvalue", ("cli", "lseries", "selftest")),
    ("wavelets.wavelet_eval", ("cli", "selftest")),
    ("wavelets.ket", ("cli", "selftest")),
    ("modular.delta_expansion", ("cli", "modular")),
    ("modular.delta_provider", ("cli", "selftest")),
    ("modular.factorize_local", ("cli", "lseries", "selftest")),
    ("lseries.euler_product", ("cli", "selftest")),
    ("lseries.dirichlet_series", ("cli", "selftest")),
    ("lseries.primes_up_to", ("lseries",)),
    ("lseries.local_factor_closed", ("cli", "lseries", "selftest")),
    ("lseries.local_trace", ("cli", "selftest")),
    ("lseries.hecke_conjugated_trace", ("cli", "selftest")),
    ("cli._render", ("cli",)),
    ("selftest.run_selftest", ("cli",)),
)
REQUEST_SPAN = "cli.run"
LAYERS = ("cli", "characters", "padic", "quadrature", "wavelets", "modular", "lseries")
SUBCOMMANDS = (
    "gamma", "eigencheck", "local-factor", "lseries", "tau", "factorize", "hecke-trace", "selftest",
)
COUNTED = (
    "characters.enumerate_characters",
    "padic.circle_representatives",
    "padic.additive_character",
    "padic.padic_from_fraction",
    "padic.is_prime",
    "quadrature.gamma_by_quadrature",
    "quadrature.integrate_circle",
    "wavelets.apply_kernel",
    "modular.delta_expansion",
    "modular.factorize_local",
    "lseries.euler_product",
    "lseries.dirichlet_series",
)

_WORK = ("calls", "reps", "cosets", "coeffs", "primes", "terms", "built")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every metric the traced run reports."""
    out = [("cli.self_s", "s", "lower"), ("cli.report_bytes", "bytes", "lower")]
    out += [(f"request.{sub}.p50_ms", "ms", "lower") for sub in SUBCOMMANDS]
    for name in COUNTED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.busy_s", "s", "lower"))
    out += [
        ("characters.built", "count", "lower"),
        ("characters.useful_share", "share", "higher"),
        ("padic.circle_representatives.reps", "count", "lower"),
        ("quadrature.integrate_circle.cosets", "count", "lower"),
        ("quadrature.zero_circle_share", "share", "lower"),
        ("modular.delta_expansion.coeffs", "count", "lower"),
        ("modular.recomputed_share", "share", "lower"),
        ("lseries.euler_product.primes", "count", "lower"),
        ("lseries.dirichlet_series.terms", "count", "lower"),
        ("lseries.primes_up_to.busy_s", "s", "lower"),
        ("lseries.local_factor_closed.calls", "count", "lower"),
    ]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "cli"]
    out.append(("trace.overhead_share", "share", "lower"))
    return out


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly for one commit and seed."""
    return name.rsplit(".", 1)[-1] in _WORK


class _UsedList(list):
    """The character list handed back to callers; marks each element used."""

    __slots__ = ("_recorder", "_seen")

    def __init__(self, items, recorder):
        super().__init__(items)
        self._recorder = recorder
        self._seen = bytearray(len(items))

    def _mark(self, indices) -> None:
        for i in indices:
            if not self._seen[i]:
                self._seen[i] = 1
                self._recorder.counts["characters.used"] += 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            self._mark(range(*key.indices(len(self))))
        else:
            self._mark((key % len(self),))
        return super().__getitem__(key)

    def __iter__(self):
        self._mark(range(len(self)))
        return super().__iter__()


class Recorder:
    """Spans in flat arrays: name id, start ns, end ns, parent index, request id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request_of = array("q")
        self._stack: list[int] = []
        self.request = -1
        self.counts = dict.fromkeys(
            ("characters.built", "characters.used", "padic.circle_representatives.reps",
             "quadrature.integrate_circle.cosets", "quadrature.zero_circle.cosets",
             "modular.delta_expansion.coeffs", "modular.recomputed.coeffs",
             "lseries.euler_product.primes", "lseries.dirichlet_series.terms"),
            0,
        )
        self._table_before = 0  # longest tau table built by earlier requests
        self._table_now = 0
        self._integrate_circle = self.name_id("quadrature.integrate_circle")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request_of.append(self.request)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def begin_request(self, request: int) -> None:
        self.request = request
        self._table_before = max(self._table_before, self._table_now)

    # per-call counters, fed the call's arguments and result

    def _count_characters(self, args, kwargs, result):
        self.counts["characters.built"] += len(result)
        return _UsedList(result, self)

    def _count_reps(self, args, kwargs, result):
        self.counts["padic.circle_representatives.reps"] += len(result)
        # the cosets an integrate_circle span sums over are the reps handed
        # to it; circles n <= -2 are the ones whose exact value is 0
        if self._stack and self.name[self._stack[-1]] == self._integrate_circle:
            self.counts["quadrature.integrate_circle.cosets"] += len(result)
            if result and result[0].valuation <= -2:
                self.counts["quadrature.zero_circle.cosets"] += len(result)
        return result

    def _count_coeffs(self, args, kwargs, result):
        n = len(result)
        self.counts["modular.delta_expansion.coeffs"] += n
        self.counts["modular.recomputed.coeffs"] += min(n, self._table_before)
        self._table_now = max(self._table_now, n)
        return result

    def _count_primes(self, args, kwargs, result):
        self.counts["lseries.euler_product.primes"] += result.terms_used
        return result

    def _count_terms(self, args, kwargs, result):
        self.counts["lseries.dirichlet_series.terms"] += result.terms_used
        return result

    def wrap(self, name: str, func, counter=None):
        name_id = self.name_id(name)
        opened, closed = self.open, self.close

        def traced(*args, **kwargs):
            index = opened(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                closed(index)
            return result if counter is None else counter(args, kwargs, result)

        return traced

    def summary(self) -> dict:
        """Per-layer figures of everything recorded so far."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += duration[i]
        calls = [0] * len(self.names)
        busy = [0] * len(self.names)
        self_ns = dict.fromkeys(LAYERS, 0)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            busy[k] += duration[i]
            layer = layer_of[k]
            if layer in self_ns:
                self_ns[layer] += duration[i] - child[i]
        by_name = {name: (calls[k], busy[k]) for k, name in enumerate(self.names)}
        out = {}
        for name in COUNTED:
            c, b = by_name.get(name, (0, 0))
            out[f"{name}.calls"] = c
            out[f"{name}.busy_s"] = b / 1e9
        counts = self.counts
        out["characters.built"] = counts["characters.built"]
        out["characters.useful_share"] = counts["characters.used"] / max(1, counts["characters.built"])
        out["padic.circle_representatives.reps"] = counts["padic.circle_representatives.reps"]
        cosets = counts["quadrature.integrate_circle.cosets"]
        out["quadrature.integrate_circle.cosets"] = cosets
        out["quadrature.zero_circle_share"] = counts["quadrature.zero_circle.cosets"] / max(1, cosets)
        coeffs = counts["modular.delta_expansion.coeffs"]
        out["modular.delta_expansion.coeffs"] = coeffs
        out["modular.recomputed_share"] = counts["modular.recomputed.coeffs"] / max(1, coeffs)
        out["lseries.euler_product.primes"] = counts["lseries.euler_product.primes"]
        out["lseries.dirichlet_series.terms"] = counts["lseries.dirichlet_series.terms"]
        out["lseries.primes_up_to.busy_s"] = by_name.get("lseries.primes_up_to", (0, 0))[1] / 1e9
        out["lseries.local_factor_closed.calls"] = by_name.get("lseries.local_factor_closed", (0, 0))[0]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        return out

    def dump(self, path: str) -> None:
        columns = {
            "name": self.name, "start_ns": self.start, "end_ns": self.end,
            "parent": self.parent, "request": self.request_of,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, **{k: v.tolist() for k, v in columns.items()}}, handle)


_COUNTERS = {
    "characters.enumerate_characters": Recorder._count_characters,
    "padic.circle_representatives": Recorder._count_reps,
    "modular.delta_expansion": Recorder._count_coeffs,
    "lseries.euler_product": Recorder._count_primes,
    "lseries.dirichlet_series": Recorder._count_terms,
}


def install() -> Recorder:
    """Wrap every target at each caller's module attribute; returns the recorder."""
    recorder = Recorder()
    for name, callers in TARGETS:
        layer, func_name = name.split(".", 1)
        original = getattr(importlib.import_module(f"padic_lseries.{layer}"), func_name, None)
        if original is None:
            continue  # the function is gone; its metrics read 0
        counter = _COUNTERS.get(name)
        wrapper = recorder.wrap(name, original, None if counter is None else counter.__get__(recorder))
        for caller in callers:
            module = importlib.import_module(f"padic_lseries.{caller}")
            # a caller that no longer reaches the function through this
            # attribute keeps its own binding
            if getattr(module, func_name, None) is original:
                setattr(module, func_name, wrapper)
    return recorder
