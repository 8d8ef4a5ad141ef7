"""Per-layer spans recorded around csdtc's public functions, from outside the package.

`Tracer.install` replaces each listed function at every ``csdtc.*`` module
attribute that holds it, so calls made through ``from .circuit import
require_valid`` style imports are traced as well. Nothing inside ``src/``
changes. Spans (name, start, end, parent) stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict


def _nnz(result):
    return result.matrix.nnz


def _dim(result):
    return result[1].shape[0]


def _is_complex(result):
    return 1.0 if result[1].dtype.kind == "c" else 0.0


def _iterations(result):
    return result.iterations


# (module, function, {metric suffix: (reader of the return value, aggregate)})
TRACED_FUNCTIONS = (
    ("circuit", "load_params", {}),
    ("circuit", "require_valid", {}),
    ("circuit", "derive_junction_energies", {}),
    ("circuit", "build_capacitance_matrix", {}),
    ("circuit", "charging_matrix", {}),
    ("hamiltonian", "assemble_hamiltonian", {"nnz": (_nnz, statistics.median)}),
    ("hamiltonian", "uncoupled_hamiltonian", {}),
    (
        "spectrum",
        "solve_lowest",
        {"dim": (_dim, statistics.median), "complex_share": (_is_complex, statistics.fmean)},
    ),
    ("spectrum", "label_states", {}),
    ("spectrum", "spectrum_at", {}),
    ("spectrum", "zz_interaction", {}),
    ("spectrum", "sweep_flux", {}),
    ("spectrum", "sweep_c34", {}),
    ("spectrum", "write_spectrum_csv", {}),
    ("spectrum", "write_flux_zz_csv", {}),
    ("spectrum", "write_c34_zz_csv", {}),
    ("perturbative", "two_mode_reduction", {}),
    ("perturbative", "zero_coupling_c34", {"iterations": (_iterations, statistics.median)}),
    ("rb", "read_trace_csv", {}),
    ("rb", "fit_decay", {}),
    ("rb", "full_budget", {}),
    ("rb", "budget_to_dict", {}),
    ("rb", "write_budget_json", {}),
    ("cli", "main", {}),
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, func, readers in TRACED_FUNCTIONS:
        names += [f"{module}.{func}.calls", f"{module}.{func}.self_s"]
        names += [f"{module}.{func}.{suffix}" for suffix in readers]
    return names + ["trace.overhead_s"]


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, summed self time) for spans given as (name, start, end, parent)."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, tuple[int, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        own = (end - start) - covered_length(start, end, children[index])
        calls, seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, seconds + own)
    return totals


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func, readers):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            for suffix, (read, _) in readers.items():
                try:
                    value = float(read(result))
                except (AttributeError, TypeError, IndexError, KeyError):
                    continue
                self.values[f"{name}.{suffix}"].append(value)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function that exists; record the ones that do not."""
        modules = [m for key, m in list(sys.modules.items()) if key == "csdtc" or key.startswith("csdtc.")]
        for module_name, func_name, readers in TRACED_FUNCTIONS:
            name = f"{module_name}.{func_name}"
            try:
                original = getattr(importlib.import_module(f"csdtc.{module_name}"), func_name)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, readers)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls and self seconds of each function, plus observed values."""
        totals = self_times(self.spans)
        metrics = {}
        for module_name, func_name, readers in TRACED_FUNCTIONS:
            name = f"{module_name}.{func_name}"
            calls, seconds = totals.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = calls / passes
            metrics[f"{name}.self_s"] = seconds / passes
            for suffix, (_, aggregate) in readers.items():
                observed = self.values.get(f"{name}.{suffix}")
                metrics[f"{name}.{suffix}"] = aggregate(observed) if observed else 0.0
        return metrics

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
