"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions of each `moninf` module
with wrappers that time them. A function imported by name into another
module is a second reference to it, so the wrapper goes into every
module namespace that holds the original (for example `mth_roots` in
`cyclo`, `infinity` and `cyclic`). Methods are wrapped on their class.

A span's self time is its duration minus the durations of the wrapped
calls made inside it. Every `_s` metric is a self time, except
`cli.main_s`, the whole of each CLI call. Spans nest only inside one
thread, which is all the program uses.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable


def _call_count(metric: str) -> Callable:
    def hook(args, kwargs, result, totals) -> None:
        totals[metric] += 1
    return hook


def _assemble_counts(args, kwargs, report, totals) -> None:
    totals["infinity.beta_vectors"] += len(report.entries)
    totals["infinity.operator_dim"] += report.total_dim


def _defect_counts(args, kwargs, defect, totals) -> None:
    pts, q = args[0], args[1] if len(args) > 1 else kwargs["q"]
    totals["defect.matrix_cells"] += len(pts) * math.comb(pts.dim + q, pts.dim)
    totals["defect.defect_sum"] += defect


def _oracle_counts(args, kwargs, result, totals) -> None:
    structure, order = args[0], args[1] if len(args) > 1 else kwargs["order"]
    totals["oracle.comparisons"] += 1
    totals["oracle.matrix_dim_sum"] += structure.total_dim * order


def _level_counts(args, kwargs, result, totals) -> None:
    matrix, candidates = args[0], args[1]
    level = math.lcm(matrix.level, *(root.den for root in candidates))
    totals["oracle.max_level"] = max(totals["oracle.max_level"], level)


# (module, attribute, self-time metric, count hook); a dotted attribute
# names a method.
SPANS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("moninf.cli", "main", "cli.self_s", None),
    ("moninf.infinity", "parse_problem", "infinity.parse_problem_s", None),
    ("moninf.infinity", "assemble", "infinity.assemble_self_s", _assemble_counts),
    ("moninf.infinity", "charpoly_local_formula",
     "infinity.charpoly_local_formula_s", None),
    ("moninf.infinity", "zeta_of_top_form", "infinity.zeta_of_top_form_s", None),
    ("moninf.infinity", "check_block_size_limits",
     "infinity.check_block_size_limits_s", None),
    ("moninf.infinity", "Report.to_json", "infinity.report_to_json_s", None),
    ("moninf.localsing", "local_monodromy", "localsing.local_monodromy_s",
     _call_count("localsing.local_monodromy_calls")),
    ("moninf.jordan", "JordanStructure.char_poly", "jordan.char_poly_s", None),
    ("moninf.jordan", "JordanStructure.to_json", "jordan.to_json_s", None),
    ("moninf.defect", "nodal_beta", "defect.nodal_beta_s", None),
    ("moninf.defect", "defect_of_system", "defect.defect_of_system_self_s",
     _defect_counts),
    ("moninf.defect", "monomial_exponents", "defect.monomial_exponents_s", None),
    ("moninf.oracle", "verify_cyclic_agreement",
     "oracle.verify_cyclic_agreement_s", _oracle_counts),
    ("moninf.oracle", "build_jordan_matrix", "oracle.build_matrices_s", None),
    ("moninf.oracle", "build_cyclic_matrix", "oracle.build_matrices_s", None),
    ("moninf.oracle", "jordan_type", "oracle.jordan_type_s", _level_counts),
    ("moninf.cyclic", "cyclic_power", "cyclic.cyclic_power_s", None),
)

# Called too often for a span to be cheap: counted only.
CALL_COUNTS = (("moninf.cyclo", "mth_roots", "cyclo.mth_roots_calls"),)

# Metrics the wrappers fill in, in report order; the worker adds
# `cli.report_bytes` and run.py adds `trace.overhead_s`.
METRICS = ("cli.main_s",) + tuple(dict.fromkeys(
    [metric for _, _, metric, _ in SPANS] + [
        "infinity.beta_vectors", "infinity.operator_dim",
        "localsing.local_monodromy_calls", "cyclo.mth_roots_calls",
        "defect.matrix_cells", "defect.defect_sum",
        "oracle.comparisons", "oracle.matrix_dim_sum", "oracle.max_level"]))


class Tracer:
    """Wraps the program's functions and sums span times per metric."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.patched: list[str] = []
        self._stack: list[list[float]] = []  # [start, time in child spans]
        self.reset()

    def reset(self) -> None:
        self.totals = dict.fromkeys(METRICS, 0)

    def _span(self, fn: Callable, metric: str, hook: Callable | None,
              root: bool) -> Callable:
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                totals = self.totals
                totals[metric] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if root:
                    totals["cli.main_s"] += elapsed
            if hook is not None:
                hook(args, kwargs, result, self.totals)
            return result
        return wrapper

    def _counter(self, fn: Callable, metric: str) -> Callable:
        def wrapper(*args, **kwargs):
            self.totals[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, module_name: str, attribute: str,
                 make: Callable[[Callable], Callable]) -> None:
        module = sys.modules[module_name]
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(module, cls_name)
            self._set(cls, method, make(getattr(cls, method)),
                      f"{module_name}.{attribute}")
            return
        original = getattr(module, attribute)
        wrapper = make(original)
        for name, other in sorted(sys.modules.items()):
            if name.startswith("moninf") and \
                    getattr(other, attribute, None) is original:
                self._set(other, attribute, wrapper, f"{name}.{attribute}")

    def _set(self, owner: object, attribute: str, value: object,
             label: str) -> None:
        setattr(owner, attribute, value)
        self.patched.append(label)

    def install(self) -> None:
        """Wrap every function named in CALL_COUNTS and SPANS."""
        for module_name, attribute, metric in CALL_COUNTS:
            self._replace(module_name, attribute,
                          lambda fn, metric=metric: self._counter(fn, metric))
        for module_name, attribute, metric, hook in SPANS:
            root = (module_name, attribute) == ("moninf.cli", "main")
            self._replace(
                module_name, attribute,
                lambda fn, m=metric, h=hook, r=root: self._span(fn, m, h, r))
