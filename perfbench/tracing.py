"""Spans and counters recorded from outside the program.

The tracer replaces functions of `forge` modules with wrappers.  A function
that another module imported by name (`sweep.build_generic_element`,
`toraldata.build_extension`, the `cli` imports) is re-bound there too, so
every call path goes through the wrapper.  Spans are kept in memory as
(name, start_ns, end_ns, parent_index) and handed over once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Optional

# metric prefix -> (module, qualified name); one prefix may cover several functions
SPANNED = (
    ("sweep.run_sweep", "forge.sweep", "run_sweep"),
    ("sweep.sweep_point", "forge.sweep", "sweep_point"),
    ("sweep.SweepConfig.grid", "forge.sweep", "SweepConfig.grid"),
    ("sweep.report_to_json", "forge.sweep", "report_to_json"),
    ("rootsys.build_root_system", "forge.rootsys", "build_root_system"),
    ("rootsys.minus_one_in_W_delta", "forge.rootsys", "minus_one_in_W_delta"),
    ("rootsys.weyl_from_word", "forge.rootsys", "weyl_from_word"),
    ("ffield.construct", "forge.ffield", "FieldExtension.__init__"),
    ("ffield.generator_search", "forge.ffield", "FieldExtension.multiplicative_generator"),
    ("ffield.find_trace_zero_generator", "forge.ffield", "FieldExtension.find_trace_zero_generator"),
    ("ffield.pow", "forge.ffield", "FieldExtension.pow"),
    ("toraldata.build_generic_element", "forge.toraldata", "build_generic_element"),
    ("toraldata.verify_datum", "forge.toraldata", "verify_datum"),
    ("toraldata.verify_genericity", "forge.toraldata", "verify_genericity"),
    ("toraldata.verify_galois_descent", "forge.toraldata", "verify_galois_descent"),
    ("toraldata.twist_datum", "forge.toraldata", "twist_datum"),
    ("toraldata.datum_from_json", "forge.toraldata", "datum_from_json"),
    ("congruence.model", "forge.congruence", "builtin_free_model"),
    ("congruence.model", "forge.congruence", "builtin_nonfree_model"),
    ("congruence.model", "forge.congruence", "builtin_cyclic_model"),
    ("congruence.model", "forge.congruence", "builtin_zero_lambda_model"),
    ("congruence.build_space", "forge.congruence", "build_space"),
    ("congruence.verify_congruence_theorem", "forge.congruence", "verify_congruence_theorem"),
    ("congruence.decompose_rational", "forge.congruence", "decompose_rational"),
    ("congruence.quotient_map_check", "forge.congruence", "quotient_map_check"),
    ("congruence.nonconstant_check", "forge.congruence", "nonconstant_check"),
    ("cuspcheck.elliptic_seed", "forge.cuspcheck", "elliptic_seed"),
    ("cuspcheck.lambda_character", "forge.cuspcheck", "lambda_character"),
    ("cuspcheck.unipotent_support_profiles", "forge.cuspcheck", "unipotent_support_profiles"),
    ("cuspcheck.cusp_integral_check", "forge.cuspcheck", "cusp_integral_check"),
    ("cuspcheck.fourier_support_check", "forge.cuspcheck", "fourier_support_check"),
    ("depthcalc.torus_power_filtration", "forge.depthcalc", "torus_power_filtration"),
    ("depthcalc.factor_level_map", "forge.depthcalc", "factor_level_map"),
    ("depthcalc.character_image_order", "forge.depthcalc", "character_image_order"),
    ("depthcalc.TruncatedRing.norm_to_unramified", "forge.depthcalc", "TruncatedRing.norm_to_unramified"),
)

# hot kernels: a call count and no span
COUNTED = (
    ("ffield.mul.calls", "forge.ffield", "FieldExtension.mul"),
    ("ffield.frobenius.calls", "forge.ffield", "FieldExtension.frobenius"),
    ("ffield.add.calls", "forge.ffield", "FieldExtension.add"),
    ("linalg.solve_unit_pivot.calls", "forge.linalg", "solve_unit_pivot"),
    ("linalg.det.calls", "forge.linalg", "det"),
    ("cuspcheck.log_truncated.calls", "forge.cuspcheck", "log_truncated"),
    ("cuspcheck.exp_truncated.calls", "forge.cuspcheck", "exp_truncated"),
    ("cyclotomic.CycloInt.canonical.calls", "forge.cyclotomic", "CycloInt.canonical"),
)

# each candidate of the generator search is made by one from_int call
CANDIDATES = ("ffield.generator_candidates", "forge.ffield", "FieldExtension.from_int")

# counts and ratios that are not spans: (name, unit, better)
DERIVED = (
    ("cli.import.s", "s", "lower"),
    ("rootsys.build_root_system.misses", "count", "lower"),
    ("ffield.build_extension.calls", "count", "lower"),
    ("ffield.build_extension.hit_ratio", "ratio", "higher"),
    ("ffield.generator_candidates", "count", "lower"),
    ("toraldata.coroot_rows", "count", "lower"),
    ("toraldata.descent_rows", "count", "lower"),
    ("sweep.run_sweep.warm_s", "s", "lower"),
    ("toraldata.verify_datum.warm_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run prints: (name, unit, better)."""
    out = []
    for prefix in dict.fromkeys(name for name, _, _ in SPANNED):
        out += [
            (f"{prefix}.calls", "count", "lower"),
            (f"{prefix}.s", "s", "lower"),
            (f"{prefix}.self_s", "s", "lower"),
        ]
    out += [(name, "count", "lower") for name, _, _ in COUNTED]
    return out + list(DERIVED)


def _resolve(module: str, qualname: str):
    owner = sys.modules[module]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps functions in place; records spans and counters in memory."""

    def __init__(self, package: str = "forge"):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- wrappers -------------------------------------------------------------
    def _span(self, name: str, fn: Callable, on_result: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable, under: Optional[str]) -> Callable:
        counts, spans, stack = self.counts, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if under is None or (stack and spans[stack[-1]][0] == under):
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, module: str, qualname: str, wrapper_of: Callable) -> None:
        owner, attr = _resolve(module, qualname)
        orig = getattr(owner, attr)
        wrapped = wrapper_of(orig)
        setattr(owner, attr, wrapped)
        # re-bind copies imported by name into other modules of the package
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def span(self, name: str, module: str, qualname: str, on_result: Optional[Callable] = None) -> None:
        self._install(module, qualname, lambda fn: self._span(name, fn, on_result))

    def count(self, name: str, module: str, qualname: str, under: Optional[str] = None) -> None:
        self._install(module, qualname, lambda fn: self._count(name, fn, under))

    # -- the forge layers -------------------------------------------------------
    def install_forge_layers(self) -> None:
        row_counts = {
            "toraldata.verify_genericity": ("toraldata.coroot_rows", "coroot_rows"),
            "toraldata.verify_galois_descent": ("toraldata.descent_rows", "descent_rows"),
        }
        for name, module, qualname in SPANNED:
            hook = None
            if name in row_counts:
                counter, field = row_counts[name]
                hook = functools.partial(self._add_rows, counter, field)
            self.span(name, module, qualname, hook)
        for name, module, qualname in COUNTED:
            self.count(name, module, qualname)
        name, module, qualname = CANDIDATES
        self.count(name, module, qualname, under="ffield.generator_search")

    def _add_rows(self, counter: str, field: str, report) -> None:
        self.counts[counter] += len(getattr(report, field))
