"""In-memory span tracing of impedmodal's public functions, from outside.

``Tracer.install`` replaces each traced function (or method) by a wrapper
in every package module that refers to it, so calls through ``from x
import f`` names are seen too; ``uninstall`` puts the originals back. A
span is (name, start, end, parent). Self time is a span's duration minus
its children's. A wrapper entered while the innermost open span has the
same name records nothing (``PerturbedModel.admittance`` calling
``super().admittance`` is one call).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute path, span name); span names are "<module>.<function>"
TRACED = [
    ("network_model", "parse_network", "network_model.parse_network"),
    ("admittance_assembly", "WholeSystemModel.admittance", "admittance_assembly.admittance"),
    ("admittance_assembly", "PerturbedModel.admittance", "admittance_assembly.admittance"),
    ("admittance_assembly", "WholeSystemModel.impedance", "admittance_assembly.impedance"),
    ("mass_oracle", "interconnect", "mass_oracle.interconnect"),
    ("mass_oracle", "eigendecompose", "mass_oracle.eigendecompose"),
    ("rational_fit", "sample_response", "rational_fit.sample_response"),
    ("rational_fit", "vector_fit", "rational_fit.vector_fit"),
    ("rational_fit", "fit_apparatus_surrogate", "rational_fit.fit_apparatus_surrogate"),
    ("rational_fit", "refine_mode", "rational_fit.refine_mode"),
    ("rational_fit", "find_modes", "rational_fit.find_modes"),
    ("rational_fit", "critical_resonance_mode", "rational_fit.critical_resonance_mode"),
    ("rational_fit", "admittance_residue", "rational_fit.admittance_residue"),
    ("mai_core", "solve_modes", "mai_core.solve_modes"),
    ("mai_core", "element_layer_report", "mai_core.element_layer_report"),
    ("mai_core", "validate_element_prediction", "mai_core.validate_element_prediction"),
    ("mai_core", "parameter_sweep", "mai_core.parameter_sweep"),
    ("cli_reporting", "main", "cli_reporting.main"),
    ("cli_reporting", "run", "cli_reporting.run"),
    ("cli_reporting", "run_sweep", "cli_reporting.run_sweep"),
]

LAYERS = ("network_model", "admittance_assembly", "mass_oracle", "rational_fit",
          "mai_core", "cli_reporting")


def _count_work(name: str, args, kwargs, result, counts) -> None:
    """Work counts taken from arguments and results at the span boundary."""
    if name == "rational_fit.sample_response":
        counts[name + ".points"] += len(args[1] if len(args) > 1 else kwargs["grid"])
    elif name == "rational_fit.vector_fit":
        counts[name + ".iterations"] += result.n_iterations_run
    elif name == "rational_fit.find_modes":
        counts[name + ".modes"] += len(result)
    elif name == "mass_oracle.interconnect":
        counts["mass_oracle.states"] = max(counts["mass_oracle.states"], result.n_states)


class Tracer:
    """Spans and counts of one traced stretch of work, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[tuple[str, int]] = []  # open (name, span index)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if name == "rational_fit.find_modes":
                seeds = list(args[1] if len(args) > 1 else kwargs.pop("seeds"))
                tracer.counts[name + ".seeds"] += len(seeds)
                args = (args[0], seeds) + tuple(args[2:])
            index = len(tracer.spans)
            parent = stack[-1][1] if stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent))
            stack.append((name, index))
            tracer.counts[name + ".calls"] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            _count_work(name, args, kwargs, result, tracer.counts)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "impedmodal" or key.startswith("impedmodal.")]
        for module_name, attr, name in TRACED:
            module = sys.modules[f"impedmodal.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._saved.append((owner, meth, original))
                setattr(owner, meth, self._wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, float]:
        """Per-function calls, failures, inclusive seconds and work counts,
        plus per-layer self seconds."""
        out: dict[str, float] = dict(self.counts)
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
            layer = name.split(".")[0] + ".self_s"
            out[layer] = out.get(layer, 0.0) + own
        return out

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}
