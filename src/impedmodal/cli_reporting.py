"""Command-line front end and machine-readable report emission.

Runs the analysis pipeline end to end and writes CSV/JSON reports: the
mode list, per-mode participation heatmaps and element tables, layer-3
parameter tables, prediction-validation records and sweep trajectories.
All emitted numbers carry 12 significant digits so reports re-parse to the
printed precision, and a fixed run configuration yields byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import admittance_assembly as assembly
from . import mai_core, mass_oracle, network_model, rational_fit

__all__ = [
    "AnalysisConfig",
    "ConfigError",
    "HeatmapTable",
    "run",
    "run_sweep",
    "run_fit",
    "emit_heatmap",
    "sweep_report",
    "main",
]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (network_model.NetworkError,)
_NUMERICAL_ERRORS = (
    assembly.AssemblyError,
    mass_oracle.OracleError,
    rational_fit.FitError,
    rational_fit.RefinementError,
    rational_fit.ResidueError,
    mai_core.AnalysisError,
    np.linalg.LinAlgError,
)


class ConfigError(Exception):
    """Invalid analysis configuration."""


def _check_band(band: Optional[tuple[float, float]]) -> None:
    if band is not None:
        lo, hi = band
        if not (np.isfinite(hi) and 0 < lo < hi):
            raise ConfigError(f"band must be finite with 0 < min < max, got {lo}:{hi}")


def _check_band_given(net: network_model.NetworkDescription,
                      band: Optional[tuple[float, float]]) -> None:
    """The impedance-path mode search needs a band; the oracle does not."""
    if band is None and not mass_oracle.oracle_capable(net):
        raise ConfigError(
            "--band MIN:MAX is required when not every apparatus has a "
            "state-space realization (impedance-path mode search)"
        )


@dataclass
class AnalysisConfig:
    """Everything one ``analyze`` run needs; validated before running."""

    network_path: str
    band: Optional[tuple[float, float]] = None
    order: int = 16  # of the surrogates of sampled apparatus
    epsilon: float = 0.05
    modes: Optional[list[int]] = None  # None = all
    out_dir: str = "impedmodal_reports"
    validate_predictions: bool = True

    def check(self) -> None:
        _check_band(self.band)
        if self.order < 2:
            raise ConfigError(f"fit order must be >= 2, got {self.order}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.modes is not None and len(set(self.modes)) != len(self.modes):
            raise ConfigError(f"mode indices must not repeat, got {self.modes}")


@dataclass
class HeatmapTable:
    """n x n grid of optional participation values: diagonal cells carry the
    apparatus at that bus, off-diagonal cells the branch between the two
    buses, empty cells mean no such element exists."""

    n_buses: int
    cells: dict = field(default_factory=dict)  # (i, j) -> float
    notes: list = field(default_factory=list)

    def set(self, i: int, j: int, value: float) -> None:
        self.cells[(i, j)] = value


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def emit_heatmap(table: HeatmapTable) -> str:
    """Render a heatmap table as CSV with bus indices as header row/column."""
    n = table.n_buses
    rows = [[str(i)] + [""] * n for i in range(1, n + 1)]
    for (i, j), v in table.cells.items():
        if 1 <= i <= n and 1 <= j <= n:
            rows[i - 1][j] = _fmt(v)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["bus"] + [str(j) for j in range(1, n + 1)])
    writer.writerows(rows)
    for note in table.notes:
        writer.writerow(["note", note])
    return out.getvalue()


def _heatmaps_for_mode(net, reports):
    """Build the four per-mode heatmap tables from element layer reports.

    Parallel branches between the same bus pair are summed into the shared
    cell, with a note naming the aggregation; the long-form element table
    keeps them separate.
    """
    tables = {
        name: HeatmapTable(n_buses=net.n_buses)
        for name in ("layer1_cauchy", "layer1_enhanced", "layer2_real", "layer2_imag")
    }
    cells = [t.cells for t in tables.values()]
    pair_count: dict[tuple[int, int], int] = {}
    for rep in reports:
        loc = rep.location
        if loc.kind == "node":
            i = j = loc.i
        else:
            i, j = loc.i, loc.j
        values = (rep.layer1_cauchy, rep.layer1_enhanced, rep.layer2.real, rep.layer2.imag)
        pair = (min(i, j), max(i, j))
        pair_count[pair] = pair_count.get(pair, 0) + 1
        keys = ((i, j),) if i == j else ((i, j), (j, i))
        for table_cells, value in zip(cells, values):
            for key in keys:
                table_cells[key] = table_cells.get(key, 0.0) + value
    for (i, j), count in sorted(pair_count.items()):
        if count > 1 and i != j:
            for t in tables.values():
                t.notes.append(f"{count} parallel branches {i}-{j} summed")
    return tables


def _modes_csv(records) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["mode", "real", "imag", "frequency_hz", "provenance"])
    for k, rec in enumerate(records):
        writer.writerow(
            [
                str(k),
                _fmt(rec.lam.real),
                _fmt(rec.lam.imag),
                _fmt(rec.lam.imag / (2 * np.pi)),
                rec.provenance,
            ]
        )
    return out.getvalue()


def _elements_csv(reports) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["element", "location", "layer1_cauchy", "layer1_enhanced",
         "layer2_real", "layer2_imag", "epsilon"]
    )
    for rep in reports:
        loc = rep.location
        loc_str = f"{loc.kind}:{loc.i}" if loc.kind == "node" else f"{loc.kind}:{loc.i}-{loc.j}"
        writer.writerow(
            [
                rep.element,
                loc_str,
                _fmt(rep.layer1_cauchy),
                _fmt(rep.layer1_enhanced),
                _fmt(rep.layer2.real),
                _fmt(rep.layer2.imag),
                _fmt(rep.epsilon),
            ]
        )
    return out.getvalue()


def _layer3_csv(reports) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["element", "parameter", "s_rho_real", "s_rho_imag"])
    for rep in reports:
        for param in sorted(rep.layer3):
            s_rho = rep.layer3[param]
            writer.writerow([rep.element, param, _fmt(s_rho.real), _fmt(s_rho.imag)])
    return out.getvalue()


def sweep_report(steps) -> str:
    """CSV trajectory of a parameter sweep; the trailing ``endpoints`` row
    carries the overall start and end modes."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["step", "rho_before", "rho_after", "predicted_real", "predicted_imag",
         "actual_real", "actual_imag", "error_percent"]
    )
    for st in steps:
        writer.writerow(
            [
                str(st.step),
                _fmt(st.rho_before),
                _fmt(st.rho_after),
                _fmt(st.predicted.real),
                _fmt(st.predicted.imag),
                _fmt(st.actual.real),
                _fmt(st.actual.imag),
                _fmt(100.0 * st.error),
            ]
        )
    if steps:
        start = steps[0].lam_before
        end = steps[-1].actual
        writer.writerow(
            ["endpoints", _fmt(steps[-1].rho_after), "",
             _fmt(start.real), _fmt(start.imag), _fmt(end.real), _fmt(end.imag), ""]
        )
    return out.getvalue()


def _load_network(path: str) -> network_model.NetworkDescription:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read network file '{path}': {exc}")
    return network_model.parse_network(text, base_dir=str(Path(path).parent))


def _apparatus_overrides(net, order: int):
    """Rational surrogates for sampled apparatus so modes can be refined at
    complex s; other model kinds evaluate directly."""
    overrides = {}
    for idx, app in enumerate(net.apparatus):
        if isinstance(app.model, network_model.SampledResponse):
            surrogate = rational_fit.fit_apparatus_surrogate(app.model, order=order)
            T = assembly.frame_rotation(app.theta)
            overrides[idx] = (
                lambda s, m=surrogate, T=T: T @ m.evaluate(s) @ T.T
            )
    return overrides


def run(config: AnalysisConfig) -> int:
    """Run the full analysis pipeline and write the report files.

    Deterministic for identical inputs: fixed element/mode ordering, no free
    random state.
    """
    config.check()
    net = _load_network(config.network_path)
    out_dir = Path(config.out_dir)
    _check_band_given(net, config.band)
    overrides = _apparatus_overrides(net, config.order)
    records = mai_core.solve_modes(net, band=config.band, apparatus_overrides=overrides or None)
    if not records:
        raise mai_core.AnalysisError("no modes found in the requested band")

    selected = list(range(len(records))) if config.modes is None else list(config.modes)
    for k in selected:
        if not 0 <= k < len(records):
            raise ConfigError(
                f"mode index {k} does not exist: {len(records)} modes found"
            )

    files: list[str] = []

    def emit(name: str, text: str) -> None:
        _write_text(out_dir / name, text)
        files.append(name)

    emit("modes.csv", _modes_csv(records))

    refs = assembly.network_elements(net)
    for k in selected:
        reports = mai_core.mode_layer_reports(
            net, records[k], refs, epsilon=config.epsilon, apparatus_overrides=overrides or None
        )
        emit(f"mode{k}_elements.csv", _elements_csv(reports))
        emit(f"mode{k}_layer3.csv", _layer3_csv(reports))
        for name, table in _heatmaps_for_mode(net, reports).items():
            emit(f"mode{k}_{name}.csv", emit_heatmap(table))
    if config.validate_predictions:
        outcomes = mai_core.validate_mode_predictions(
            net, [records[k] for k in selected], refs, epsilon=config.epsilon,
            apparatus_overrides=overrides or None, reference_modes=[r.lam for r in records],
        )
        validation: dict = {"epsilon": config.epsilon, "modes": []}
        labels = [assembly.element_label(net, ref) for ref in refs]
        for k, mode_outcomes in zip(selected, outcomes):
            entries = []
            for label, v in zip(labels, mode_outcomes):
                if isinstance(v, Exception):
                    entries.append({"element": label, "error": str(v)})
                    continue
                entries.append(
                    {
                        "element": label,
                        "predicted": [v.predicted.real, v.predicted.imag],
                        "actual": [v.actual.real, v.actual.imag],
                        "error_percent": round(100.0 * v.error, 9),
                    }
                )
            lam = records[k].lam
            validation["modes"].append(
                {"mode": k, "lambda": [lam.real, lam.imag], "elements": entries}
            )
        emit("validation.json", json.dumps(validation, indent=2) + "\n")

    summary = {
        "network": os.path.basename(config.network_path),
        "n_buses": net.n_buses,
        "band": list(config.band) if config.band else None,
        "order": config.order,
        "epsilon": config.epsilon,
        "n_modes": len(records),
        "selected_modes": selected,
        "files": files,
    }
    _write_text(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def run_sweep(
    network_path: str,
    branch: tuple[int, int],
    param: str,
    factor: float,
    n_steps: int,
    out_dir: str,
    mode_seed: Optional[complex] = None,
    band: Optional[tuple[float, float]] = None,
) -> int:
    if not (np.isfinite(factor) and factor > 0):
        raise ConfigError(f"factor must be finite and positive, got {factor}")
    if n_steps < 0:
        raise ConfigError(f"steps must be >= 0, got {n_steps}")
    _check_band(band)
    net = _load_network(network_path)
    _check_band_given(net, band)
    index = None
    for idx, b in enumerate(net.branches):
        if {b.from_bus, b.to_bus} == set(branch):
            index = idx
            break
    if index is None:
        raise ConfigError(f"no branch between buses {branch[0]} and {branch[1]}")
    steps = mai_core.parameter_sweep(net, index, param, factor, n_steps,
                                     mode_seed=mode_seed, band=band)
    _write_text(Path(out_dir) / "sweep.csv", sweep_report(steps))
    return EXIT_OK


def run_fit(samples_path: str, order: int, n_iterations: int, out_dir: str) -> int:
    if order < 1:
        raise ConfigError(f"fit order must be >= 1, got {order}")
    if n_iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {n_iterations}")
    try:
        text = Path(samples_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read samples file '{samples_path}': {exc}")
    samples = rational_fit.ResponseSamples(*network_model.read_response_csv(text))
    model = rational_fit.vector_fit(samples, order=order, n_iterations=n_iterations)
    payload = {
        "order": order,
        "poles": [[p.real, p.imag] for p in model.poles],
        "rms_rel_error": model.rms_rel_error,
        "max_rel_deviation": model.max_rel_deviation,
        "converged": model.converged,
        "warning": model.warning,
        "residues": [
            [[[z.real, z.imag] for z in row] for row in R] for R in model.residues
        ],
        "const": [[[z.real, z.imag] for z in row] for row in model.const],
        "linear": [[[z.real, z.imag] for z in row] for row in model.linear],
    }
    _write_text(Path(out_dir) / "fit.json", json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_band(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise ConfigError(f"band must be MIN:MAX, got '{text}'")


def _parse_modes(text: str) -> Optional[list[int]]:
    if text == "all":
        return None
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"modes must be 'all' or a comma-separated index list, got '{text}'")


def _default_out(explicit: Optional[str]) -> str:
    if explicit:
        return explicit
    return os.environ.get("IMPEDMODAL_OUT", "impedmodal_reports")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impedmodal",
        description="Impedance-based modal analysis of power networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="modes, participation layers and validation")
    p.add_argument("network")
    p.add_argument("--band", default=None, help="mode-search band MIN:MAX in rad/s")
    p.add_argument("--order", type=int, default=16, help="sampled-apparatus surrogate order")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--modes", default="all")
    p.add_argument("--out", default=None)
    p.add_argument("--no-validate", action="store_true",
                   help="skip the re-solve prediction validation")

    p = sub.add_parser("sweep", help="repeated branch-parameter scaling with predictions")
    p.add_argument("network")
    p.add_argument("--branch", required=True, help="bus pair I:J")
    p.add_argument("--param", required=True, choices=["L", "R"])
    p.add_argument("--factor", required=True, type=float)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--mode-seed", default=None, help="starting mode RE:IM")
    p.add_argument("--band", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("fit", help="vector-fit a sampled response CSV")
    p.add_argument("samples")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--out", default=None)
    return parser


def _error_report(kind: str, exc: Exception) -> None:
    report = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(report), file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            config = AnalysisConfig(
                network_path=args.network,
                band=_parse_band(args.band) if args.band else None,
                order=args.order,
                epsilon=args.epsilon,
                modes=_parse_modes(args.modes),
                out_dir=_default_out(args.out),
                validate_predictions=not args.no_validate,
            )
            return run(config)
        if args.command == "sweep":
            try:
                i, j = args.branch.split(":")
                branch = (int(i), int(j))
            except ValueError:
                raise ConfigError(f"branch must be I:J, got '{args.branch}'")
            seed = None
            if args.mode_seed:
                try:
                    re_s, im_s = args.mode_seed.split(":")
                    seed = complex(float(re_s), float(im_s))
                except ValueError:
                    raise ConfigError(f"mode seed must be RE:IM, got '{args.mode_seed}'")
            return run_sweep(
                args.network,
                branch,
                args.param,
                args.factor,
                args.steps,
                out_dir=_default_out(args.out),
                mode_seed=seed,
                band=_parse_band(args.band) if args.band else None,
            )
        if args.command == "fit":
            return run_fit(
                args.samples, args.order, args.iterations, out_dir=_default_out(args.out)
            )
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, *_INPUT_ERRORS) as exc:
        _error_report("input", exc)
        return EXIT_INPUT
    except _NUMERICAL_ERRORS as exc:
        _error_report("numerical", exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
