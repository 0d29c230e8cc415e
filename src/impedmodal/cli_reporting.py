"""Command-line front end and machine-readable report emission.

Runs the analysis pipeline end to end and writes CSV/JSON reports: the
mode list, per-mode element tables with their sums per bus pair, layer-3
parameter tables, prediction-validation records and sweep trajectories.
All emitted numbers carry 12 significant digits so reports re-parse to the
printed precision, and a fixed run configuration yields byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import admittance_assembly as assembly
from . import mai_core, mass_oracle, network_model, rational_fit

__all__ = [
    "AnalysisConfig",
    "ConfigError",
    "run",
    "run_sweep",
    "run_fit",
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
        if self.modes is not None and not self.modes:
            raise ConfigError("modes must be 'all' or name at least one index")
        if self.modes is not None and len(set(self.modes)) != len(self.modes):
            raise ConfigError(f"mode indices must not repeat, got {self.modes}")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _literal(text: str) -> str:
    """``text`` as literal text of a %-format template."""
    return text.replace("%", "%%")


# one report number: 12 significant digits, as _fmt
_NUMBER = "%.12g"
_LAYERS = "layer1_cauchy,layer1_enhanced,layer2_real,layer2_imag"
_ELEMENTS_HEAD = f"element,location,{_LAYERS},epsilon\n"


class _ModeWriter:
    """Renders each mode's element, layer-3 and bus-pair files from its
    :class:`mai_core.ModeLayers`. What depends on the elements alone is
    prepared once per run: each file is a %-format template with a number
    field wherever a mode's value goes.

    The bus-pair table has one row per bus pair i <= j that holds an
    element: a branch sits on its two buses, an apparatus or shunt on (i, i).
    Elements that share a pair (parallel branches, or the node elements of
    one bus) are summed into its row in element order, and ``elements``
    counts them; the element table keeps them apart.
    """

    def __init__(self, net, epsilon: float):
        table = assembly.StampTable(net)
        refs, i, j = table.refs, table.i.tolist(), table.j.tolist()
        self.labels = [assembly.element_label(net, ref) for ref in refs]
        # a branch of ratio other than 1 is a transformer; a shunt or an apparatus sits on a node
        kinds = ["node" if e >= table.n_branches else "branch" if k == 1.0 else "transformer"
                 for e, k in enumerate(table.ratio.tolist())]
        tail = _literal(f",{epsilon:.12g}\n")
        numbers = ",".join([_NUMBER] * 4)
        self.elements = _ELEMENTS_HEAD + "".join(
            _literal(f"{label},{kind}:{a}" + (f"-{b}," if b else ",")) + numbers + tail
            for label, kind, a, b in zip(self.labels, kinds, i, j))
        entries = [(e, c, f"{label},{name},")
                   for e, (label, (kind, _)) in enumerate(zip(self.labels, refs))
                   for c, name in enumerate(mai_core.LAYER3_PARAMS[kind])]
        self.layer3 = "element,parameter,s_rho_real,s_rho_imag\n" + "".join(
            f"{_literal(row)}{_NUMBER},{_NUMBER}\n" for _, _, row in entries)
        self.layer3_at = tuple(np.array([(e, c) for e, c, _ in entries], dtype=int)
                               .reshape(-1, 2).T)
        # a node element (j = 0) sits on pair (i, i)
        ij = np.sort([(a, b or a) for a, b in zip(i, j)], axis=1)
        pairs, self.pair_of = np.unique(ij, axis=0, return_inverse=True)
        self.n_pairs = len(pairs)
        self.bus_pairs = f"bus_i,bus_j,elements,{_LAYERS}\n" + "".join(
            f"{i},{j},{count},{numbers}\n"
            for (i, j), count in zip(pairs.tolist(), np.bincount(self.pair_of).tolist()))

    def files(self, layers: mai_core.ModeLayers):
        """(suffix, text) of each of one mode's report files."""
        l2 = layers.layer2
        values = np.stack([layers.layer1_cauchy, layers.layer1_enhanced, l2.real, l2.imag], -1)
        yield "elements", self.elements % tuple(values.ravel().tolist())
        # a complex array viewed as float interleaves real and imaginary parts
        yield "layer3", self.layer3 % tuple(layers.layer3[self.layer3_at].view(float).tolist())
        sums = np.zeros((self.n_pairs, 4))
        np.add.at(sums, self.pair_of, values)
        yield "bus_pairs", self.bus_pairs % tuple(sums.ravel().tolist())


def _csv(header: str, rows) -> str:
    """CSV text of a header line and rows of fields that need no quoting."""
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


def _modes_csv(records) -> str:
    return _csv("mode,real,imag,frequency_hz,provenance", (
        [str(k), *map(_fmt, (r.lam.real, r.lam.imag, r.lam.imag / (2 * np.pi))), r.provenance]
        for k, r in enumerate(records)))


def sweep_report(steps) -> str:
    """CSV trajectory of a parameter sweep; the trailing ``endpoints`` row
    carries the overall start and end modes."""
    rows = [[str(st.step), *map(_fmt, (st.rho_before, st.rho_after, st.predicted.real,
                                       st.predicted.imag, st.actual.real, st.actual.imag,
                                       100.0 * st.error))] for st in steps]
    if steps:
        start, end = steps[0].lam_before, steps[-1].actual
        rows.append(["endpoints", _fmt(steps[-1].rho_after), "", _fmt(start.real),
                     _fmt(start.imag), _fmt(end.real), _fmt(end.imag), ""])
    return _csv("step,rho_before,rho_after,predicted_real,predicted_imag,actual_real,"
                "actual_imag,error_percent", rows)


def _json_list(items: list, indent: str) -> str:
    """Encoded, indented ``items`` as ``json.dumps(..., indent=2)`` lists them."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


# entries and modes of validation.json as json.dumps(doc, indent=2) lays them
# out: %-format templates, with <element>, <error> and <elements> standing
# for literal text
_ERROR_ENTRY = '        {\n          "element": <element>,\n          "error": <error>\n        }'
_RECORD_ENTRY = ('        {\n          "element": <element>,\n          "predicted": [\n'
                 '            %s,\n            %s\n          ],\n          "actual": [\n'
                 '            %s,\n            %s\n          ],\n          "error_percent": %s\n'
                 '        }')
_MODE = ('    {\n      "mode": %s,\n      "lambda": [\n        %s,\n        %s\n      ],\n'
         '      "elements": <elements>\n    }')


def _validation_json(epsilon, labels, indices, modes, outcomes):
    """validation.json of the ``outcomes`` (one per element of ``labels``) of
    ``modes`` (numbered ``indices``), as pieces of text to write in turn, one
    per mode: together ``json.dumps(doc, indent=2) + "\\n"`` of {"epsilon",
    "modes": [{"mode", "lambda", "elements"}]}, written from its fixed
    layout, one template per mode with a field for each number: with an
    indent, the standard encoder walks the document in pure Python."""
    names = [json.dumps(label).replace("%", "%%") for label in labels]
    records = [_RECORD_ENTRY.replace("<element>", name) for name in names]
    every_record = _MODE.replace("<elements>", _json_list(records, " " * 6))
    yield '{\n  "epsilon": ' + json.dumps(epsilon) + ',\n  "modes": '
    separator = "[\n"
    for k, mode, row in zip(indices, modes, outcomes):
        entries, numbers = [], [k, mode.lam.real, mode.lam.imag]
        for name, record, v in zip(names, records, row):
            if isinstance(v, Exception):
                entries.append(_ERROR_ENTRY.replace("<element>", name)
                               .replace("<error>", json.dumps(str(v)).replace("%", "%%")))
            else:
                entries.append(record)
                numbers += (v.predicted.real, v.predicted.imag, v.actual.real, v.actual.imag,
                            round(100.0 * v.error, 9))
        if not np.isfinite(numbers).all():  # json.dumps spells these NaN, Infinity, -Infinity
            numbers = [x if np.isfinite(x) else json.dumps(x) for x in numbers]
        template = (every_record if entries == records
                    else _MODE.replace("<elements>", _json_list(entries, " " * 6)))
        yield separator + template % tuple(numbers)
        separator = ",\n"
    yield "[]\n}\n" if separator == "[\n" else "\n  ]\n}\n"


def _load_network(path: str) -> network_model.NetworkDescription:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read network file '{path}': {exc}")
    return network_model.parse_network(text, base_dir=str(Path(path).parent))


def _fittable(samples: network_model.SampledResponse,
              order: int) -> network_model.SampledResponse:
    """``samples``, checked to hold the 2 x ``order`` points a rational fit
    of ``order`` needs."""
    n = samples.frequencies.size
    if n < 2 * order:
        raise ConfigError(f"fit order {order} needs at least {2 * order} samples, got {n}")
    return samples


def _with_surrogates(net: network_model.NetworkDescription,
                     order: int) -> network_model.NetworkDescription:
    """``net`` with each sampled apparatus replaced by its fitted rational
    surrogate of ``order``, so that modes can be refined at complex s."""
    apparatus = tuple(
        replace(app, model=rational_fit.fit_apparatus_surrogate(_fittable(app.model, order),
                                                                order=order))
        if isinstance(app.model, network_model.SampledResponse) else app
        for app in net.apparatus
    )
    return replace(net, apparatus=apparatus)


def run(config: AnalysisConfig) -> int:
    """Run the full analysis pipeline and write the report files.

    Deterministic for identical inputs: fixed element/mode ordering, no free
    random state.
    """
    config.check()
    net = _load_network(config.network_path)
    out_dir = Path(config.out_dir)
    _check_band_given(net, config.band)
    net = _with_surrogates(net, config.order)
    system = mai_core.oracle_system(net)
    records = mai_core.solve_modes(net, band=config.band, system=system)
    if not records:
        raise mai_core.AnalysisError("no modes found in the requested band")

    selected = list(range(len(records))) if config.modes is None else list(config.modes)
    for k in selected:
        if not 0 <= k < len(records):
            raise ConfigError(
                f"mode index {k} does not exist: {len(records)} modes found"
            )

    files: list[str] = []
    out_dir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, parts) -> None:
        """Write the pieces of text ``parts`` in turn to file ``name``."""
        with open(out_dir / name, "w", encoding="utf-8") as f:
            f.writelines(parts)
        files.append(name)

    emit("modes.csv", [_modes_csv(records)])

    writer = _ModeWriter(net, config.epsilon)
    modes = [records[k] for k in selected]
    for k, layers in zip(selected, mai_core.mode_layers(net, modes)):
        for suffix, text in writer.files(layers):
            emit(f"mode{k}_{suffix}.csv", [text])
    if config.validate_predictions:
        outcomes = mai_core.validate_mode_predictions(
            net, modes, assembly.network_elements(net), epsilon=config.epsilon,
            reference_modes=[r.lam for r in records], system=system,
        )
        emit("validation.json",
             _validation_json(config.epsilon, writer.labels, selected, modes, outcomes))

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
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
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
    matches = [idx for idx, b in enumerate(net.branches) if {b.from_bus, b.to_bus} == set(branch)]
    if not matches:
        raise ConfigError(f"no branch between buses {branch[0]} and {branch[1]}")
    if len(matches) > 1:
        raise ConfigError(f"{len(matches)} parallel branches between buses {branch[0]} and "
                          f"{branch[1]} (indices {', '.join(map(str, matches))}): a sweep "
                          "needs a bus pair joined by one branch")
    index = matches[0]
    # sampled apparatus as in analyze, at its default surrogate order
    net = _with_surrogates(net, AnalysisConfig.order)
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
    samples = network_model.SampledResponse(*network_model.read_response_csv(text))
    model = rational_fit.vector_fit(_fittable(samples, order), order=order,
                                    n_iterations=n_iterations)
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
