"""The benchmark's workloads and the checks on their outputs.

Each workload turns a seed into network files and the CLI calls of one
job, and knows how to check that job's reports against the benchmark's own
reference model (``netgen``). Why each workload exists is recorded in
``WHY`` and copied into BENCHMARK.json.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import netgen

WHY = {
    "oracle-analyze": (
        "analyze validating 3 modes of one 22-bus meshed ring, relabelled by the seed: time is "
        "in mai_core validation re-solving through mass_oracle; rational_fit is bypassed"
    ),
    "oracle-sweep": (
        "sweep of one line's L over 10 steps on a 30-bus ring: repeated solve_modes with "
        "per-mode Y(lambda) eig; no validation, the control for validation work"
    ),
    "impedance-analyze": (
        "analyze over 5:5000 rad/s on a 4-bus ring of rational apparatus and the shipped "
        "measured network: time is in rational_fit and Y assembly; mass_oracle unused"
    ),
    "large-report": (
        "analyze --no-validate, all modes, on a 40-bus meshed ring: the only workload where "
        "element_layer_report and report writing carry weight"
    ),
}

# A reported mode must make Y(lambda) singular to this relative level
# (smallest over largest singular value); modes are printed with 12 digits.
ZERO_TOL = 1e-8
# A reference mode is recalled when a reported mode lies this close,
# relative to |lambda|.
MATCH_TOL = 1e-7
BAND = (5.0, 5000.0)
SWEEP_STEPS = 10
# At 5 % (2 %) steps the sweep's tracking gate, 0.3 x the global minimum mode
# spacing, raised TrackingError on 1 of 10 (1 of 40) seeds. oracle-analyze
# measures that defect; this control workload has to finish on every seed.
SWEEP_FACTOR = 1.005


class CheckError(Exception):
    """A workload's output is wrong or incomplete."""


@dataclass
class Plan:
    """One job of a workload: its CLI calls and how to check their reports."""

    calls: list[list[str]]
    inputs: list[Path]  # network files parsed during set-up
    size: dict
    verify: Callable[[], tuple[float, float]] = field(repr=False)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_zeros(doc: dict, modes) -> None:
    """Every mode must be a zero of det Y(s) of the reference model."""
    for lam in modes:
        sv = np.linalg.svd(netgen.admittance(doc, lam), compute_uv=False)
        if not sv[-1] <= ZERO_TOL * sv[0]:
            raise CheckError(
                f"mode {lam} is not a zero of det Y: sigma_min/sigma_max = {sv[-1] / sv[0]:.3e}"
            )


def recalled(reported, reference) -> int:
    """Number of reference modes that some reported mode matches."""
    got = np.asarray(list(reported), dtype=complex)
    if got.size == 0:
        return 0
    return sum(
        1 for ref in reference if np.min(np.abs(got - ref)) <= MATCH_TOL * abs(ref)
    )


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_modes(report_dir: Path) -> list[complex]:
    return [complex(float(r["real"]), float(r["imag"])) for r in read_csv(report_dir / "modes.csv")]


def check_summary_files(report_dir: Path) -> dict:
    """Every file that summary.json lists exists and parses."""
    summary = json.loads((report_dir / "summary.json").read_text(encoding="utf-8"))
    if not summary["files"]:
        raise CheckError(f"{report_dir.name}: summary.json lists no files")
    for name in summary["files"]:
        path = report_dir / name
        if not path.is_file():
            raise CheckError(f"{report_dir.name}: listed file {name} is missing")
        text = path.read_text(encoding="utf-8")
        if name.endswith(".json"):
            json.loads(text)
        else:
            rows = list(csv.reader(text.splitlines()))
            if len(rows) < 2:
                raise CheckError(f"{report_dir.name}: {name} has no data rows")
    return summary


def validation_counts(report_dir: Path) -> tuple[int, int]:
    """(validations carrying a number, validations attempted)."""
    doc = json.loads((report_dir / "validation.json").read_text(encoding="utf-8"))
    entries = [e for m in doc["modes"] for e in m["elements"]]
    ok = sum(1 for e in entries if "error" not in e and math.isfinite(e["error_percent"]))
    return ok, len(entries)


def element_row_counts(report_dir: Path, summary: dict) -> tuple[int, int]:
    """(element-table rows whose numbers are all finite, rows)."""
    ok = total = 0
    for name in summary["files"]:
        if name.endswith("_elements.csv"):
            for row in read_csv(report_dir / name):
                total += 1
                values = [row[k] for k in row if k not in ("element", "location")]
                ok += all(math.isfinite(float(v)) for v in values)
    return ok, total


def _analyze_checks(report_dir: Path, twin: dict, reference, expect_validation: bool):
    """Checks shared by the analyze workloads; returns (recalled, ok, total)."""
    summary = check_summary_files(report_dir)
    modes = read_modes(report_dir)
    check_zeros(twin, modes)
    if expect_validation:
        ok, total = validation_counts(report_dir)
    else:
        ok, total = element_row_counts(report_dir, summary)
    if total == 0:
        raise CheckError(f"{report_dir.name}: nothing was validated")
    return recalled(modes, reference), ok, total


def modes_at_ranks(n_modes: int) -> list[int]:
    """Three mode indices at 1/6, 1/2 and 5/6 of the frequency-ordered list,
    one from the middle of each third, whatever the validation outcome."""
    return sorted({(2 * k + 1) * n_modes // 6 for k in range(3)})


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _state_count(doc: dict) -> int:
    return netgen.state_matrix(doc).shape[0]


def _elements(doc: dict) -> int:
    return len(doc["branches"]) + len(doc["shunts"]) + len(doc["apparatus"])


def oracle_analyze(seed: int, work: Path, root: Path) -> Plan:
    # The share of validations that raise TrackingError hangs on the closest
    # pair of modes in the network, so it swings from 0.3 to 0.8 between
    # networks drawn with different seeds. The network is therefore drawn
    # once (generator seed 0) and --seed relabels it: a different input file
    # with the same modes, which keeps that share comparable between runs.
    doc = netgen.relabel(netgen.generate(22, 0, n_chords=6), seed)
    net = netgen.write(doc, work / "oracle_22.json")
    reference = netgen.reference_modes(doc)
    selected = modes_at_ranks(len(reference))
    out = work / "reports" / "oracle_22"

    def verify():
        hits, ok, total = _analyze_checks(out, doc, reference, expect_validation=True)
        return hits / len(reference), ok / total

    return Plan(
        calls=[["analyze", str(net), "--modes", ",".join(map(str, selected)),
                "--out", str(out)]],
        inputs=[net],
        size={"buses": 22, "states": _state_count(doc), "elements": _elements(doc),
              "modes": len(reference), "validated_modes": len(selected)},
        verify=verify,
    )


def oracle_sweep(seed: int, work: Path, root: Path) -> Plan:
    doc = netgen.generate(30, seed)
    net = netgen.write(doc, work / "ring_30.json")
    out = work / "reports" / "sweep_30"
    branch = doc["branches"][0]  # the 1-2 line

    def step_doc(k: int) -> dict:
        d = json.loads(json.dumps(doc))
        d["branches"][0]["L"] = branch["L"] * SWEEP_FACTOR ** k
        return d

    def verify():
        rows = read_csv(out / "sweep.csv")
        steps = [r for r in rows if r["step"] != "endpoints"]
        if len(steps) != SWEEP_STEPS or rows[-1]["step"] != "endpoints":
            raise CheckError(f"sweep.csv has {len(steps)} steps, expected {SWEEP_STEPS}")
        tracked = [(0, complex(float(rows[-1]["predicted_real"]), float(rows[-1]["predicted_imag"])))]
        tracked += [
            (int(r["step"]), complex(float(r["actual_real"]), float(r["actual_imag"])))
            for r in steps
        ]
        hits = 0
        for k, lam in tracked:
            d = step_doc(k)
            check_zeros(d, [lam])
            hits += recalled(netgen.reference_modes(d), [lam])
        ok = sum(1 for r in steps if math.isfinite(float(r["error_percent"])))
        return hits / len(tracked), ok / len(steps)

    return Plan(
        calls=[["sweep", str(net), "--branch", "1:2", "--param", "L",
                "--factor", str(SWEEP_FACTOR), "--steps", str(SWEEP_STEPS), "--out", str(out)]],
        inputs=[net],
        size={"buses": 30, "states": _state_count(doc), "elements": _elements(doc),
              "modes": len(netgen.reference_modes(doc)), "steps": SWEEP_STEPS},
        verify=verify,
    )


def impedance_analyze(seed: int, work: Path, root: Path) -> Plan:
    band = f"{BAND[0]:g}:{BAND[1]:g}"
    # 4 buses, not 6: 6-bus jobs took 9-11 s, so a run held 2 of them and
    # runs spread 0.06; 4 buses take 2.2 s with the same fit order rule.
    ring = netgen.write(netgen.generate(4, seed, apparatus="rational"), work / "rational_4.json")
    ring_twin = netgen.generate(4, seed)
    measured = root / "networks" / "measured_two_bus.json"
    measured_twin = netgen.rl_twin_of_samples(
        json.loads(measured.read_text(encoding="utf-8")), measured.parent
    )
    cases = []
    for name, path, twin in (("rational_4", ring, ring_twin),
                             ("measured_two_bus", measured, measured_twin)):
        reference = netgen.reference_modes(twin, BAND)
        cases.append((name, path, twin, reference, work / "reports" / name))

    def verify():
        hits = ok = total = n_ref = 0
        for _, _, twin, reference, out in cases:
            h, o, t = _analyze_checks(out, twin, reference, expect_validation=True)
            hits, ok, total, n_ref = hits + h, ok + o, total + t, n_ref + len(reference)
        return hits / n_ref, ok / total

    return Plan(
        calls=[["analyze", str(path), "--band", band, "--order", str(2 * len(reference) + 4),
                "--out", str(out)] for _, path, _, reference, out in cases],
        inputs=[ring, measured],
        size={"buses": "4+2", "states": _state_count(ring_twin) + _state_count(measured_twin),
              "elements": _elements(ring_twin) + _elements(measured_twin),
              "modes": sum(len(c[3]) for c in cases)},
        verify=verify,
    )


def large_report(seed: int, work: Path, root: Path) -> Plan:
    # 40 buses, not 50: 50-bus jobs took 6-7 s, so a run held 2-4 of them
    # and runs spread 0.09; 40 buses take 3.3 s and write 3.9 MB of reports.
    doc = netgen.generate(40, seed, n_chords=10)
    net = netgen.write(doc, work / "meshed_40.json")
    reference = netgen.reference_modes(doc)
    out = work / "reports" / "meshed_40"

    def verify():
        hits, ok, total = _analyze_checks(out, doc, reference, expect_validation=False)
        return hits / len(reference), ok / total

    return Plan(
        calls=[["analyze", str(net), "--no-validate", "--out", str(out)]],
        inputs=[net],
        size={"buses": 40, "states": _state_count(doc), "elements": _elements(doc),
              "modes": len(reference)},
        verify=verify,
    )


WORKLOADS = {
    "oracle-analyze": oracle_analyze,
    "oracle-sweep": oracle_sweep,
    "impedance-analyze": impedance_analyze,
    "large-report": large_report,
}
