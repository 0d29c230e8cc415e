#!/usr/bin/env python3
"""Regenerate the ROADMAP baseline table: ring networks of 3, 10, 30 and 60
buses (seed 0), timed stage by stage.

    python3 perfbench/ladder.py [--seed N]

Per rung: state count, state-space ``solve_modes``, one mode's validation
over all elements (least-damped mode, eps 0.05, with the number that raised),
the element layer reports of that mode, a 400-point ``sample_response``,
and an estimate of a full ``analyze`` (solve + modes x (reports +
validation)). The impedance path (``solve_modes(method="impedance")`` over
5:5000 rad/s, order 2 x modes + 4, with recall against the reference modes)
runs in a child process capped by RLIMIT_AS, so a rung that runs out of
memory is reported as failed instead of exhausting the machine's memory.
The table goes to stdout and ``perfbench/_work/ladder.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNGS = (3, 10, 30, 60)
MEMORY_CAP = 2 << 30  # bytes of address space for an impedance-path rung
IMPEDANCE_TIMEOUT = 600  # seconds
BAND = (5.0, 5000.0)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def oracle_rung(n_buses: int, seed: int) -> dict:
    import netgen
    from impedmodal import admittance_assembly, mai_core, network_model, rational_fit

    doc = netgen.generate(n_buses, seed)
    net = network_model.parse_network(json.dumps(doc))
    records, t_solve = _timed(mai_core.solve_modes, net)
    mode = max(records, key=lambda r: r.lam.real)
    lams = [r.lam for r in records]
    refs = admittance_assembly.network_elements(net)
    _, t_reports = _timed(
        lambda: [mai_core.element_layer_report(net, ref, mode, 0.05) for ref in refs])
    failed = 0
    start = time.perf_counter()
    for ref in refs:
        try:
            mai_core.validate_element_prediction(net, ref, mode, 0.05, reference_modes=lams)
        except mai_core.AnalysisError:
            failed += 1
    t_validate = time.perf_counter() - start
    model = admittance_assembly.WholeSystemModel(net)
    _, t_sample = _timed(rational_fit.sample_response, model,
                         rational_fit.frequency_grid(*BAND, 400))
    return {
        "buses": n_buses,
        "states": netgen.state_matrix(doc).shape[0],
        "modes": len(records),
        "elements": len(refs),
        "solve_modes_s": t_solve,
        "layer_reports_one_mode_s": t_reports,
        "validation_one_mode_s": t_validate,
        "validation_failed": failed,
        "sample_response_400_s": t_sample,
        "est_analyze_s": t_solve + len(records) * (t_reports + t_validate),
    }


def impedance_rung(n_buses: int, seed: int) -> dict:
    """Impedance-path mode search; runs in the capped child process."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    import netgen
    import workloads
    from impedmodal import mai_core, network_model

    doc = netgen.generate(n_buses, seed)
    net = network_model.parse_network(json.dumps(netgen.generate(n_buses, seed, apparatus="rational")))
    reference = netgen.reference_modes(doc, BAND)
    try:
        records, elapsed = _timed(mai_core.solve_modes, net, band=BAND,
                                  order=2 * len(reference) + 4, method="impedance")
    except MemoryError:
        return {"impedance": f"failed: out of memory under a {MEMORY_CAP >> 30} GiB cap"}
    hits = workloads.recalled([r.lam for r in records], reference)
    return {"impedance_s": elapsed, "impedance_recall": hits / len(reference)}


def run_impedance_child(n_buses: int, seed: int) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
             "--impedance-rung", str(n_buses)],
            capture_output=True, text=True, timeout=IMPEDANCE_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return {"impedance": f"failed: over {IMPEDANCE_TIMEOUT} s"}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"impedance": f"failed: exit {proc.returncode}: {tail}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--impedance-rung", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE)]
    import run

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path[:0] = [str(run.ROOT / "src")]
    if args.impedance_rung is not None:
        print(json.dumps(impedance_rung(args.impedance_rung, args.seed)))
        return 0

    env = run.environment()
    print("env " + json.dumps(env))
    rows = []
    for n in RUNGS:
        row = oracle_rung(n, args.seed)
        row.update(run_impedance_child(n, args.seed))
        rows.append(row)
        print("rung " + json.dumps(row), flush=True)
    print()
    print("| buses | states | `solve_modes` (state-space) | validation, one mode (all elements)"
          " | layer reports, one mode | `sample_response`, 400 pts | est. full `analyze`"
          " | impedance path (recall) |")
    print("|---|---|---|---|---|---|---|---|")
    for r in rows:
        imp = (f"{r['impedance_s']:.3g} s ({100 * r['impedance_recall']:.0f} %)"
               if "impedance_s" in r else r["impedance"])
        print(f"| {r['buses']} | {r['states']} | {r['solve_modes_s']:.3g} s "
              f"| {r['validation_one_mode_s']:.3g} s ({r['validation_failed']} of "
              f"{r['elements']} raised) | {r['layer_reports_one_mode_s']:.3g} s "
              f"| {r['sample_response_400_s']:.3g} s | {r['est_analyze_s']:.3g} s | {imp} |")
    run.WORK.mkdir(parents=True, exist_ok=True)
    (run.WORK / "ladder.json").write_text(
        json.dumps({"seed": args.seed, "env": env, "rungs": rows}, indent=1) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
