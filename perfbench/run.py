#!/usr/bin/env python3
"""Benchmark of the impedmodal command line on seeded, generated networks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, each in a fresh process
    python3 perfbench/ladder.py                  # the ROADMAP baseline table

A workload is a closed loop with one client: its job (one or more calls of
``cli_reporting.main``) runs back to back in this process, at least twice
so that repeated reports can be compared byte for byte, and no further
once the next job would end after --seconds. Before each job (and at least
five times) a fresh interpreter imports the package and parses the
workload's networks: that is the set-up a user pays on every CLI call.
BLAS runs one thread, which is within nproc: on a 2-core box two OpenBLAS
threads made oracle-analyze 2.5x slower at ~120 states.

``wall_s`` and ``setup_s`` are medians over the run of times taken at a
reference host speed (``hostspeed``): while a job or a set-up probe runs,
a SIGALRM handler times a fixed kernel every few tens of milliseconds, and
the wall time, less those samples, is scaled by the reference kernel time
over the mean sample. On a shared 2-vCPU host the raw times of the same
job swing by up to 60 % from one minute to the next; the scaled ones held
within a few per cent. Raw wall times are printed beside them, and the
per-layer seconds of the traced run are raw.

With ``--trace 0`` the last line of output carries the end-to-end metrics,
measured untraced. With ``--trace 1`` untraced and traced jobs alternate,
and the last line carries the per-layer metrics of the traced jobs plus the
tracing overhead (median traced minus median untraced job, both at the
reference speed). Spans of the last traced job go to
``perfbench/_work/<workload>/trace.json``, outside the
report directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_JOBS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "mode_recall": "fraction",
    "validation_ok_frac": "fraction",
}

# Per-layer metrics from the traced run, and what each should move:
#   network_model.parse_network.s             -> setup_s, every workload
#   admittance_assembly.{admittance,impedance} -> wall_s, impedance-analyze, oracle-sweep
#   mass_oracle.{interconnect,eigendecompose}, mass_oracle.states
#                                             -> wall_s, oracle-analyze, oracle-sweep
#   rational_fit.{sample_response,fit_apparatus_surrogate,admittance_residue}
#                                             -> wall_s, impedance-analyze
#   rational_fit.vector_fit                   -> wall_s, peak_rss_mb, impedance-analyze
#   rational_fit.refine_mode                  -> wall_s, validation_ok_frac, impedance-analyze
#   rational_fit.find_modes.{seeds,modes}     -> mode_recall, impedance-analyze (modes/seeds
#                                                is the useful-seed yield)
#   rational_fit.critical_resonance_mode      -> wall_s, oracle-sweep, large-report
#   mai_core.solve_modes                      -> wall_s, oracle-sweep, large-report
#   mai_core.element_layer_report             -> wall_s, large-report
#   mai_core.validate_element_prediction      -> wall_s, validation_ok_frac, oracle-analyze
#   mai_core.parameter_sweep.s                -> wall_s, oracle-sweep
#   cli_reporting.{self_s,report_bytes}       -> wall_s, large-report
# <layer>.self_s split the traced wall time by module; trace.unattributed_s is
# what they leave out and trace.overhead_s the cost of tracing.
_CALLS_S = ("calls", "count"), ("s", "s")
PER_LAYER = {
    "network_model.parse_network.s": "s",
    **{f"admittance_assembly.{f}.{k}": u for f in ("admittance", "impedance") for k, u in _CALLS_S},
    **{f"mass_oracle.{f}.{k}": u for f in ("interconnect", "eigendecompose") for k, u in _CALLS_S},
    "mass_oracle.states": "count",
    "rational_fit.sample_response.calls": "count",
    "rational_fit.sample_response.points": "count",
    "rational_fit.sample_response.s": "s",
    **{f"rational_fit.{f}.{k}": u
       for f in ("fit_apparatus_surrogate", "admittance_residue", "critical_resonance_mode")
       for k, u in _CALLS_S},
    "rational_fit.vector_fit.calls": "count",
    "rational_fit.vector_fit.iterations": "count",
    "rational_fit.vector_fit.s": "s",
    "rational_fit.refine_mode.calls": "count",
    "rational_fit.refine_mode.failed": "count",
    "rational_fit.refine_mode.s": "s",
    "rational_fit.find_modes.seeds": "count",
    "rational_fit.find_modes.modes": "count",
    **{f"mai_core.{f}.{k}": u for f in ("solve_modes", "element_layer_report") for k, u in _CALLS_S},
    "mai_core.validate_element_prediction.calls": "count",
    "mai_core.validate_element_prediction.failed": "count",
    "mai_core.validate_element_prediction.s": "s",
    "mai_core.parameter_sweep.s": "s",
    **{f"{layer}.self_s": "s" for layer in ("network_model", "admittance_assembly",
                                            "mass_oracle", "rational_fit", "mai_core",
                                            "cli_reporting")},
    "cli_reporting.report_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Set-up as a user pays it on every CLI call: a fresh interpreter imports
# the package and parses the workload's network files.
SETUP_PROBE = """\
import json, sys
import hostspeed
with hostspeed.Sampler(hostspeed.loop_kernel, period_s=0.01) as sampler:
    import impedmodal
    from pathlib import Path
    for p in map(Path, sys.argv[1:]):
        impedmodal.parse_network(p.read_text(encoding="utf-8"), base_dir=str(p.parent))
t = sampler.timing
print(json.dumps([t.wall_s, t.work_s, t.samples, t.kernel]))
"""


def setup_timing(inputs) -> hostspeed.Timing:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(HERE), str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, *map(str, inputs)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return hostspeed.Timing(*json.loads(proc.stdout.splitlines()[-1]))


def blas_threads() -> list[int]:
    """Thread counts reported by every OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    counts = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def digest_tree(root: Path) -> tuple[str, int]:
    """Hash of every file's relative path and bytes, and the total bytes."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
    return h.hexdigest(), total


def run_job(calls, reports: Path, cli_main) -> tuple[hostspeed.Timing, int]:
    """Run one job's CLI calls on a clean report directory; returns
    (the timing of the calls, calls that failed)."""
    shutil.rmtree(reports, ignore_errors=True)
    failed = 0
    with hostspeed.Sampler() as sampler:
        for argv in calls:
            try:
                rc = cli_main(argv)
            except Exception:
                traceback.print_exc()
                rc = -1
            if rc != 0:
                print(f"call failed with exit code {rc}: {' '.join(argv)}", file=sys.stderr)
                failed += 1
    return sampler.timing, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracing
    import workloads
    from impedmodal import cli_reporting

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reports = work / "reports"
    plan = workloads.WORKLOADS[name](seed, work, ROOT)
    env = environment()
    print("env " + json.dumps(env))

    setup: list[hostspeed.Timing] = []
    walls: dict[bool, list[hostspeed.Timing]] = {False: [], True: []}
    summaries: list[dict] = []
    digests: set[str] = set()
    failed = attempted = report_bytes = 0
    tracer = None
    start = time.perf_counter()
    last = 0.0  # seconds the previous job took, set-up probe included
    while (sum(map(len, walls.values())) < MIN_JOBS
           or time.perf_counter() - start + last <= seconds):
        job_start = time.perf_counter()
        traced = trace and len(walls[False]) > len(walls[True])
        if not trace:  # set-up probes spread over the run, like the jobs
            setup.append(setup_timing(plan.inputs))
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            timing, bad = run_job(plan.calls, reports, cli_reporting.main)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(timing)
        attempted += len(plan.calls)
        failed += bad
        digest, report_bytes = digest_tree(reports)
        digests.add(digest)
        if traced:
            summary = tracer.summary()
            summary["trace.unattributed_s"] = timing.wall_s - sum(
                summary.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS)
            summaries.append(summary)
        last = time.perf_counter() - job_start
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(setup_timing(plan.inputs))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before checks
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} CLI calls failed")
    if len(digests) > 1:
        problems.append(f"reports differ across {len(digests)} variants of repeated jobs")
    recall = ok_frac = 0.0
    if not failed:
        try:
            recall, ok_frac = plan.verify()
        except (workloads.CheckError, OSError, ValueError, KeyError) as exc:
            problems.append(f"output check failed: {exc!r}")

    samples = sorted(x for t in walls[False] + walls[True] for x in t.samples)
    at_speed = {k: [t.at_speed() for t in v] for k, v in walls.items()}
    if trace:
        metrics = {key: statistics.median(s.get(key, 0.0) for s in summaries)
                   for key in PER_LAYER}
        metrics["cli_reporting.report_bytes"] = report_bytes
        metrics["trace.wall_s"] = statistics.median(t.wall_s for t in walls[True])
        metrics["trace.overhead_s"] = (statistics.median(at_speed[True])
                                       - statistics.median(at_speed[False]))
        units = PER_LAYER
        (work / "trace.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "env": env, "size": plan.size,
             "untraced_wall_s": [t.wall_s for t in walls[False]],
             "traced_wall_s": [t.wall_s for t in walls[True]],
             "metrics": metrics, **tracer.dump()}) + "\n", encoding="utf-8")
    else:
        metrics = {
            "setup_s": statistics.median(t.at_speed() for t in setup),
            "wall_s": statistics.median(at_speed[False]),
            "peak_rss_mb": peak_rss_mb,
            "mode_recall": recall,
            "validation_ok_frac": ok_frac,
        }
        units = END_TO_END
    n_jobs = sum(map(len, walls.values()))
    print(f"jobs {n_jobs}, calls per job {len(plan.calls)}, seed {seed}")
    kernel = walls[False][0].kernel
    print(f"{kernel}: {len(samples)} samples, median {statistics.median(samples) * 1e3:.4f} ms,"
          f" min {samples[0] * 1e3:.4f} ms; jobs at speed are scaled to"
          f" {hostspeed.REFERENCE_S[kernel] * 1e3:g} ms")
    for traced, label in ((False, "untraced"), (True, "traced")):
        if walls[traced]:
            print(f"{label} job walls " + " ".join(f"{t.wall_s:.3f}" for t in walls[traced]))
            print(f"{label} jobs at speed " + " ".join(f"{w:.3f}" for w in at_speed[traced]))
    if setup:
        print("set-up times " + " ".join(f"{t.wall_s:.3f}" for t in setup))
        print("set-up at speed " + " ".join(f"{t.at_speed():.3f}" for t in setup))
    for key, value in metrics.items():
        beside = f"  size {json.dumps(plan.size)}" if key == "wall_s" else ""
        print(f"  {key} = {value:.6g} {units[key]}{beside}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own fresh process, end-to-end metrics only."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "impedmodal" / "__init__.py").is_file():
        print(f"error: impedmodal sources not found in {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
