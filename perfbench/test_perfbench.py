"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import netgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from impedmodal import admittance_assembly, mai_core, network_model  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_generator_is_deterministic_per_seed():
    a = netgen.generate(12, seed=7, n_chords=3)
    assert json.dumps(a) == json.dumps(netgen.generate(12, seed=7, n_chords=3))
    assert json.dumps(a) != json.dumps(netgen.generate(12, seed=8, n_chords=3))


def test_rational_twin_has_the_same_elements_and_admittance():
    ss = netgen.generate(6, seed=3, n_chords=1)
    rat = netgen.generate(6, seed=3, n_chords=1, apparatus="rational")
    assert ss["branches"] == rat["branches"] and ss["shunts"] == rat["shunts"]
    model = admittance_assembly.WholeSystemModel(network_model.parse_network(json.dumps(rat)))
    s = complex(-12.0, 410.0)
    assert np.allclose(model.admittance(s), netgen.admittance(ss, s), rtol=1e-12, atol=1e-12)


def test_reference_modes_agree_with_the_program():
    doc = netgen.generate(8, seed=2, n_chords=2)
    program = [r.lam for r in mai_core.solve_modes(network_model.parse_network(json.dumps(doc)))]
    reference = netgen.reference_modes(doc)
    assert workloads.recalled(program, reference) == len(reference) == len(program)


def test_metric_and_workload_names_are_valid():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert list(workloads.WHY) == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_output_check_rejects_a_planted_wrong_mode():
    doc = netgen.generate(6, seed=0)
    modes = list(netgen.reference_modes(doc))
    workloads.check_zeros(doc, modes)
    planted = modes.copy()
    planted[3] *= 1 + 1e-5
    with pytest.raises(workloads.CheckError):
        workloads.check_zeros(doc, planted)
    assert workloads.recalled(planted, modes) == len(modes) - 1


def test_tracer_counts_a_perturbed_admittance_call_once():
    net = network_model.parse_network(json.dumps(netgen.generate(3, seed=0)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        admittance_assembly.PerturbedModel(net, ("branch", 0), 1.05).admittance(1j * 100.0)
        admittance_assembly.WholeSystemModel(net).impedance(1j * 100.0)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["admittance_assembly.admittance.calls"] == 2
    assert summary["admittance_assembly.impedance.calls"] == 1
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert summary["admittance_assembly.self_s"] == pytest.approx(roots)
    assert not hasattr(admittance_assembly.WholeSystemModel.admittance, "__wrapped__")


def test_relabelled_network_keeps_its_modes():
    doc = netgen.generate(7, seed=4, n_chords=2)
    moved = netgen.relabel(doc, seed=9)
    assert json.dumps(moved) != json.dumps(doc)
    assert workloads.recalled(netgen.reference_modes(moved), netgen.reference_modes(doc)) == \
        len(netgen.reference_modes(doc))


def test_host_speed_sampler_scales_to_the_reference_and_restores_sigalrm():
    import signal

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(hostspeed.loop_kernel, period_s=0.005) as sampler:
        sum(i * i for i in range(300000))
    timing = sampler.timing
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(timing.samples) >= 3 and 0 < timing.work_s < timing.wall_s
    mean = sum(timing.samples) / len(timing.samples)
    assert timing.at_speed() == pytest.approx(
        timing.work_s * hostspeed.REFERENCE_S["loop_kernel"] / mean)
