"""End-to-end CLI runs, report formats, determinism and exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from impedmodal import admittance_assembly as assembly
from impedmodal import cli_reporting, mai_core, mass_oracle, network_model, rational_fit
from impedmodal.admittance_assembly import EvaluationError, network_elements
from impedmodal.cli_reporting import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    AnalysisConfig,
    main,
    run,
)

from conftest import generated_ring_doc, mixed_ring_doc

REPO = Path(__file__).resolve().parents[1]
NETWORK = REPO / "networks" / "three_bus.json"


def test_analyze_smoke(tmp_path):
    config = AnalysisConfig(network_path=str(NETWORK), out_dir=str(tmp_path / "rep"),
                            modes=[0, 1], epsilon=0.05)
    assert run(config) == EXIT_OK
    out = tmp_path / "rep"
    for name in ("modes.csv", "summary.json", "validation.json"):
        assert (out / name).exists()
    for name, k in (("mode_elements.csv", 0), ("mode_bus_pairs.csv", 1), ("mode_layer3.csv", 0)):
        assert _mode_groups(out / name)[k]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_modes"] == 7


def test_analyze_deterministic(tmp_path):
    c1 = AnalysisConfig(network_path=str(NETWORK), out_dir=str(tmp_path / "a"), modes=[1])
    c2 = AnalysisConfig(network_path=str(NETWORK), out_dir=str(tmp_path / "b"), modes=[1])
    run(c1)
    run(c2)
    files = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert files == sorted(f.name for f in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_impedance_path_analyze_deterministic(tmp_path):
    """Two runs of the measured network (Loewner realization, Newton,
    validation) write byte-identical reports."""
    measured = REPO / "networks" / "measured_two_bus.json"
    for name in ("a", "b"):
        assert main(["analyze", str(measured), "--band", "5:5000", "--order", "12",
                     "--out", str(tmp_path / name)]) == EXIT_OK
    files = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert files == sorted(f.name for f in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_oracle_failure_stays_in_its_element_entry(tmp_path, monkeypatch):
    """A re-solve that fails for one element leaves an error entry for that
    element; the command still succeeds and reports every other element."""
    ok = AnalysisConfig(network_path=str(NETWORK), out_dir=str(tmp_path / "ok"), modes=[1])
    assert run(ok) == EXIT_OK
    resolve = mass_oracle.Interconnection.element_updates
    calls = []

    def failing_second_entry(self, refs, factor):
        calls.append(len(refs))
        updates = resolve(self, refs, factor)
        updates[1] = mass_oracle.DefectiveMatrixError("injected defective re-solve")
        return updates

    monkeypatch.setattr(mass_oracle.Interconnection, "element_updates", failing_second_entry)
    failed = AnalysisConfig(network_path=str(NETWORK), out_dir=str(tmp_path / "failed"),
                            modes=[1])
    assert run(failed) == EXIT_OK
    expected = json.loads((tmp_path / "ok" / "validation.json").read_text())
    got = json.loads((tmp_path / "failed" / "validation.json").read_text())
    entries = got["modes"][0]["elements"]
    assert [len(entries)] == [len(expected["modes"][0]["elements"])] == calls
    assert entries[1] == {"element": expected["modes"][0]["elements"][1]["element"],
                          "error": "injected defective re-solve"}
    entries[1] = expected["modes"][0]["elements"][1]
    assert got == expected


def test_element_updates_are_built_once_per_run(tmp_path, monkeypatch):
    """Validating three modes builds each element's row update of the state
    matrix once, not once per mode."""
    update = mass_oracle.Interconnection.element_updates
    calls = []

    def counting(self, refs, factor):
        calls.append(list(refs))
        return update(self, refs, factor)

    monkeypatch.setattr(mass_oracle.Interconnection, "element_updates", counting)
    config = AnalysisConfig(network_path=str(NETWORK), out_dir=str(tmp_path), modes=[0, 1, 2])
    assert run(config) == EXIT_OK
    net = network_model.parse_network(NETWORK.read_text())
    assert calls == [network_elements(net)]


def test_static_apparatus_at_a_capacitive_bus_is_validated(tmp_path):
    """A static (D-only) apparatus, without states, at a bus with
    capacitance: analyze validates every element of every mode, each entry
    a record."""
    doc = json.loads(NETWORK.read_text())
    doc["apparatus"].append({"bus": 2, "theta": 0.4, "model": {
        "kind": "state_space", "A": [], "B": [], "C": [], "D": [[0.4, 0.1], [-0.05, 0.3]]}})
    path = tmp_path / "static.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out", str(tmp_path / "rep")]) == EXIT_OK
    validation = json.loads((tmp_path / "rep" / "validation.json").read_text())
    entries = [entry for mode in validation["modes"] for entry in mode["elements"]]
    assert entries and all("error" not in entry and "predicted" in entry for entry in entries)


def test_validated_analyze_eigendecomposes_once(tmp_path, monkeypatch):
    """Mode solving and validation share the run's Interconnection: A is
    eigendecomposed once per validated analyze."""
    decompose = mass_oracle.eigendecompose
    calls = []

    def counting(A):
        calls.append(A.shape)
        return decompose(A)

    monkeypatch.setattr(mass_oracle, "eigendecompose", counting)
    assert main(["analyze", str(NETWORK), "--out", str(tmp_path)]) == EXIT_OK
    assert len(json.loads((tmp_path / "validation.json").read_text())["modes"]) == 7
    assert calls == [(14, 14)]


def test_oracle_cli_runs_never_load_scipy(tmp_path):
    """In a fresh interpreter, importing the package, a validated analyze of
    the oracle-capable three_bus and a sweep of it whose every step is
    certified from the secular roots (its residues from the secular
    vectors, not an LU) load no scipy module; an impedance-route analyze
    then runs in the same interpreter."""
    script = (
        "import sys\n"
        "import impedmodal\n"
        "from impedmodal.cli_reporting import main\n"
        f"assert main(['analyze', {str(NETWORK)!r}, '--out', {str(tmp_path / 'a')!r}]) == 0\n"
        f"assert main(['sweep', {str(NETWORK)!r}, '--branch', '1:2', '--param', 'L',"
        f" '--factor', '1.1', '--steps', '5', '--out', {str(tmp_path / 's')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        f"assert main(['analyze', {str(REPO / 'networks' / 'measured_two_bus.json')!r},"
        f" '--band', '5:5000', '--out', {str(tmp_path / 'm')!r}]) == 0\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
    assert (tmp_path / "a" / "validation.json").exists()
    assert (tmp_path / "m" / "validation.json").exists()
    assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == 7


def test_impedance_cli_runs_never_load_scipy(tmp_path):
    """In a fresh interpreter, the impedance route loads no scipy module: a
    validated analyze of the measured network over 5:5000 rad/s, a
    validated analyze of a generated 4-bus ring of rational apparatus, and
    a sweep of the measured network (its modes re-solved from Y at every
    step). The Loewner poles come from numpy alone."""
    ring = tmp_path / "rational_4.json"
    ring.write_text(json.dumps(generated_ring_doc(4, 0, apparatus="rational")))
    measured = str(REPO / "networks" / "measured_two_bus.json")
    script = (
        "import sys\n"
        "from impedmodal.cli_reporting import main\n"
        f"assert main(['analyze', {measured!r}, '--band', '5:5000',"
        f" '--out', {str(tmp_path / 'm')!r}]) == 0\n"
        f"assert main(['analyze', {str(ring)!r}, '--band', '5:5000',"
        f" '--out', {str(tmp_path / 'r')!r}]) == 0\n"
        f"assert main(['sweep', {measured!r}, '--branch', '1:2', '--param', 'L',"
        f" '--factor', '1.05', '--steps', '3', '--band', '5:5000',"
        f" '--out', {str(tmp_path / 's')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
    for tree in ("m", "r"):
        assert json.loads((tmp_path / tree / "validation.json").read_text())["modes"]
    assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == 5


def test_forced_fallback_matches_the_secular_roots(tmp_path):
    """In a fresh interpreter, a validated analyze of three_bus with every
    secular root sent to the dense fallback (a backward-error limit below
    zero) reports the same outcome kind for every entry as the normal run,
    and actual shifts within 1e-12 |lambda| of the normal run's, without
    loading scipy.sparse."""
    script = (
        "import sys\n"
        "from impedmodal import mass_oracle\n"
        "from impedmodal.cli_reporting import main\n"
        f"network = {str(NETWORK)!r}\n"
        f"assert main(['analyze', network, '--out', {str(tmp_path / 'secular')!r}]) == 0\n"
        "nearest, calls = mass_oracle.nearest_eigenvalue, []\n"
        "mass_oracle.nearest_eigenvalue = lambda A, s: calls.append(s) or nearest(A, s)\n"
        "mass_oracle._BACKWARD_LIMIT = -1.0\n"
        f"assert main(['analyze', network, '--out', {str(tmp_path / 'fallback')!r}]) == 0\n"
        "print(len(calls), 'scipy.sparse' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    secular, fallback = (json.loads((tmp_path / name / "validation.json").read_text())["modes"]
                         for name in ("secular", "fallback"))
    n_entries = sum(len(mode["elements"]) for mode in secular)
    assert out.stdout == f"{n_entries} False\n"
    assert len(secular) == len(fallback) == 7
    for mode, forced in zip(secular, fallback):
        assert forced["lambda"] == mode["lambda"]
        scale = abs(complex(*mode["lambda"]))
        assert len(forced["elements"]) == len(mode["elements"])
        for entry, other in zip(mode["elements"], forced["elements"]):
            assert set(other) == set(entry)
            if "actual" in entry:
                got, expected = complex(*other["actual"]), complex(*entry["actual"])
                assert abs(got - expected) <= 1e-12 * scale, entry["element"]


# one field of three_bus at a time: (where, key, value)
NON_FINITE = [
    (("apparatus", 0, "model", "A", 0), 0, float("nan")),
    (("apparatus", 1, "model", "D", 1), 1, float("inf")),
    (("branches", 0), "R", float("nan")),
    ((), "omega0", float("inf")),
    (("branches", 0), "L", float("inf")),
    (("branches", 1), "ratio", float("inf")),
    (("shunts", 3), "value", float("inf")),
]


@pytest.mark.parametrize("where, key, value", NON_FINITE, ids=[
    "apparatus_A_nan", "apparatus_D_inf", "line_R_nan", "omega0_inf", "line_L_inf",
    "transformer_ratio_inf", "resistive_shunt_inf"])
def test_analyze_rejects_non_finite_network_numbers(tmp_path, capsys, where, key, value):
    doc = json.loads(NETWORK.read_text())
    field = doc
    for step in where:
        field = field[step]
    field[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # NaN and Infinity literals, which json admits
    assert main(["analyze", str(bad), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "NetworkValidationError" and "finite" in err["message"]
    assert not (tmp_path / "out").exists()


def test_analyze_rejects_a_zero_denominator(tmp_path, capsys):
    doc = json.loads(NETWORK.read_text())
    one = {"num": [1.0], "den": [1.0, 2.0]}
    doc["apparatus"][0]["model"] = {"kind": "rational", "entries": [
        [one, {"num": [1.0], "den": [0, 0]}], [one, one]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(bad), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "NetworkValidationError"
    assert err["message"] == "apparatus[0] (bus 3): entry (0,1) denominator is zero"


@pytest.mark.parametrize("field, value", [
    ("num", ["a"]), ("num", {"x": 1}), ("den", [[1, 2], [3]]), ("num", [[1.0, 2.0]]),
])
def test_analyze_rejects_malformed_coefficients(tmp_path, capsys, field, value):
    """A numerator or denominator that is neither a number nor a flat list
    of numbers is an input error naming its entry and field."""
    doc = json.loads(NETWORK.read_text())
    one = {"num": [1.0], "den": [1.0, 2.0]}
    doc["apparatus"][0]["model"] = {"kind": "rational", "entries": [
        [one, {**one, field: value}], [one, one]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(bad), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "NetworkFormatError"
    assert f"field '{field}' in apparatus[0].model.entries[0][1]" in err["message"]


@pytest.mark.parametrize("field", ["B", "C"])
def test_analyze_rejects_a_static_model_with_b_or_c(tmp_path, capsys, field):
    """A state-space model without states (empty A) but with a non-empty B
    or C is an input error naming the apparatus, not a silent D-only model."""
    doc = json.loads(NETWORK.read_text())
    doc["apparatus"][1]["model"] = {"kind": "state_space", "A": [], "B": [], "C": [],
                                    "D": [[0.1, 0.0], [0.0, 0.1]], field: np.eye(2).tolist()}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(bad), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "NetworkValidationError"
    assert err["message"].startswith("apparatus[1] (bus 1): expected B (0x2), C (2x0)")



@pytest.mark.parametrize("g, n_unstable", [(1.0, 0), (2.0, 4)])
def test_negative_conductance_gives_unstable_modes(tmp_path, g, n_unstable):
    """three_bus with apparatus 0's D = -g I (a negative conductance, no
    converter): the oracle and the impedance route find the same 7 modes,
    n_unstable of them with Re lambda > 0, and analyze lists those in
    modes.csv."""
    doc = json.loads(NETWORK.read_text())
    doc["apparatus"][0]["model"]["D"] = (-g * np.eye(2)).tolist()
    net = network_model.parse_network(json.dumps(doc))
    oracle = np.array([r.lam for r in mai_core.solve_modes(net)])
    impedance = np.array([r.lam for r in mai_core.solve_modes(net, band=(5.0, 5000.0),
                                                              method="impedance")])
    assert len(oracle) == len(impedance) == 7
    assert np.all(np.abs(impedance - oracle) <= 1e-12 * np.abs(oracle))
    unstable = oracle[oracle.real > 0]
    assert len(unstable) == n_unstable
    (tmp_path / "net.json").write_text(json.dumps(doc))
    out = tmp_path / "rep"
    assert main(["analyze", str(tmp_path / "net.json"), "--out", str(out)]) == EXIT_OK
    with open(out / "modes.csv") as fh:
        listed = np.array([complex(float(r["real"]), float(r["imag"]))
                           for r in csv.DictReader(fh)])
    assert np.all(np.abs(listed - oracle) <= 1e-11 * np.abs(oracle))
    assert np.count_nonzero(listed.real > 0) == n_unstable

def test_emitted_numbers_round_trip(tmp_path):
    """Re-parsing a report reproduces every value at 12 significant digits."""
    config = AnalysisConfig(network_path=str(NETWORK), out_dir=str(tmp_path),
                            modes=[2], validate_predictions=False)
    run(config)
    rows = _mode_groups(tmp_path / "mode_elements.csv")[2]
    for row in rows:
        for key in ("layer1_cauchy", "layer1_enhanced", "layer2_real", "layer2_imag"):
            value = float(row[key])
            assert f"{value:.12g}" == row[key]


def test_analyze_bad_mode_index(tmp_path, capsys):
    code = main(["analyze", str(NETWORK), "--modes", "99", "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "99" in err


def test_analyze_unparseable_network(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_INPUT


def test_analyze_invalid_network_exit_input(tmp_path):
    doc = {"n_buses": 2, "omega0": 314.0,
           "branches": [{"kind": "line", "from": 1, "to": 9, "R": 0.1, "L": 0.01}],
           "shunts": [{"bus": 1, "kind": "capacitive", "value": 0.01}]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_INPUT


def test_analyze_empty_band_numerical_failure(tmp_path):
    code = main(["analyze", str(NETWORK), "--band", "1:3", "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("IMPEDMODAL_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", str(NETWORK), "--modes", "1", "--no-validate"]) == EXIT_OK
    assert (tmp_path / "envout" / "modes.csv").exists()


def test_cli_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("IMPEDMODAL_OUT", str(tmp_path / "envout"))
    assert main(["analyze", str(NETWORK), "--modes", "1", "--no-validate",
                 "--out", str(tmp_path / "flagout")]) == EXIT_OK
    assert (tmp_path / "flagout" / "modes.csv").exists()
    assert not (tmp_path / "envout").exists()


def test_sweep_cli(tmp_path):
    code = main([
        "sweep", str(NETWORK), "--branch", "1:2", "--param", "L",
        "--factor", "0.8", "--steps", "3", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "step"
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "endpoints"]
    for r in rows[1:4]:
        assert float(r[7]) <= 5.0  # per-step error in percent


def test_sweep_measured_network(tmp_path):
    """A sweep of the measured network replaces its sampled apparatus by the
    fitted surrogate, as analyze does, and tracks the mode at complex s."""
    measured = REPO / "networks" / "measured_two_bus.json"
    code = main([
        "sweep", str(measured), "--branch", "1:2", "--param", "L", "--factor", "1.05",
        "--steps", "3", "--band", "5:5000", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "endpoints"]


def test_sweep_zero_steps_header_only(tmp_path):
    code = main([
        "sweep", str(NETWORK), "--branch", "1:2", "--param", "L",
        "--factor", "0.8", "--steps", "0", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1


def test_sweep_unknown_branch(tmp_path):
    code = main([
        "sweep", str(NETWORK), "--branch", "1:3", "--param", "L",
        "--factor", "0.8", "--steps", "1", "--out", str(tmp_path),
    ])
    assert code == EXIT_INPUT


def test_sweep_refuses_an_ambiguous_parallel_branch(tmp_path, capsys):
    """On the mixed ring, lines 2-3 (branch 1) and 3-2 (branch 6) are
    parallel: ``--branch 3:2`` names both, so the sweep exits 2 naming
    each index, and writes no sweep.csv."""
    (tmp_path / "ring.json").write_text(json.dumps(mixed_ring_doc()))
    out = tmp_path / "out"
    code = main(["sweep", str(tmp_path / "ring.json"), "--branch", "3:2", "--param", "L",
                 "--factor", "1.05", "--steps", "1", "--band", "5:5000", "--out", str(out)])
    assert code == EXIT_INPUT
    report = json.loads(capsys.readouterr().err)
    assert report["type"] == "ConfigError"
    assert "2 parallel branches" in report["message"]
    assert "indices 1, 6" in report["message"]
    assert not (out / "sweep.csv").exists()


def test_sweep_error_column_recomputes(tmp_path):
    main([
        "sweep", str(NETWORK), "--branch", "1:2", "--param", "L",
        "--factor", "0.8", "--steps", "2", "--out", str(tmp_path),
    ])
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows[:-1]:
        lam_before = None  # errors are relative to the per-step shift
        pred = complex(float(row["predicted_real"]), float(row["predicted_imag"]))
        act = complex(float(row["actual_real"]), float(row["actual_imag"]))
        # reconstruct the step error from the trajectory: need lam_before,
        # which is the previous actual (or the sweep start, not in the file);
        # instead check the stored error is consistent for step 2
        if row["step"] == "2":
            prev = rows[0]
            lam_before = complex(float(prev["actual_real"]), float(prev["actual_imag"]))
            err = abs((pred - lam_before) - (act - lam_before)) / abs(pred - lam_before)
            assert abs(100 * err - float(row["error_percent"])) < 1e-6


def test_fit_cli(tmp_path):
    from impedmodal.admittance_assembly import WholeSystemModel
    from impedmodal.network_model import parse_network
    from impedmodal.network_model import write_response_csv
    from impedmodal.rational_fit import frequency_grid, sample_response

    net = parse_network(NETWORK.read_text(), base_dir=str(NETWORK.parent))
    samples = sample_response(WholeSystemModel(net), frequency_grid(5.0, 5e3, 240))
    (tmp_path / "z.csv").write_text(write_response_csv(samples.frequencies, samples.blocks))
    code = main(["fit", str(tmp_path / "z.csv"), "--order", "16",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "fit.json").read_text())
    assert payload["max_rel_deviation"] <= 1e-4
    assert len(payload["poles"]) == 16


@pytest.mark.parametrize("factor, steps", [("0", "3"), ("nan", "3"), ("0.8", "-1")])
def test_sweep_rejects_bad_factor_or_steps(tmp_path, capsys, factor, steps):
    code = main([
        "sweep", str(NETWORK), "--branch", "1:2", "--param", "L",
        "--factor", factor, "--steps", steps, "--out", str(tmp_path),
    ])
    assert code == EXIT_INPUT
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "input" and report["type"] == "ConfigError"
    assert not (tmp_path / "sweep.csv").exists()


def test_analyze_rejects_repeated_mode_index(tmp_path, capsys):
    """A repeated mode index, and a list that names no index at all, are
    input errors."""
    for modes in ("0,0", ",", ""):
        code = main(["analyze", str(NETWORK), f"--modes={modes}", "--out", str(tmp_path)])
        assert code == EXIT_INPUT, modes
        assert json.loads(capsys.readouterr().err)["type"] == "ConfigError"
        assert not (tmp_path / "summary.json").exists()


def test_fit_malformed_csv_is_input_error(tmp_path, capsys):
    """A short row, and a nan, inf or -inf cell, are input errors that name
    their line."""
    bad = tmp_path / "bad.csv"
    rows = "".join(f"{w}.0,1.0,0.5\n" for w in range(3, 9))
    for line in ("2.0,2.0", "2.0,nan,1.0", "2.0,1.0,inf", "-inf,1.0,1.0"):
        bad.write_text(f"omega,re_1_1,im_1_1\n1.0,2.0,3.0\n{line}\n{rows}")
        assert main(["fit", str(bad), "--order", "2", "--out", str(tmp_path)]) == EXIT_INPUT
        error = json.loads(capsys.readouterr().err)
        assert error["type"] == "NetworkFormatError", line
        assert "line 3" in error["message"], line
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("epsilon", ["inf", "-inf", "nan"])
def test_analyze_rejects_non_finite_epsilon(tmp_path, capsys, epsilon):
    code = main(["analyze", str(NETWORK), f"--epsilon={epsilon}", "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["type"] == "ConfigError"
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("order, iterations",
                         [("0", "10"), ("-2", "10"), ("4", "-1"), ("4", "10")])
def test_fit_rejects_bad_order_or_iterations(tmp_path, capsys, order, iterations):
    from impedmodal.network_model import write_response_csv

    omegas = np.geomspace(10.0, 320.0, 6)
    values = (1.0 / (1j * omegas + 5.0)).reshape(-1, 1, 1)
    (tmp_path / "z.csv").write_text(write_response_csv(omegas, values))
    code = main(["fit", str(tmp_path / "z.csv"), f"--order={order}",
                 f"--iterations={iterations}", "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["type"] == "ConfigError"
    assert not (tmp_path / "fit.json").exists()


def test_analyze_rejects_an_order_its_samples_cannot_carry(tmp_path, capsys):
    """A surrogate order that needs more than the 220 samples of
    measured_two_bus is an input error, found before any fit."""
    measured = REPO / "networks" / "measured_two_bus.json"
    code = main(["analyze", str(measured), "--band", "5:5000", "--order", "400",
                 "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    report = json.loads(capsys.readouterr().err)
    assert report["type"] == "ConfigError" and "got 220" in report["message"]
    assert not (tmp_path / "summary.json").exists()


def test_analyze_builds_layers_once_per_chunk(tmp_path, monkeypatch):
    """The layer reports of all selected modes come from stacked chunks:
    no element_layer_report call, and one evaluation
    of each apparatus's state-space response per chunk, over all the
    chunk's modes (all 7 modes of three_bus in one chunk, or chunks of at
    most 3). The report files do not depend on the chunking."""
    net = network_model.parse_network(NETWORK.read_text())
    assert len(net.apparatus) == 2
    reference = tmp_path / "reference"
    assert main(["analyze", str(NETWORK), "--no-validate", "--out", str(reference)]) == EXIT_OK
    calls = {"element_layer_report": 0}
    points = []
    response = assembly.state_space_response

    def counted(name):
        original = getattr(mai_core, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    def counted_response(A, B, C, D, s):  # a stack of K models counts K evaluations
        points.extend([np.size(s)] * (len(A) if np.ndim(A) == 3 else 1))
        return response(A, B, C, D, s)

    for name in calls:
        monkeypatch.setattr(mai_core, name, counted(name))
    monkeypatch.setattr(assembly, "state_space_response", counted_response)
    for per_chunk, expected in ((None, [7, 7]), (3, [3, 3, 3, 3, 1, 1])):
        if per_chunk is not None:
            monkeypatch.setattr(mai_core, "_CHUNK_BYTES",
                                per_chunk * 64 * len(network_elements(net)))
        points.clear()
        out = tmp_path / f"chunk{per_chunk}"
        assert main(["analyze", str(NETWORK), "--no-validate", "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["n_modes"] == 7
        assert calls == {"element_layer_report": 0}
        assert points == expected
        for f in sorted(reference.iterdir()):
            assert f.read_bytes() == (out / f.name).read_bytes(), f.name


def test_validation_solves_once_per_chunk(tmp_path, monkeypatch):
    """The oracle validation of all 7 modes of three_bus is one
    updated_eigenvalues call, which builds W, Z^T and T once and runs Newton
    over the grid of modes and elements in one chunk at the default
    _GRID_BYTES, and in one chunk per mode or per two modes when a chunk
    holds no more, or one entry per batch at a budget of one byte;
    validation.json does not depend on the chunking."""
    net = network_model.parse_network(NETWORK.read_text())
    refs = network_elements(net)
    k = max(len(rows) for rows, _ in mass_oracle.Interconnection(net).element_updates(refs, 1.05))
    per_mode = 16 * (mass_oracle._NEAR + mass_oracle._MOMENTS) * len(refs) * k * k
    default = mass_oracle._GRID_BYTES
    solve, calls = mass_oracle.updated_eigenvalues, []
    monkeypatch.setattr(mass_oracle, "updated_eigenvalues",
                        lambda system, poles, *args: calls.append(len(poles))
                        or solve(system, poles, *args))
    grid, bases, chunks = mass_oracle._SecularGrid, [], []
    init, newton = grid.__init__, grid.newton
    monkeypatch.setattr(grid, "__init__", lambda self, *args: bases.append(1) or init(self, *args))
    monkeypatch.setattr(grid, "newton",
                        lambda self, anchors: chunks.append(anchors.shape[1])
                        or newton(self, anchors))
    texts = []
    for grid_bytes, expected in ((per_mode, [1] * 7), (2 * per_mode, [2, 2, 2, 1]),
                                 (default, [7]), (1, [1] * 7)):
        monkeypatch.setattr(mass_oracle, "_GRID_BYTES", grid_bytes)
        calls.clear(), bases.clear(), chunks.clear()
        out = tmp_path / str(grid_bytes)
        assert main(["analyze", str(NETWORK), "--out", str(out)]) == EXIT_OK
        assert calls == [7] and bases == [1]
        assert chunks == expected
        texts.append((out / "validation.json").read_bytes())
    assert texts[0] == texts[1] == texts[2] == texts[3]


def test_impedance_validation_does_not_depend_on_the_batch(tmp_path, monkeypatch):
    """The impedance-route validation of measured_two_bus is one
    refine_modes call over every (mode, element) pair, and its
    validation.json is the same when a batch of Y holds two seeds as at
    the default _BATCH_BYTES."""
    measured = REPO / "networks" / "measured_two_bus.json"
    dim = 2 * network_model.parse_network(measured.read_text(),
                                          base_dir=str(measured.parent)).n_buses
    validate, refine, calls = mai_core.validate_mode_predictions, rational_fit.refine_modes, []

    def batched(*args, **kwargs):  # the surrogate fit and mode search keep theirs
        with monkeypatch.context() as m:
            m.setattr(rational_fit, "_BATCH_BYTES", batch_bytes)
            m.setattr(rational_fit, "refine_modes",
                      lambda Yfun, seeds, *rest: calls.append(len(seeds))
                      or refine(Yfun, seeds, *rest))
            return validate(*args, **kwargs)

    monkeypatch.setattr(mai_core, "validate_mode_predictions", batched)
    texts = []
    for batch_bytes in (rational_fit._BATCH_BYTES, 2 * 48 * dim**2):
        out = tmp_path / str(batch_bytes)
        calls.clear()
        assert main(["analyze", str(measured), "--band", "5:5000", "--out", str(out)]) == EXIT_OK
        modes = json.loads((out / "validation.json").read_text())["modes"]
        assert calls == [sum(len(mode["elements"]) for mode in modes)]
        texts.append((out / "validation.json").read_bytes())
    assert texts[0] == texts[1]


def test_vector_fit_does_not_depend_on_the_batch(tmp_path, monkeypatch):
    """vector_fit gives the same model, bit for bit, when a batch of its
    pole relocation holds one response as at the default _BATCH_BYTES, and
    so the report tree of measured_two_bus is the same too."""
    measured = REPO / "networks" / "measured_two_bus.json"
    response = network_model.parse_network(measured.read_text(),
                                           base_dir=str(measured.parent)).apparatus[0].model
    fit, models, trees = rational_fit.vector_fit, [], []

    def batched(batch_bytes):
        def fitting(*args, **kwargs):  # the mode search and validation keep theirs
            with monkeypatch.context() as m:
                m.setattr(rational_fit, "_BATCH_BYTES", batch_bytes)
                return fit(*args, **kwargs)
        return fitting

    for batch_bytes in (rational_fit._BATCH_BYTES, 2 * 48 * response.dim**2):
        monkeypatch.setattr(rational_fit, "vector_fit", batched(batch_bytes))
        model = rational_fit.vector_fit(response, order=16)
        models.append([np.ascontiguousarray(getattr(model, name)).tobytes()
                       for name in ("poles", "residues", "const", "linear")])
        out = tmp_path / str(batch_bytes)
        assert main(["analyze", str(measured), "--band", "5:5000", "--out", str(out)]) == EXIT_OK
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert models[0] == models[1]
    # the tree carries the rows of at least 3 modes
    assert len(_mode_groups(tmp_path / str(rational_fit._BATCH_BYTES) / "mode_elements.csv")) >= 3
    assert trees[0] == trees[1]


def test_validation_json_is_json_dumps(tmp_path):
    """The validation.json emitter writes what json.dumps(doc, indent=2)
    writes: for a real run's document, and for error messages and element
    names with quotes, backslashes, braces, percent signs and non-ASCII
    text, non-finite error percentages, an error entry between records, an
    int epsilon, an empty element list and an empty mode list."""
    assert main(["analyze", str(NETWORK), "--out", str(tmp_path)]) == EXIT_OK
    text = (tmp_path / "validation.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    message = 'nearest mode \\ "far" {0} 5% %s \u00e9\u0394\u03bb \u2014 gone}'
    record = {"element": "line 1-2", "predicted": [0.1, -2.5e-17], "actual": [1e300, -0.0]}
    percents = (np.inf, -np.inf, np.nan, 12.5)
    labels = ['apparatus "0"'] + ["line 1-2"] * len(percents) + ["{x} %d \\ \u00e9"]
    outcomes = [[mai_core.AnalysisError(message)] + [
        mai_core.ValidationRecord(predicted=complex(0.1, -2.5e-17), actual=complex(1e300, -0.0),
                                  error=x / 100.0) for x in percents]
        + [mai_core.AnalysisError("{}")], []]
    modes = [mai_core.ModeRecord(lam=complex(-1.5, 314.0), left=np.ones(2), right=np.ones(2),
                                 provenance=""),
             mai_core.ModeRecord(lam=complex(0.0, -1.0), left=np.ones(2), right=np.ones(2),
                                 provenance="", denom=2.0)]
    doc = {"epsilon": 1, "modes": [
        {"mode": 0, "lambda": [-1.5, 314.0], "elements": [
            {"element": labels[0], "error": message},
            *[{**record, "error_percent": x} for x in percents],
            {"element": labels[-1], "error": "{}"}]},
        {"mode": 12, "lambda": [0.0, -1.0], "elements": []}]}
    assert ("".join(cli_reporting._validation_json(1, labels, [0, 12], modes, outcomes))
            == json.dumps(doc, indent=2) + "\n")
    assert ("".join(cli_reporting._validation_json(0.05, labels, [], [], []))
            == json.dumps({"epsilon": 0.05, "modes": []}, indent=2) + "\n")


def _parse_floats(row, keys):
    return np.array([float(row[k]) for k in keys])


def _close(have, want):
    return np.all(np.abs(have - want) <= 1e-11 * np.abs(want) + 1e-300)


def _mode_groups(path) -> dict:
    """{mode: [row, ...]} of a long-form report table, without the mode
    column, in the order the modes first appear."""
    groups = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(int(row.pop("mode")), []).append(row)
    return groups


def test_report_csvs_parse_back_to_the_layers(tmp_path):
    """On a ring with a transformer, all three shunt kinds, parallel branches
    and rational apparatus (impedance route), every element and layer-3
    value of every mode parses back to the one-mode mode_layers within
    the 12 printed digits; every bus-pair row to the sum of the elements
    on its pair, with their count. Unoccupied pairs have no row."""
    doc = mixed_ring_doc()
    (tmp_path / "ring.json").write_text(json.dumps(doc))
    out = tmp_path / "rep"
    assert main(["analyze", str(tmp_path / "ring.json"), "--band", "5:5000", "--no-validate",
                 "--out", str(out)]) == EXIT_OK
    net = network_model.parse_network(json.dumps(doc))
    refs = network_elements(net)
    modes = mai_core.solve_modes(net, band=(5.0, 5000.0))
    assert len(modes) == json.loads((out / "summary.json").read_text())["n_modes"] >= 7
    keys = ("layer1_cauchy", "layer1_enhanced", "layer2_real", "layer2_imag")

    labels = [assembly.element_label(net, ref) for ref in refs]
    table = assembly.StampTable(net)
    params = [mai_core.LAYER3_PARAMS[kind] for kind, _ in refs]
    elements, layer3 = (_mode_groups(out / name) for name in ("mode_elements.csv",
                                                               "mode_layer3.csv"))
    assert list(elements) == list(layer3) == list(range(len(modes)))
    for k, mode in enumerate(modes):
        (layers,) = mai_core.mode_layers(net, [mode])
        want = np.stack([layers.layer1_cauchy, layers.layer1_enhanced, layers.layer2.real,
                         layers.layer2.imag], axis=-1)
        rows = elements[k]
        assert [row["element"] for row in rows] == labels
        assert all(float(row["epsilon"]) == 0.05 for row in rows)
        assert _close(np.array([_parse_floats(row, keys) for row in rows]), want)
        rows = layer3[k]
        assert [(row["element"], row["parameter"]) for row in rows] == [
            (label, p) for label, names in zip(labels, params) for p in sorted(names)]
        s_rho = np.array([layers.layer3[e, names.index(p)] for e, names in enumerate(params)
                          for p in sorted(names)])
        parsed = np.array([_parse_floats(row, ("s_rho_real", "s_rho_imag")) for row in rows])
        assert _close(parsed[:, 0], s_rho.real) and _close(parsed[:, 1], s_rho.imag)
        pairs = {}
        for i, j, v in zip(table.i.tolist(), table.j.tolist(), want):
            pair = tuple(sorted((i, j or i)))
            count, total = pairs.get(pair, (0, 0.0))
            pairs[pair] = (count + 1, total + v)
        rows = _bus_pairs(out / "mode_bus_pairs.csv", k)
        assert list(rows) == sorted(pairs)
        assert pairs[(2, 3)][0] == 2
        for pair, row in rows.items():
            count, total = pairs[pair]
            assert int(row["elements"]) == count
            assert _close(_parse_floats(row, keys), total), (k, pair)


def _fragile_apparatus(net, failing):
    """The evaluation of an apparatus group (alone, or in a table's grouped
    pass), except that the model of apparatus a of ``net`` raises at the
    mode values ``failing[a]``, naming its s."""
    models = [app.model for app in net.apparatus]
    exact = assembly._ApparatusGroup.evaluate

    def evaluate(group, s):
        for model in group.models:
            a = next((a for a, m in enumerate(models) if m is model), None)
            if np.isin(np.asarray(s), failing.get(a, [])).any():
                raise EvaluationError(f"apparatus {a} fails at s = {s}")
        return exact(group, s)
    return evaluate


@pytest.mark.parametrize("modes_arg", ["all", "1,6,4,5"])
@pytest.mark.parametrize("per_chunk", [None, 3])
def test_layer_evaluation_error_names_the_first_failing_mode(tmp_path, monkeypatch, capsys,
                                                            modes_arg, per_chunk):
    """Apparatus 0 fails at modes 4 and 6, apparatus 1 at mode 4: analyze
    exits numerical with the error a per-mode loop over the selected modes
    raises first, named as Y names it: apparatus 0 (at bus 3) at mode 4
    for all modes in order, at mode 6 for the order 1, 6, 4, 5, with s as
    that mode alone passes it; whether the modes are stacked in one chunk
    or in chunks of 3."""
    net = network_model.parse_network(NETWORK.read_text())
    refs = network_elements(net)
    records = mai_core.solve_modes(net)
    lam = [r.lam for r in records]
    monkeypatch.setattr(mai_core, "solve_modes", lambda *args, **kwargs: records)
    monkeypatch.setattr(cli_reporting, "_load_network", lambda path: net)
    monkeypatch.setattr(assembly._ApparatusGroup, "evaluate",
                        _fragile_apparatus(net, {0: [lam[4], lam[6]], 1: [lam[4]]}))
    if per_chunk is not None:
        monkeypatch.setattr(mai_core, "_CHUNK_BYTES", per_chunk * 64 * len(refs))
    selected = range(len(records)) if modes_arg == "all" else map(int, modes_arg.split(","))
    table = assembly.StampTable(net)
    try:
        for k in selected:
            table.evaluate(records[k].lam)
    except EvaluationError as exc:
        expected = {"error": "numerical", "type": type(exc).__name__, "message": str(exc)}
    assert net.apparatus[0].bus == 3
    assert expected["message"].startswith("apparatus at bus 3: apparatus 0 fails at s = ")
    assert main(["analyze", str(NETWORK), "--no-validate", "--modes", modes_arg,
                 "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert json.loads(capsys.readouterr().err) == expected


def test_console_script_entry():
    out = subprocess.run(
        [sys.executable, "-c", "from impedmodal.cli_reporting import main; raise SystemExit(main(['analyze', '--help']))"],
        capture_output=True, text=True,
        # the child finds the package where this process does, installed or not
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0
    assert "network" in out.stdout


# ---------------------------------------------------------------------------
# Bus-pair tables
# ---------------------------------------------------------------------------


def _bus_pairs(path, k: int) -> dict:
    """{(bus_i, bus_j): row} of mode ``k``'s rows of a bus-pair table."""
    return {(int(r["bus_i"]), int(r["bus_j"])): r for r in _mode_groups(path)[k]}


def test_bus_pairs_single_apparatus_only_diagonal(tmp_path):
    doc = {
        "n_buses": 2, "omega0": 314.159265358979,
        "branches": [{"kind": "line", "from": 1, "to": 2, "R": 0.05, "L": 0.002}],
        "shunts": [
            {"bus": 1, "kind": "capacitive", "value": 0.001},
            {"bus": 2, "kind": "capacitive", "value": 0.001},
        ],
        "apparatus": [{
            "bus": 1, "theta": 0.0,
            "model": {"kind": "state_space",
                      "A": [[-20.0, 314.159265358979], [-314.159265358979, -20.0]],
                      "B": [[200.0, 0.0], [0.0, 200.0]],
                      "C": [[1.0, 0.0], [0.0, 1.0]],
                      "D": [[0.0, 0.0], [0.0, 0.0]]},
        }],
    }
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(doc))
    assert main(["analyze", str(net_file), "--modes", "0", "--no-validate",
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = _bus_pairs(tmp_path / "mode_bus_pairs.csv", 0)
    # apparatus and shunt on (1,1); (2,2) is shunt-only, still a node row
    assert list(rows) == [(1, 1), (1, 2), (2, 2)]
    assert [rows[pair]["elements"] for pair in rows] == ["2", "1", "1"]


def test_bus_pairs_parallel_branches_summed(tmp_path):
    doc = {
        "n_buses": 2, "omega0": 314.159265358979,
        "branches": [
            {"kind": "line", "from": 1, "to": 2, "R": 0.05, "L": 0.002},
            {"kind": "line", "from": 2, "to": 1, "R": 0.08, "L": 0.003},
        ],
        "shunts": [
            {"bus": 1, "kind": "capacitive", "value": 0.001},
            {"bus": 2, "kind": "capacitive", "value": 0.001},
        ],
    }
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(doc))
    assert main(["analyze", str(net_file), "--modes", "0", "--no-validate",
                 "--out", str(tmp_path)]) == EXIT_OK
    pairs = _bus_pairs(tmp_path / "mode_bus_pairs.csv", 0)
    assert list(pairs) == [(1, 1), (1, 2), (2, 2)]
    assert pairs[(1, 2)]["elements"] == "2"
    # the element table keeps both branches separate, and the pair row is their sum
    lines = [r for r in _mode_groups(tmp_path / "mode_elements.csv")[0]
             if r["element"].startswith("line:")]
    assert len(lines) == 2
    for key in ("layer1_cauchy", "layer1_enhanced", "layer2_real", "layer2_imag"):
        parts = [float(r[key]) for r in lines]
        assert abs(float(pairs[(1, 2)][key]) - sum(parts)) <= 1e-11 * sum(map(abs, parts))


def test_mode_tables_are_grouped_in_selection_order(tmp_path):
    """With --modes 2,0 each table holds mode 2's rows, then mode 0's, its
    mode column naming them; a group has a row per element, layer-3
    parameter or bus pair, and parses back to that mode's one-mode
    mode_layers at the 12 printed digits. The tree holds the same five
    files for two modes as for all of them."""
    net = network_model.parse_network(NETWORK.read_text())
    refs = network_elements(net)
    records = mai_core.solve_modes(net)
    out = tmp_path / "rep"
    assert main(["analyze", str(NETWORK), "--modes", "2,0", "--no-validate",
                 "--out", str(out)]) == EXIT_OK
    n_params = sum(len(mai_core.LAYER3_PARAMS[kind]) for kind, _ in refs)
    table = assembly.StampTable(net)
    on_pair = [tuple(sorted((i, j or i))) for i, j in zip(table.i.tolist(), table.j.tolist())]
    for name, n_rows in (("mode_elements.csv", len(refs)), ("mode_layer3.csv", n_params),
                         ("mode_bus_pairs.csv", len(set(on_pair)))):
        with open(out / name) as fh:
            column = [int(row["mode"]) for row in csv.DictReader(fh)]
        assert column == [2] * n_rows + [0] * n_rows, name
    keys = ("layer1_cauchy", "layer1_enhanced", "layer2_real", "layer2_imag")

    elements, layer3 = (_mode_groups(out / name) for name in ("mode_elements.csv",
                                                               "mode_layer3.csv"))
    for k in (2, 0):
        (layers,) = mai_core.mode_layers(net, [records[k]])
        want = np.stack([layers.layer1_cauchy, layers.layer1_enhanced, layers.layer2.real,
                         layers.layer2.imag], axis=-1)
        assert _close(np.array([_parse_floats(row, keys) for row in elements[k]]), want)
        s_rho = np.concatenate([layers.layer3[e, :len(mai_core.LAYER3_PARAMS[kind])]
                                for e, (kind, _) in enumerate(refs)])
        parsed = np.array([_parse_floats(row, ("s_rho_real", "s_rho_imag")) for row in layer3[k]])
        assert _close(parsed[:, 0], s_rho.real) and _close(parsed[:, 1], s_rho.imag)
        pairs = {}
        for pair, v in zip(on_pair, want):
            pairs[pair] = pairs.get(pair, 0.0) + v
        rows = _bus_pairs(out / "mode_bus_pairs.csv", k)
        assert list(rows) == sorted(pairs)
        assert all(_close(_parse_floats(row, keys), pairs[pair]) for pair, row in rows.items())
    tree = ["mode_bus_pairs.csv", "mode_elements.csv", "mode_layer3.csv", "modes.csv",
            "summary.json"]
    assert sorted(f.name for f in out.iterdir()) == tree
    assert main(["analyze", str(NETWORK), "--no-validate",
                 "--out", str(tmp_path / "all")]) == EXIT_OK
    assert sorted(f.name for f in (tmp_path / "all").iterdir()) == tree


BAD_BANDS = ["5:inf", "nan:5000", "5:nan", "5000:5", "0:10", "-5:10"]


@pytest.mark.parametrize("band", BAD_BANDS)
def test_analyze_rejects_bad_band(tmp_path, capsys, band):
    measured = REPO / "networks" / "measured_two_bus.json"
    code = main(["analyze", str(measured), f"--band={band}", "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["type"] == "ConfigError"
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("band", BAD_BANDS)
def test_sweep_rejects_bad_band(tmp_path, capsys, band):
    code = main([
        "sweep", str(NETWORK), "--branch", "1:2", "--param", "L", "--factor", "1.05",
        "--steps", "3", f"--band={band}", "--out", str(tmp_path),
    ])
    assert code == EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["type"] == "ConfigError"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["sweep", "--branch", "1:2", "--param", "L", "--factor", "1.05", "--steps", "2"],
])
def test_missing_band_without_oracle_is_input_error(tmp_path, capsys, argv):
    measured = REPO / "networks" / "measured_two_bus.json"
    code = main([argv[0], str(measured), *argv[1:], "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ConfigError" and "--band" in err["message"]
    assert list(tmp_path.iterdir()) == []
