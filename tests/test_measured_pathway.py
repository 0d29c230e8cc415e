"""The measurement-only pathway: apparatus known solely through sampled or
rational port responses, analyzed without any state-space information, and
checked against the state-space twin of the same physical system."""

import json
from dataclasses import replace

import numpy as np
import pytest

from impedmodal import mai_core
from impedmodal.cli_reporting import EXIT_OK, main
from impedmodal.mass_oracle import eigendecompose, interconnect
from impedmodal.network_model import (
    ApparatusAttachment,
    NetworkDescription,
    SampledResponse,
    SeriesBranch,
    ShuntElement,
    serialize_network,
)
from impedmodal.rational_fit import fit_apparatus_surrogate

from conftest import W0, dense_residue, node_admittance, rl_load_apparatus
from paper_reference import residue_sensitivity, resolvent_residue


@pytest.fixture(scope="module")
def twin_pair():
    """The same 2-bus system twice: apparatus as state space vs as samples."""
    app_ss = rl_load_apparatus(0.15, 0.004)
    theta = 0.25
    base = dict(
        n_buses=2,
        omega0=W0,
        branches=(SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.04, L=0.0018),),
        shunts=(
            ShuntElement(bus=1, kind="capacitive", value=0.0012),
            ShuntElement(bus=2, kind="capacitive", value=0.0009),
            ShuntElement(bus=1, kind="resistive", value=2.5),
        ),
    )
    net_ss = NetworkDescription(
        **base, apparatus=(ApparatusAttachment(bus=2, model=app_ss, theta=theta),)
    )
    # measure the local-frame response on a dense grid
    grid = np.geomspace(2.0, 8e3, 220)
    blocks = node_admittance(app_ss, 1j * grid)
    sampled = SampledResponse(frequencies=grid, blocks=blocks, path="measured.csv")
    net_meas = NetworkDescription(
        **base, apparatus=(ApparatusAttachment(bus=2, model=sampled, theta=theta),)
    )
    return net_ss, net_meas


def test_surrogate_reproduces_measured_response(twin_pair):
    _, net_meas = twin_pair
    model = net_meas.apparatus[0].model
    surrogate = fit_apparatus_surrogate(model, order=6)
    assert surrogate.max_rel_deviation <= 1e-6
    k = 60
    w = model.frequencies[k]
    assert np.allclose(surrogate.evaluate(1j * w), model.blocks[k], rtol=1e-6)


def _with_surrogate(net_meas, order=6):
    """The measured network with its sampled apparatus replaced by the
    rational surrogate fitted to the samples."""
    app = net_meas.apparatus[0]
    surrogate = fit_apparatus_surrogate(app.model, order=order)
    return replace(net_meas, apparatus=(replace(app, model=surrogate),))


def test_measured_modes_match_state_space_twin(twin_pair):
    net_ss, net_meas = twin_pair
    eig = eigendecompose(interconnect(net_ss).A)
    records = mai_core.solve_modes(_with_surrogate(net_meas), band=(5.0, 5e3),
                                   method="impedance")
    assert records
    for rec in records:
        dist = np.min(np.abs(eig.eigenvalues - rec.lam))
        assert dist <= 1e-5 * abs(rec.lam)


def test_measured_sensitivities_match_twin(twin_pair):
    """Element sensitivities from the measurement-only path agree with the
    state-space twin's residues."""
    net_ss, net_meas = twin_pair
    ss = interconnect(net_ss)
    records = mai_core.solve_modes(_with_surrogate(net_meas), band=(5.0, 5e3),
                                   method="impedance")
    rec = max(records, key=lambda r: np.linalg.norm(dense_residue(r)))
    R_ss = ss.C @ resolvent_residue(ss.A, rec.lam) @ ss.B
    assert np.linalg.norm(dense_residue(rec) - R_ss) <= 1e-4 * np.linalg.norm(R_ss)
    [[s_meas]] = mai_core._sensitivity_factors([1], [2], [1.0], [rec])
    s_true = residue_sensitivity(R_ss, 1, 2)
    assert np.allclose(s_meas, s_true, rtol=1e-4)


def test_cli_measured_network(tmp_path, twin_pair):
    """Full CLI run on a network whose apparatus is a samples CSV."""
    from impedmodal.network_model import write_response_csv

    net_ss, net_meas = twin_pair
    measured = net_meas.apparatus[0].model
    (tmp_path / "measured.csv").write_text(
        write_response_csv(measured.frequencies, measured.blocks)
    )
    (tmp_path / "net.json").write_text(serialize_network(net_meas))
    out = tmp_path / "rep"
    code = main([
        "analyze", str(tmp_path / "net.json"), "--band", "5:5000",
        "--order", "12", "--modes", "all", "--out", str(out),
    ])
    assert code == EXIT_OK
    modes = (out / "modes.csv").read_text().strip().splitlines()
    assert len(modes) >= 2
    assert "newton-refined" in modes[1]
    validation = json.loads((out / "validation.json").read_text())
    errs = [e["error_percent"] for m in validation["modes"] for e in m["elements"]
            if "error_percent" in e]
    assert errs and all(e <= 25.0 for e in errs)


def test_cli_measured_network_requires_band(tmp_path, twin_pair):
    from impedmodal.cli_reporting import EXIT_INPUT
    from impedmodal.network_model import write_response_csv

    _, net_meas = twin_pair
    measured = net_meas.apparatus[0].model
    (tmp_path / "measured.csv").write_text(
        write_response_csv(measured.frequencies, measured.blocks)
    )
    (tmp_path / "net.json").write_text(serialize_network(net_meas))
    assert main(["analyze", str(tmp_path / "net.json"), "--out", str(tmp_path)]) == EXIT_INPUT


def test_rational_apparatus_pipeline(tmp_path):
    """A rational-matrix apparatus is evaluable anywhere; the auto method
    uses the impedance path and still finds the right modes."""
    # admittance of an RL load in its local frame, as rational entries:
    # y(s) = [[ (R+sL), w0 L], [-w0 L, (R+sL)]] / ((R+sL)^2 + (w0 L)^2)
    R, L = 0.15, 0.004
    den = np.polymul([L, R], [L, R]).tolist()
    den[-1] += (W0 * L) ** 2
    doc = {
        "n_buses": 1,
        "omega0": W0,
        "shunts": [
            {"bus": 1, "kind": "capacitive", "value": 0.0012},
            {"bus": 1, "kind": "resistive", "value": 2.5},
        ],
        "apparatus": [{
            "bus": 1, "theta": 0.0,
            "model": {
                "kind": "rational",
                "entries": [
                    [{"num": [L, R], "den": den}, {"num": [W0 * L], "den": den}],
                    [{"num": [-W0 * L], "den": den}, {"num": [L, R], "den": den}],
                ],
            },
        }],
    }
    (tmp_path / "net.json").write_text(json.dumps(doc))
    out = tmp_path / "rep"
    code = main(["analyze", str(tmp_path / "net.json"), "--band", "5:5000",
                 "--order", "10", "--out", str(out)])
    assert code == EXIT_OK
    # twin with the same load as a state-space apparatus
    net_ss = NetworkDescription(
        n_buses=1, omega0=W0,
        shunts=(
            ShuntElement(bus=1, kind="capacitive", value=0.0012),
            ShuntElement(bus=1, kind="resistive", value=2.5),
        ),
        apparatus=(ApparatusAttachment(bus=1, model=rl_load_apparatus(R, L)),),
    )
    eig = eigendecompose(interconnect(net_ss).A)
    import csv

    with open(out / "modes.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        lam = complex(float(row["real"]), float(row["imag"]))
        assert np.min(np.abs(eig.eigenvalues - lam)) <= 1e-6 * abs(lam)
