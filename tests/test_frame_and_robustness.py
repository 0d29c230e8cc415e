"""Hardening checks: frame rotation with non-commuting apparatus blocks,
unstable-pole fitting, degenerate model warnings and shunt derivatives."""

import numpy as np
import pytest

from impedmodal import mai_core
from impedmodal.admittance_assembly import WholeSystemModel, state_space_response
from impedmodal.mass_oracle import eigendecompose, interconnect
from impedmodal.network_model import (
    ApparatusAttachment,
    NetworkDescription,
    SampledResponse,
    ShuntElement,
    StateSpaceRealization,
)
from impedmodal.rational_fit import (
    RationalModel,
    frequency_grid,
    sample_response,
    vector_fit,
)

from conftest import W0, dense_residue, node_admittance


def _asymmetric_apparatus():
    """Apparatus whose dq block does NOT commute with frame rotations, so a
    transpose error in the rotation handling cannot cancel out."""
    rng = np.random.default_rng(5)
    A = np.array([[-30.0, 200.0, 5.0], [-150.0, -40.0, 0.0], [2.0, -1.0, -60.0]])
    return StateSpaceRealization(
        A=A,
        B=rng.normal(size=(3, 2)),
        C=rng.normal(size=(2, 3)),
        D=np.array([[0.30, 0.10], [-0.05, 0.20]]),
    )


def test_rotation_actually_changes_asymmetric_block():
    app = _asymmetric_apparatus()
    y0 = node_admittance(app, 1j * 80.0)
    y1 = node_admittance(app, 1j * 80.0, 0.7)
    assert not np.allclose(y0, y1)


@pytest.mark.parametrize("theta", [0.0, 0.7, -2.1])
def test_interconnect_matches_assembly_asymmetric_apparatus(theta):
    net = NetworkDescription(
        n_buses=1,
        omega0=W0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.002),),
        apparatus=(ApparatusAttachment(bus=1, model=_asymmetric_apparatus(), theta=theta),),
    )
    ss = interconnect(net)
    model = WholeSystemModel(net)
    for s in (1j * 80.0, -12.0 + 400.0j, 3.5 + 0.0j):
        Z = model.impedance(s)
        G = state_space_response(ss.A, ss.B, ss.C, ss.D, s)
        assert np.linalg.norm(G - Z) <= 1e-12 * np.linalg.norm(Z)


def test_asymmetric_apparatus_modes_and_predictions():
    net = NetworkDescription(
        n_buses=1,
        omega0=W0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.002),),
        apparatus=(ApparatusAttachment(bus=1, model=_asymmetric_apparatus(), theta=1.1),),
    )
    records = mai_core.solve_modes(net, method="state_space")
    refs = [r.lam for r in records]
    mode = max(records, key=lambda r: np.linalg.norm(dense_residue(r)))
    v = mai_core.validate_element_prediction(net, ("apparatus", 0), mode, epsilon=1e-4,
                                             reference_modes=refs)
    assert v.error <= 1e-2


def test_vector_fit_recovers_unstable_poles():
    # response of a mildly unstable pair: the fit keeps the true unstable pole
    p = complex(2.0, 120.0)
    w = np.geomspace(1.0, 1e3, 160)
    vals = (1.0 / (1j * w - p) + 1.0 / (1j * w - np.conj(p))).reshape(-1, 1, 1)
    free = vector_fit(SampledResponse(frequencies=w, blocks=vals), order=2, n_iterations=10)
    assert min(abs(q - p) for q in free.poles) <= 1e-6 * abs(p)


def test_rational_model_repeated_pole_warning():
    model = RationalModel(
        poles=np.array([-5.0 + 0j, -5.0 + 1e-12j]),
        residues=np.zeros((2, 1, 1), dtype=complex),
        const=np.zeros((1, 1), dtype=complex),
        linear=np.zeros((1, 1), dtype=complex),
    )
    assert model.warning is not None and "coincide" in model.warning


def test_sample_response_accepts_callable():
    fun = lambda s: np.array([[1.0 / (s + 3.0)]])
    samples = sample_response(fun, frequency_grid(0.1, 10.0, 5))
    assert np.allclose(samples.blocks[:, 0, 0], 1.0 / (1j * samples.frequencies + 3.0))


@pytest.mark.parametrize("kind,value", [
    ("resistive", 2.5), ("capacitive", 0.003), ("inductive", 0.4),
])
def test_shunt_parameter_derivative_finite_difference(kind, value):
    lam = -22.0 + 370.0j
    y = node_admittance(ShuntElement(bus=1, kind=kind, value=value), lam)
    dy = mai_core._shunt_value_derivative(kind, value, y, lam, W0)
    h = 1e-7 * value
    up = node_admittance(ShuntElement(bus=1, kind=kind, value=value + h), lam)
    dn = node_admittance(ShuntElement(bus=1, kind=kind, value=value - h), lam)
    assert np.allclose(dy, (up - dn) / (2 * h), rtol=1e-6)


def test_eigendecompose_complex_pairing_on_network(three_bus_net):
    """Conjugate mode pairs of the real state matrix stay exactly paired."""
    eig = eigendecompose(interconnect(three_bus_net).A)
    lams = eig.eigenvalues
    for lam in lams:
        if lam.imag != 0:
            assert np.min(np.abs(lams - np.conj(lam))) == 0.0
