"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured value against its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.
"""

import itertools
import time

import numpy as np

from impedmodal import mai_core, mass_oracle
from impedmodal.admittance_assembly import WholeSystemModel, dq_series_impedance, network_elements
from impedmodal.mai_core import (
    branch_parameter_sensitivity,
    enhanced_layer1,
    mode_layers,
    parameter_sweep,
    predict_mode_shift,
    solve_modes,
    track_mode,
    validate_element_prediction,
    validate_prediction,
)
from impedmodal.mass_oracle import eigendecompose, interconnect
from impedmodal.network_model import SampledResponse
from impedmodal.rational_fit import frequency_grid, vector_fit

from conftest import W0, dense_residue, rl_shunt_admittance
from paper_reference import (
    eigenvalue_sensitivity_matrix,
    participation_matrix,
    residue_sensitivity,
    resolvent_residue,
    split_node_impedances,
)
from test_mai_core import _augmented_oracle, _random_rl_net


def _criterion(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_enhanced_layer1_arithmetic():
    v1 = enhanced_layer1(-0.047, 0.004)
    v2 = enhanced_layer1(0.291, -1.262)
    ok = abs(v1 - 0.047) <= 1e-3 and abs(v2 - 1.295) <= 1e-3
    _criterion(1, ok, f"|(-0.047, 0.004)| = {v1:.4f} (0.047 +- 0.001), "
                      f"|(0.291, -1.262)| = {v2:.4f} (1.295 +- 0.001)")


def test_criterion_02_validation_error_arithmetic():
    e1 = 100 * validate_prediction(-0.0741 + 0.2415j, -0.0621 + 0.2059j).error
    e2 = 100 * validate_prediction(-0.0612 + 0.2129j, -0.0621 + 0.2059j).error
    ok = abs(e1 - 14.854) <= 0.2 and abs(e2 - 3.165) <= 0.2
    _criterion(2, ok, f"errors {e1:.3f}% (14.854 +- 0.2 pp), {e2:.3f}% (3.165 +- 0.2 pp)")


def test_criterion_03_pole_equivalence(three_bus_net):
    t0 = time.perf_counter()
    model = WholeSystemModel(three_bus_net)
    records = mai_core.solve_modes(three_bus_net, band=(5.0, 5000.0), method="impedance")
    elapsed = time.perf_counter() - t0
    eig = eigendecompose(interconnect(three_bus_net).A)
    worst = 0.0
    for rec in records:
        dist = np.min(np.abs(eig.eigenvalues - rec.lam))
        worst = max(worst, dist / abs(rec.lam))
    ok = records and worst <= 1e-8 and elapsed < 5.0
    _criterion(3, ok, f"{len(records)} refined det-Y zeros match eig(A), worst "
                      f"rel dev {worst:.2e} (<= 1e-8), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_04_residue_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 21))
        A = rng.normal(size=(n, n))
        try:
            eig = eigendecompose(A)
        except mass_oracle.DefectiveMatrixError:
            continue
        gaps = np.abs(eig.eigenvalues[:, None] - eig.eigenvalues[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < 1e-6 * max(1.0, np.linalg.norm(A)):
            continue
        for i, lam in enumerate(eig.eigenvalues):
            R = resolvent_residue(A, complex(lam))
            S = eigenvalue_sensitivity_matrix(eig, i)
            dev = np.linalg.norm(R - S.T) / np.linalg.norm(R)
            worst = max(worst, dev)
        checked += 1
    ok = worst <= 1e-10
    _criterion(4, ok, f"20 random matrices (up to 20x20): worst "
                      f"||Res - (dlam/dA)^T|| / ||phi psi|| = {worst:.2e} (<= 1e-10)")


def test_criterion_05_sensitivity_finite_difference_suite(three_bus_net):
    records = solve_modes(three_bus_net, method="state_space")
    refs = [r.lam for r in records]
    worst_coarse = 0.0
    worst_ratio_checked = np.inf
    n_ratio = 0
    for ref in network_elements(three_bus_net):
        for mode in records:
            errors = {}
            for eps in (1e-3, 1e-4):
                v = validate_element_prediction(three_bus_net, ref, mode, epsilon=eps,
                                                reference_modes=refs)
                errors[eps] = v.error
            worst_coarse = max(worst_coarse, errors[1e-3])
            # convergence ratio is measurable only above the re-solve noise floor
            if errors[1e-3] >= 1e-4 and errors[1e-4] > 0:
                ratio = errors[1e-3] / errors[1e-4]
                worst_ratio_checked = min(worst_ratio_checked, ratio)
                n_ratio += 1
    ok = worst_coarse <= 0.02 and worst_ratio_checked >= 5.0 and n_ratio > 0
    _criterion(5, ok, f"all elements x modes: worst error {100 * worst_coarse:.3f}% "
                      f"(<= 2%) at eps = 1e-3; min convergence ratio "
                      f"{worst_ratio_checked:.1f} (>= 5) over {n_ratio} measurable pairs")


def test_criterion_06_transformer_ratio_enhancement(three_bus_net):
    records = solve_modes(three_bus_net, method="state_space")
    spacing = min(abs(a.lam - b.lam) for a, b in itertools.combinations(records, 2))
    # studied mode: least damped oscillatory (nearest the imaginary axis)
    mode = max((r for r in records if r.lam.imag > 0), key=lambda r: r.lam.real)
    bidx = 1
    b = three_bus_net.branches[bidx]
    assert b.ratio == 0.932
    lam = mode.lam
    d_rho = 0.05 * b.L

    s_enh = branch_parameter_sensitivity(three_bus_net, bidx, mode, "L")
    # uncorrected: unit-ratio branch formula applied to the transformer
    plain = residue_sensitivity(dense_residue(mode), b.from_bus, b.to_bus)
    z = dq_series_impedance(b.R, b.L, three_bus_net.omega0, lam)
    y = np.linalg.inv(z)
    dz_dL = np.array([[lam, -three_bus_net.omega0], [three_bus_net.omega0, lam]])
    s_unc = predict_mode_shift(plain, -y @ dz_dL @ y)

    perturbed = three_bus_net.with_branch(bidx, L=b.L * 1.05)
    eig = eigendecompose(interconnect(perturbed).A)
    lam_new = track_mode(lam, [complex(v) for v in eig.eigenvalues], spacing=spacing)
    actual = lam_new - lam
    err_enh = validate_prediction(s_enh * d_rho, actual).error
    err_unc = validate_prediction(s_unc * d_rho, actual).error
    ok = err_unc >= 3.0 * err_enh
    _criterion(6, ok, f"5% L change on k=0.932 transformer at mode {lam:.2f}: "
                      f"corrected error {100 * err_enh:.2f}%, uncorrected "
                      f"{100 * err_unc:.2f}% ({err_unc / err_enh:.1f}x, need >= 3x)")


def test_criterion_07_split_node_exactness():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        net = _random_rl_net(rng)
        bidx = int(rng.integers(0, len(net.branches)))
        s = complex(rng.uniform(-50, 50), rng.uniform(100, 2000))
        Z_aug, split = _augmented_oracle(net, bidx, s)
        Z = WholeSystemModel(net).impedance(s)
        b = net.branches[bidx]
        blocks = split_node_impedances(Z, b.from_bus, b.to_bus, split.z1, split.z2)
        n = net.n_buses
        sf = slice(2 * n, 2 * n + 2)
        worst = max(
            worst,
            float(np.max(np.abs(blocks.row - Z_aug[sf, : 2 * n]))),
            float(np.max(np.abs(blocks.col - Z_aug[: 2 * n, sf]))),
            float(np.max(np.abs(blocks.Z_ff - Z_aug[sf, sf]))),
        )
    ok = worst <= 1e-10
    _criterion(7, ok, f"10 random RL networks (3-6 buses): worst |closed-form - "
                      f"augmented inversion| = {worst:.2e} (<= 1e-10 absolute)")


def test_criterion_08_cauchy_dominance(three_bus_net):
    records = solve_modes(three_bus_net, method="state_space")
    eps = 0.05
    strict_gap = 0.0
    ok = True
    for layers in mode_layers(three_bus_net, records):
        for bound, inner in zip(eps * layers.layer1_cauchy, eps * layers.layer1_enhanced):
            if bound < inner - 1e-14:
                ok = False
            if inner > 0:
                strict_gap = max(strict_gap, bound / inner)
    ok = ok and strict_gap > 1.0
    _criterion(8, ok, f"eps ||s|| ||y|| >= |<s, eps y>| for every element/mode pair; "
                      f"largest bound/actual gap {strict_gap:.1f}x (strict for >= 1)")


def test_criterion_09_vector_fit_rl_shunt():
    grid = frequency_grid(1.0, 1e4, 240)
    vals = np.array([rl_shunt_admittance(1j * w) for w in grid])
    model = vector_fit(SampledResponse(frequencies=grid, blocks=vals), order=4, n_iterations=12)
    targets = (complex(-10.0, W0), complex(-10.0, -W0))
    worst_pole = max(
        min(abs(p - t) for p in model.poles) / abs(t) for t in targets
    )
    ok = worst_pole <= 1e-3 and model.rms_rel_error <= 1e-4
    _criterion(9, ok, f"recovered poles within {worst_pole:.2e} of -R/L +- j*w0 "
                      f"(<= 1e-3), fit RMS {model.rms_rel_error:.2e} (<= 1e-4)")


def test_criterion_10_sweep_prediction(three_bus_net):
    steps = parameter_sweep(three_bus_net, 0, "L", 0.8, 7)
    worst = max(st.error for st in steps)
    monotone = all(
        ((st.actual - st.lam_before) * np.conj(st.predicted - st.lam_before)).real > 0
        for st in steps
    )
    ok = len(steps) == 7 and worst <= 0.05 and monotone
    _criterion(10, ok, f"7-step x0.8 inductance sweep: worst per-step error "
                       f"{100 * worst:.2f}% (<= 5%), trajectory monotone in the "
                       f"predicted direction: {monotone}")


def test_criterion_11_participation_column_sums(three_bus_net, two_bus_net, rc_bus_net):
    worst = 0.0
    for net in (three_bus_net, two_bus_net, rc_bus_net):
        P = participation_matrix(eigendecompose(interconnect(net).A))
        worst = max(worst, float(np.max(np.abs(P.sum(axis=0) - 1.0))))
    ok = worst <= 1e-10
    _criterion(11, ok, f"participation columns sum to 1 within {worst:.2e} "
                       f"(<= 1e-10) on all oracle systems")
