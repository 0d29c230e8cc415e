"""Element stamps, frame rotation and whole-system matrix assembly."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from impedmodal.admittance_assembly import (
    AssemblyError,
    EvaluationError,
    PerturbedModel,
    SingularSystemError,
    WholeSystemModel,
    block_slice,
    dq_series_impedance,
    frame_rotation,
    inv2,
    inv2_masked,
    network_elements,
    overlay_admittance,
    shunt_admittances,
    transformer_stamp,
)
from impedmodal.network_model import (
    ApparatusAttachment,
    NetworkDescription,
    RationalMatrix,
    SampledResponse,
    SeriesBranch,
    ShuntElement,
    StateSpaceRealization,
)

from impedmodal import admittance_assembly, network_model
from impedmodal.rational_fit import fit_apparatus_surrogate

from conftest import (W0, mixed_ring_doc, node_admittance, rl_load_apparatus, rl_shunt_admittance,
                      same_bits, scaled_net, table_admittance)


def _nodal(net: NetworkDescription, s) -> np.ndarray:
    """Y_N(s): the whole-system admittance of the network without its apparatus."""
    return WholeSystemModel(replace(net, apparatus=())).admittance(s)


# ---------------------------------------------------------------------------
# dq stamps
# ---------------------------------------------------------------------------


def test_series_impedance_at_dc():
    z = dq_series_impedance(0.1, 0.01, 100 * np.pi, 0.0)
    assert np.allclose(z, [[0.1, -np.pi], [np.pi, 0.1]])


def test_series_impedance_pure_inductive():
    L, w = 0.004, 350.0
    z = dq_series_impedance(0.0, L, W0, 1j * w)
    assert np.allclose(z, [[1j * w * L, -W0 * L], [W0 * L, 1j * w * L]])


def test_series_impedance_decoupled_without_rotation():
    z = dq_series_impedance(0.0, 0.7, 0.0, 2.5)
    assert np.allclose(z, np.diag([1.75, 1.75]))


def test_transformer_stamp_unit_ratio_is_line():
    y = np.array([[1.0 + 2.0j, -0.3], [0.3, 1.0 + 2.0j]])
    bii, bij, bji, bjj = transformer_stamp(y, 1.0)
    assert np.array_equal(bii, y)
    assert np.array_equal(bij, -y)
    assert np.array_equal(bji, -y)
    assert np.array_equal(bjj, y)


def test_transformer_stamp_ratio_two():
    bii, bij, bji, bjj = transformer_stamp(np.eye(2), 2.0)
    assert np.allclose(bii, 0.25 * np.eye(2))
    assert np.allclose(bij, -0.5 * np.eye(2))
    assert np.allclose(bji, -0.5 * np.eye(2))
    assert np.allclose(bjj, np.eye(2))


def test_transformer_stamp_zero_ratio():
    with pytest.raises(AssemblyError, match="ratio"):
        transformer_stamp(np.eye(2), 0.0)


def test_shunt_admittances():
    s = 1j * 120.0
    y_r = node_admittance(ShuntElement(bus=1, kind="resistive", value=4.0), s)
    assert np.allclose(y_r, np.eye(2) / 4.0)
    y_c = node_admittance(ShuntElement(bus=1, kind="capacitive", value=0.01), s)
    assert np.allclose(y_c, 0.01 * np.array([[s, -W0], [W0, s]]))
    y_l = node_admittance(ShuntElement(bus=1, kind="inductive", value=0.5), s)
    z_l = 0.5 * np.array([[s, -W0], [W0, s]])
    assert np.allclose(y_l @ z_l, np.eye(2))


def test_stacked_blocks_match_single_blocks():
    s = -3.0 + 1j * 200.0
    R, L = np.array([0.0, 0.1, 0.5]), np.array([1e-3, 2e-3, 5e-2])
    z = dq_series_impedance(R, L, W0, s)
    assert z.shape == (3, 2, 2)
    for m in range(3):
        assert np.array_equal(z[m], dq_series_impedance(R[m], L[m], W0, s))
    y, ok = inv2_masked(z)
    assert ok.all()
    assert np.allclose(y @ z, np.eye(2), rtol=0, atol=1e-12)
    values = np.array([0.5, 2.0])
    for kind in ("resistive", "capacitive", "inductive"):
        ys, ok = shunt_admittances(kind, values, W0, s)
        assert np.all(ok)
        for v, y_v in zip(values, ys):
            single = node_admittance(ShuntElement(bus=1, kind=kind, value=v), s)
            assert np.allclose(y_v, single, rtol=1e-14, atol=0)


def test_singular_blocks_are_flagged():
    z = dq_series_impedance(np.array([0.1, 0.0, 0.2]), np.array([1e-3, 1e-3, 1e-3]), W0, 0.0)
    z[1] = 0.0
    _, ok = inv2_masked(z)
    assert ok.tolist() == [True, False, True]
    with pytest.raises(ValueError):
        inv2(z, lambda: ValueError("singular"))
    # an inductive shunt resonates with the frame rotation at s = j w0
    _, ok = shunt_admittances("inductive", np.array([0.5, 2.0]), W0, 1j * W0)
    assert not ok.any()
    with pytest.raises(EvaluationError):
        node_admittance(ShuntElement(bus=1, kind="inductive", value=0.5), 1j * W0)


# ---------------------------------------------------------------------------
# Apparatus evaluation and rotation
# ---------------------------------------------------------------------------


def test_apparatus_static_model_identity_frame():
    D = np.array([[0.3, -0.1], [0.1, 0.3]])
    model = StateSpaceRealization(
        A=np.zeros((0, 0)), B=np.zeros((0, 2)), C=np.zeros((2, 0)), D=D
    )
    assert np.array_equal(node_admittance(model, 1j * 50.0), D)


def test_apparatus_rotation_quarter_turn():
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    model = StateSpaceRealization(
        A=np.zeros((0, 0)), B=np.zeros((0, 2)), C=np.zeros((2, 0)),
        D=np.array([[a, b], [c, d]]),
    )
    rotated = node_admittance(model, 0.0, np.pi / 2)
    assert np.allclose(rotated, [[d, -c], [-b, a]])


def test_rotation_preserves_determinant():
    rng = np.random.default_rng(1)
    Y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for theta in (0.1, 0.9, -2.0):
        T = frame_rotation(theta)
        Yg = T @ Y @ T.T
        assert np.isclose(np.linalg.det(Yg), np.linalg.det(Y))


def test_sampled_response_exact_hit_and_interpolation():
    freqs = np.array([10.0, 20.0, 30.0])
    blocks = np.array([np.eye(2) * (1 + k) for k in range(3)], dtype=complex)
    model = SampledResponse(frequencies=freqs, blocks=blocks)
    assert np.array_equal(node_admittance(model, 1j * 20.0), blocks[1])
    mid = node_admittance(model, 1j * 25.0)
    assert np.allclose(mid, np.eye(2) * 2.5)


def test_sampled_response_out_of_range():
    model = SampledResponse(
        frequencies=np.array([10.0, 20.0]), blocks=np.zeros((2, 2, 2), dtype=complex)
    )
    with pytest.raises(EvaluationError, match="outside sampled range"):
        node_admittance(model, 1j * 50.0)


def test_sampled_response_rejects_complex_s():
    model = SampledResponse(
        frequencies=np.array([10.0, 20.0]), blocks=np.zeros((2, 2, 2), dtype=complex)
    )
    with pytest.raises(EvaluationError, match="imaginary axis"):
        node_admittance(model, -5.0 + 15.0j)


def test_apparatus_resonance_error():
    model = StateSpaceRealization(
        A=np.array([[2.0]]), B=np.ones((1, 2)), C=np.ones((2, 1)), D=np.zeros((2, 2))
    )
    with pytest.raises(EvaluationError, match="resonance"):
        node_admittance(model, 2.0 + 0.0j)


def test_rational_model_evaluation():
    # y_dd = 1/(s+2), off-diagonals 0, y_qq = s/(s+2)
    one = ((1.0,), (1.0, 2.0))
    zero = ((0.0,), (1.0,))
    sq = ((1.0, 0.0), (1.0, 2.0))
    model = RationalMatrix(
        numerators=((one[0], zero[0]), (zero[0], sq[0])),
        denominators=((one[1], zero[1]), (zero[1], sq[1])),
    )
    y = node_admittance(model, 2.0 + 0.0j)
    assert np.allclose(y, [[0.25, 0.0], [0.0, 0.5]])


def test_rational_model_horner_pass_is_polyval_bit_for_bit():
    """Entries of unequal degree (a constant numerator, a leading zero
    coefficient) evaluated by one Horner pass per stack give the bits of
    per-entry ``np.polyval``, at a scalar s and over a stack of s; an exact
    pole at one point of the stack is named with its entry and its s."""
    nums = (((0.0, 2.5, -1.5), (4.0,)), ((1.0, 0.5, 0.25, 2.0), (-3.0, 7.0)))
    dens = (((1.0, 3.0, 2.0), (1.0, 5.0)), ((2.0, 1.0, 7.0), (1.0,)))
    model = RationalMatrix(numerators=nums, denominators=dens)
    rng = np.random.default_rng(4)
    s = rng.normal(scale=300.0, size=40) + 1j * rng.normal(scale=3000.0, size=40)
    for x in (s[7], s):
        want = np.empty(np.shape(x) + (2, 2), dtype=complex)
        for p in range(2):
            for q in range(2):
                want[..., p, q] = np.polyval(nums[p][q], x) / np.polyval(dens[p][q], x)
        assert node_admittance(model, x).tobytes() == want.tobytes()
    s[11] = -5.0  # the root of entry (0,1)'s denominator s + 5
    with pytest.raises(EvaluationError, match=re.escape("entry (0,1) has a pole at s = (-5+0j)")):
        node_admittance(model, s)


# ---------------------------------------------------------------------------
# Assembly against an independent KCL oracle
# ---------------------------------------------------------------------------


def _kcl_oracle(net: NetworkDescription, s: complex) -> np.ndarray:
    """Brute-force nodal matrix: inject a unit basis voltage vector and sum
    element current responses per Kirchhoff's current law."""
    n = net.n_buses
    Y = np.zeros((2 * n, 2 * n), dtype=complex)
    for col in range(2 * n):
        U = np.zeros(2 * n, dtype=complex)
        U[col] = 1.0
        I = np.zeros(2 * n, dtype=complex)
        for b in net.branches:
            z = dq_series_impedance(b.R, b.L, net.omega0, s)
            y = np.linalg.inv(z)
            ui = U[block_slice(b.from_bus)]
            uj = U[block_slice(b.to_bus)]
            i_series = y @ (ui / b.ratio - uj)
            I[block_slice(b.from_bus)] += i_series / b.ratio
            I[block_slice(b.to_bus)] -= i_series
        for k, sh in enumerate(net.shunts):
            y = table_admittance(net, ("shunt", k), s)
            I[block_slice(sh.bus)] += y @ U[block_slice(sh.bus)]
        Y[:, col] = I
    return Y


def test_nodal_matrix_matches_kcl_oracle(three_bus_net):
    for s in (1j * 100.0, -20.0 + 700.0j, 3.0 + 0.0j):
        Y = _nodal(three_bus_net, s)
        Y_oracle = _kcl_oracle(three_bus_net, s)
        assert np.allclose(Y, Y_oracle, rtol=1e-13, atol=1e-13)


def test_two_bus_line_block_structure():
    net = NetworkDescription(
        n_buses=2,
        omega0=W0,
        branches=(SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.1, L=0.01),),
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
    )
    s = 1j * 80.0
    Y = _nodal(net, s)
    y = np.linalg.inv(dq_series_impedance(0.1, 0.01, W0, s))
    y11 = Y[block_slice(1), block_slice(1)] - table_admittance(net, ("shunt", 0), s)
    assert np.allclose(y11, y)
    assert np.allclose(Y[block_slice(1), block_slice(2)], -y)
    assert np.allclose(Y[block_slice(2), block_slice(1)], -y)
    assert np.allclose(Y[block_slice(2), block_slice(2)], y)


def test_singular_branch_names_itself():
    """A lossless line is singular at s = j w0; assembly names that branch."""
    net = NetworkDescription(
        n_buses=3,
        omega0=W0,
        branches=(
            SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.1, L=0.01),
            SeriesBranch(kind="line", from_bus=2, to_bus=3, R=0.0, L=0.01),
        ),
    )
    with pytest.raises(EvaluationError, match=r"branch 2-3 \(line\): branch 2-3 series impedance"):
        WholeSystemModel(net).admittance(1j * W0)


def test_transformer_diagonal_scaling():
    net = NetworkDescription(
        n_buses=2,
        omega0=W0,
        branches=(
            SeriesBranch(kind="transformer", from_bus=1, to_bus=2, R=0.1, L=0.01, ratio=2.0),
        ),
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
    )
    s = 1j * 80.0
    Y = _nodal(net, s)
    y = np.linalg.inv(dq_series_impedance(0.1, 0.01, W0, s))
    y11 = Y[block_slice(1), block_slice(1)] - table_admittance(net, ("shunt", 0), s)
    assert np.allclose(y11, y / 4.0)
    assert np.allclose(Y[block_slice(1), block_slice(2)], -y / 2.0)


def test_apparatus_matrix_block_diagonal(three_bus_net):
    s = 1j * 200.0
    Yg = WholeSystemModel(three_bus_net).admittance(s) - _nodal(three_bus_net, s)
    assert np.allclose(Yg[block_slice(2), block_slice(2)], 0.0)  # no apparatus at bus 2
    assert not np.allclose(Yg[block_slice(1), block_slice(1)], 0.0)
    assert np.allclose(Yg[block_slice(1), block_slice(3)], 0.0)


def test_whole_system_no_apparatus_is_nodal_inverse(two_bus_net):
    s = 1j * 150.0
    model = WholeSystemModel(two_bus_net)
    Y, Z = model.admittance(s), model.impedance(s)
    assert np.allclose(Y, _kcl_oracle(two_bus_net, s), rtol=1e-13, atol=1e-13)
    assert np.allclose(Z @ Y, np.eye(4), atol=1e-12)


def test_closed_loop_form_equivalence(three_bus_net):
    """(I + Z_N Y_G)^{-1} Z_N equals (Y_G + Y_N)^{-1} away from modes."""
    model = WholeSystemModel(three_bus_net)
    for s in (1j * 90.0, -15.0 + 420.0j, 5.0 + 1000.0j):
        Y_N = _nodal(three_bus_net, s)
        Y_G = model.admittance(s) - Y_N
        Z = np.linalg.inv(Y_G + Y_N)
        Z_N = np.linalg.inv(Y_N)
        Z_alt = np.linalg.solve(np.eye(6) + Z_N @ Y_G, Z_N)
        assert np.linalg.norm(Z_alt - Z) <= 1e-10 * np.linalg.norm(Z)


def test_rl_network_block_pattern(two_bus_net):
    """Passive RL/C networks keep the [[a, -b], [b, a]] dq block pattern."""
    Y = _nodal(two_bus_net, -30.0 + 250.0j)
    for i in (1, 2):
        for j in (1, 2):
            blk = Y[block_slice(i), block_slice(j)]
            assert np.isclose(blk[0, 0], blk[1, 1])
            assert np.isclose(blk[0, 1], -blk[1, 0])


def test_singularity_reported_with_condition(rc_bus_net):
    lam = complex(-10.0, W0)  # exact mode of the RC bus
    model = WholeSystemModel(rc_bus_net)
    with pytest.raises(SingularSystemError) as exc:
        model.impedance(lam)
    assert exc.value.cond > 1e13


def test_condition_number_diverges_near_mode(rc_bus_net):
    model = WholeSystemModel(rc_bus_net)
    lam = complex(-10.0, W0)
    conds = [np.linalg.cond(model.admittance(lam + off)) for off in (1.0, 1e-3, 1e-6)]
    assert conds[0] < conds[1] < conds[2]
    assert conds[2] > 1e8


def _stamped_in_element_order(net: NetworkDescription, s) -> np.ndarray:
    """Y by hand: each element's own admittance over s (a branch's as its
    four transformer-stamp blocks) added into a zero matrix, element by
    element."""
    Y = np.zeros(np.shape(s) + (2 * net.n_buses, 2 * net.n_buses), dtype=complex)
    for kind, idx in network_elements(net):
        y = table_admittance(net, (kind, idx), s)
        if kind == "branch":
            b = net.branches[idx]
            si, sj = block_slice(b.from_bus), block_slice(b.to_bus)
            for (r, c), block in zip([(si, si), (si, sj), (sj, si), (sj, sj)],
                                     transformer_stamp(y, b.ratio)):
                Y[..., r, c] += block
        else:
            sb = block_slice((net.shunts if kind == "shunt" else net.apparatus)[idx].bus)
            Y[..., sb, sb] += y
    return Y


def test_element_stamp_sums_to_admittance():
    """Y from the stamp table is the element-by-element sum of every
    element's stamp, bit for bit, at a scalar s and over an array of s."""
    for net, s_grid in ((_mixed_net(sampled=False), -12.0 + 1j * np.linspace(10.0, 900.0, 9)),
                        (_mixed_net(sampled=True), 1j * np.geomspace(6.0, 4000.0, 9))):
        model = WholeSystemModel(net)
        assert same_bits(model.admittance(s_grid), _stamped_in_element_order(net, s_grid))
        for s in (complex(s_grid[3]), complex(s_grid[-1])):
            assert same_bits(model.admittance(s), _stamped_in_element_order(net, s))


def test_perturbed_model_scales_one_element(three_bus_net):
    s = -12.0 + 333.0j
    ref = ("shunt", 0)
    eps = 0.05
    base = WholeSystemModel(three_bus_net).admittance(s)
    pert = PerturbedModel(three_bus_net, ref, 1.0 + eps).admittance(s)
    dY = pert - base
    expected = eps * table_admittance(three_bus_net, ref, s)
    sl = block_slice(three_bus_net.shunts[0].bus)
    assert np.allclose(dY[sl, sl], expected)
    dY[sl, sl] -= expected
    assert np.allclose(dY, 0.0)


def test_rl_shunt_admittance_fixture_poles():
    """The series-RL shunt admittance blows up at -R/L +- j w0."""
    lam = complex(-10.0, W0)
    near = rl_shunt_admittance(lam + 1e-8)
    far = rl_shunt_admittance(lam + 100.0)
    assert np.linalg.norm(near) > 1e5 * np.linalg.norm(far)


# ---------------------------------------------------------------------------
# Stacked evaluation over a grid of s
# ---------------------------------------------------------------------------


def _rational_apparatus() -> RationalMatrix:
    # y_dd = (0.2 s + 3)/(s^2 + 40 s + 9e4), y_dq = -0.01, y_qd = 0.01,
    # y_qq = (0.3 s + 1)/(s + 50)
    return RationalMatrix(
        numerators=(((0.2, 3.0), (-0.01,)), ((0.01,), (0.3, 1.0))),
        denominators=(((1.0, 40.0, 9e4), (1.0,)), ((1.0,), (1.0, 50.0))),
    )


def _sampled_apparatus() -> SampledResponse:
    freqs = np.geomspace(5.0, 5000.0, 60)
    blocks = np.array([rl_shunt_admittance(1j * w, R=0.4, L=0.02) for w in freqs])
    return SampledResponse(frequencies=freqs, blocks=blocks)


def _mixed_net(sampled: bool) -> NetworkDescription:
    """Every element kind: a line, a transformer, resistive, capacitive and
    inductive shunts, and state-space, rational and (optionally) sampled
    apparatus, all three with theta != 0."""
    apparatus = [
        ApparatusAttachment(bus=1, model=rl_load_apparatus(0.1, 0.005), theta=0.3),
        ApparatusAttachment(bus=2, model=_rational_apparatus(), theta=-0.4),
    ]
    if sampled:
        apparatus.append(ApparatusAttachment(bus=3, model=_sampled_apparatus(), theta=0.7))
    return NetworkDescription(
        n_buses=3,
        omega0=W0,
        branches=(
            SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.05, L=0.002),
            SeriesBranch(kind="transformer", from_bus=2, to_bus=3, R=0.03, L=0.0015,
                         ratio=0.932),
        ),
        shunts=(
            ShuntElement(bus=1, kind="capacitive", value=0.001),
            ShuntElement(bus=2, kind="inductive", value=0.3),
            ShuntElement(bus=3, kind="resistive", value=1.5),
            ShuntElement(bus=3, kind="capacitive", value=0.0012),
        ),
        apparatus=tuple(apparatus),
    )


def _assert_stacked_equals_pointwise(evaluate, s_grid, dim):
    stacked = evaluate(s_grid)
    assert stacked.shape == (s_grid.size, dim, dim)
    pointwise = np.array([evaluate(complex(s)) for s in s_grid])
    assert pointwise.shape == (s_grid.size, dim, dim)
    assert np.array_equal(stacked, pointwise)


def _models(net):
    yield WholeSystemModel(net)
    refs = [("branch", 1), ("shunt", 1)] + [("apparatus", i) for i in range(len(net.apparatus))]
    for ref in refs:
        yield PerturbedModel(net, ref, 1.07)


def test_stacked_evaluation_on_axis_every_model_kind():
    net = _mixed_net(sampled=True)
    f = net.apparatus[2].model.frequencies
    # between the samples, on them, and at both ends of the sampled range
    omegas = np.union1d(np.geomspace(5.0, 5000.0, 97), f[::7])
    s_grid = 1j * omegas
    for model in _models(net):
        _assert_stacked_equals_pointwise(model.admittance, s_grid, 6)
        _assert_stacked_equals_pointwise(model.impedance, s_grid, 6)


def _with_surrogate(net, order=4):
    """``net`` with its sampled apparatus (the third) replaced by its
    rational surrogate, and that surrogate."""
    app = net.apparatus[2]
    surrogate = fit_apparatus_surrogate(app.model, order=order)
    return replace(net, apparatus=net.apparatus[:2] + (replace(app, model=surrogate),)), surrogate


def test_stacked_evaluation_off_axis_with_surrogate():
    net, surrogate = _with_surrogate(_mixed_net(sampled=True))
    s_grid = np.concatenate([-7.0 + 1j * np.geomspace(5.0, 5000.0, 41),
                             [3.0 + 0.0j, -40.0 - 250.0j]])
    for model in _models(net):
        _assert_stacked_equals_pointwise(model.admittance, s_grid, 6)
        _assert_stacked_equals_pointwise(model.impedance, s_grid, 6)
    stacked = surrogate.evaluate(s_grid)
    assert np.array_equal(stacked, np.array([surrogate.evaluate(complex(s)) for s in s_grid]))


def test_surrogate_apparatus_is_rotated_like_any_model():
    """A fitted surrogate at theta = 0.7 evaluates to T Y T^T of its own
    value, bit for bit, alone and stacked over s."""
    net, surrogate = _with_surrogate(_mixed_net(sampled=True))
    theta = net.apparatus[2].theta
    assert theta == 0.7
    T = frame_rotation(theta)
    s_grid = np.array([-7.0 + 90.0j, 3.0 + 0.0j, -40.0 - 250.0j, 1j * 1200.0])
    assert np.array_equal(node_admittance(surrogate, s_grid, theta),
                          T @ surrogate.evaluate(s_grid) @ T.T)
    for s in s_grid:
        assert np.array_equal(node_admittance(surrogate, s, theta),
                              T @ surrogate.evaluate(s) @ T.T)


def test_stacked_element_helpers_match_pointwise():
    """Every element kind, the resistive shunt included, evaluates over an
    array of s to its pointwise values stacked (M, 2, 2), bit for bit, in
    the stamp table's stack and alone on a bus of its own."""
    net = _mixed_net(sampled=False)
    s_grid = -2.0 + 1j * np.linspace(10.0, 900.0, 23)
    table = WholeSystemModel(net)
    stack = table.evaluate(s_grid)
    assert stack.shape == (s_grid.size, len(table.refs), 2, 2)
    for e, ref in enumerate(network_elements(net)):
        pointwise = np.array([table.evaluate(complex(s))[e] for s in s_grid])
        assert pointwise.shape == (s_grid.size, 2, 2), ref
        assert same_bits(stack[:, e], pointwise), ref
        assert same_bits(table.evaluate(s_grid[5])[e], pointwise[5]), ref
    for element in net.shunts:
        assert same_bits(node_admittance(element, s_grid),
                         np.array([node_admittance(element, complex(s)) for s in s_grid]))
    for app in net.apparatus:
        stacked = node_admittance(app.model, s_grid, app.theta)
        assert np.array_equal(stacked, np.array([node_admittance(app.model, complex(s), app.theta)
                                                 for s in s_grid]))


def test_overlay_admittance_equals_perturbed_model_at_each_point():
    """Each point of the stacked overlay, its element scaled by 1.07, is
    the one-element PerturbedModel's Y there, bit for bit."""
    net = _mixed_net(sampled=False)
    refs = network_elements(net)
    s_grid = -2.0 + 1j * np.linspace(10.0, 900.0, 23)
    rows = np.arange(s_grid.size) % len(refs)
    overlay = overlay_admittance(WholeSystemModel(net), refs, 1.07, s_grid, rows)
    for s, row, Y in zip(s_grid, rows, overlay):
        assert np.array_equal(Y, PerturbedModel(net, refs[row], 1.07).admittance(s))


def test_overlay_admittance_matches_the_rebuilt_scaled_network(three_bus_net):
    """The overlay of each element, scaled by 1.05, is the Y of the network
    rebuilt with that element's parameters scaled (line, transformer, every
    shunt kind, rotated state-space apparatus), at four points, one on the
    j omega axis: an independent reference, not the overlay's own code."""
    net = replace(three_bus_net, shunts=three_bus_net.shunts + (
        ShuntElement(bus=2, kind="inductive", value=0.04),))
    refs = network_elements(net)
    s_grid = np.array([-3.0 + 120.0j, 450.0j, -40.0 + 900.0j, 15.0 + 2000.0j])
    model = WholeSystemModel(net)
    for row, ref in enumerate(refs):
        rebuilt = WholeSystemModel(scaled_net(net, ref, 1.05)).admittance(s_grid)
        overlay = overlay_admittance(model, refs, 1.05, s_grid, np.full(s_grid.size, row))
        err = np.linalg.norm(overlay - rebuilt, axis=(1, 2)) / np.linalg.norm(rebuilt, axis=(1, 2))
        assert err.max() <= 1e-13, (ref, err)


def test_stacked_singular_point_names_first_offender(rc_bus_net):
    lam = complex(-10.0, W0)  # exact mode of the RC bus, as is its conjugate
    s_grid = np.array([-10.0 + 300.0j, -10.0 + 310.0j, lam, -10.0 + 320.0j, lam.conjugate()])
    model = WholeSystemModel(rc_bus_net)
    with pytest.raises(SingularSystemError) as exc:
        model.impedance(s_grid)
    assert exc.value.s == lam
    assert exc.value.cond > 1e13
    with pytest.raises(SingularSystemError) as single:
        model.impedance(lam)
    assert str(exc.value) == str(single.value)


def test_stacked_branch_and_shunt_errors_name_the_point():
    net = NetworkDescription(
        n_buses=2,
        omega0=W0,
        branches=(SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.0, L=0.01),),
        shunts=(ShuntElement(bus=1, kind="inductive", value=0.5),),
    )
    s_grid = 1j * np.array([100.0, W0, 400.0])
    with pytest.raises(EvaluationError, match=r"branch 1-2 \(line\): .* at s = 314\.159"):
        WholeSystemModel(net).admittance(s_grid)
    with pytest.raises(EvaluationError, match=r"^shunt at bus 1 \(inductive\): inductive shunt at bus 1"
                                              r" is singular at s = 314\.159"):
        node_admittance(net.shunts[0], s_grid)


def test_a_shunt_kind_without_a_formula_is_named_in_element_order():
    """A shunt of a kind that has no admittance formula fails where Y is
    evaluated, named as Y names it, unless an element before it in
    element order fails first."""
    net = NetworkDescription(
        n_buses=2, omega0=W0,
        branches=(SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.0, L=0.01),),
        shunts=(ShuntElement(bus=2, kind="capacitive", value=1e-3),
                ShuntElement(bus=2, kind="magnetic", value=0.5)),
    )
    with pytest.raises(AssemblyError, match=r"^shunt at bus 2 \(magnetic\): unknown shunt kind"):
        WholeSystemModel(net).admittance(1j * 100.0)
    with pytest.raises(EvaluationError, match=r"^branch 1-2 \(line\): "):
        WholeSystemModel(net).admittance(1j * W0)


def test_overlay_evaluates_each_apparatus_once(monkeypatch):
    """One overlay call evaluates every apparatus once, over all its points:
    each apparatus sits in exactly one evaluated group, and that group is
    evaluated once over the whole grid."""
    net = _mixed_net(sampled=False)
    refs = network_elements(net)
    s_grid = -2.0 + 1j * np.linspace(10.0, 900.0, 23)
    calls = []
    exact = admittance_assembly._ApparatusGroup.evaluate

    def counting(group, s):
        calls.extend((id(model), np.shape(s)) for model in group.models)
        return exact(group, s)

    monkeypatch.setattr(admittance_assembly._ApparatusGroup, "evaluate", counting)
    overlay_admittance(WholeSystemModel(net), refs, 1.07, s_grid, np.arange(s_grid.size) % len(refs))
    assert sorted(calls) == sorted((id(app.model), s_grid.shape) for app in net.apparatus)


def test_admittance_names_the_first_failing_element_in_element_order(monkeypatch):
    """A lossless line fails at s = j w0 (the second point), apparatus 0 at
    the first point and an inductive shunt at j w0: Y names the line, the
    first failing element, at its own first failing s, whichever point
    fails first; without the line, the shunt. The apparatus fault sits in
    the group evaluation: the table's pass meets it in apparatus 0's group
    of two state-space models, and the naming pass in apparatus 0 alone."""
    mixed = _mixed_net(sampled=False)
    net = replace(mixed,
                  branches=(SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.0, L=0.002),),
                  shunts=(ShuntElement(bus=2, kind="inductive", value=0.3),),
                  apparatus=mixed.apparatus + (
                      ApparatusAttachment(bus=3, model=rl_load_apparatus(0.3, 0.004)),))
    s_grid = np.array([1j * 100.0, 1j * W0, 1j * 400.0])
    exact = admittance_assembly._ApparatusGroup.evaluate
    grouped = []

    def fragile(group, s):
        grouped.append(len(group.models))
        if net.apparatus[0].model in group.models and np.any(np.asarray(s) == s_grid[0]):
            raise EvaluationError("apparatus 0 fails")
        return exact(group, s)

    monkeypatch.setattr(admittance_assembly._ApparatusGroup, "evaluate", fragile)
    with pytest.raises(EvaluationError, match=r"^branch 1-2 \(line\): .* at s = 314\.159"):
        WholeSystemModel(net).admittance(s_grid)
    with pytest.raises(EvaluationError,
                       match=r"^shunt at bus 2 \(inductive\): inductive shunt at bus 2 is singular"):
        WholeSystemModel(replace(net, branches=())).admittance(s_grid)
    grouped.clear()
    with pytest.raises(EvaluationError, match=r"^apparatus at bus 1: apparatus 0 fails$"):
        WholeSystemModel(replace(net, branches=(), shunts=())).admittance(s_grid)
    assert grouped[0] == 2 and grouped[-1] == 1  # the table's pass, then the naming pass


# ---------------------------------------------------------------------------
# Grouped apparatus and the gather-add stamp against their references
# ---------------------------------------------------------------------------


def _add_at_stamp(table: WholeSystemModel, y: np.ndarray) -> np.ndarray:
    """Y from the element stack ``y`` by one ``np.add.at`` over the table's
    blocks: the reference of :meth:`WholeSystemModel.stamp`."""
    nb, dim = table.n_branches, 2 * table.net.n_buses
    branch = np.stack(transformer_stamp(y[..., :nb, :, :], table.ratio[:nb, None, None]),
                      axis=-3).reshape(y.shape[:-3] + (4 * nb, 2, 2))
    blocks = np.concatenate([branch, y[..., nb:, :, :]], axis=-3)
    bi, bj = table.i[:nb], table.j[:nb]
    rows = np.concatenate([np.stack([bi, bi, bj, bj], axis=-1).reshape(-1), table.i[nb:]])
    cols = np.concatenate([np.stack([bi, bj, bi, bj], axis=-1).reshape(-1), table.i[nb:]])
    rows = (2 * rows[:, None, None] - 2 + np.array([[0, 0], [1, 1]])).reshape(-1)
    cols = (2 * cols[:, None, None] - 2 + np.array([[0, 1], [0, 1]])).reshape(-1)
    Y = np.zeros(y.shape[:-3] + (dim, dim), dtype=complex)
    np.add.at(Y, (Ellipsis, rows, cols), blocks.reshape(y.shape[:-3] + (-1,)))
    return Y


def test_stamp_equals_add_at_bit_for_bit():
    """The gather-add stamp gives np.add.at's values and signs of zero: on
    the mixed net, on the mixed ring (parallel branches 2-3, a transformer),
    from evaluated stacks and from stacks whose entries are drawn from
    -0.0, +0.0 and random values, at a scalar s and over a grid."""
    rng = np.random.default_rng(4)
    nets = [_mixed_net(sampled=False),
            network_model.parse_network(json.dumps(mixed_ring_doc()))]
    assert any(b.ratio != 1.0 for b in nets[1].branches)
    pairs = [tuple(sorted((b.from_bus, b.to_bus))) for b in nets[1].branches]
    assert len(set(pairs)) < len(pairs)  # parallel branches share their cells
    s_grid = -3.0 + 1j * np.linspace(20.0, 900.0, 7)
    for net in nets:
        table = WholeSystemModel(net)
        stacks = [table.evaluate(s_grid), table.evaluate(s_grid[2])]
        for shape in ((5,), ()):
            parts = rng.choice([-0.0, 0.0, 1.0], size=shape + (len(table.refs), 2, 2, 2))
            parts[parts == 1.0] = rng.standard_normal(np.count_nonzero(parts == 1.0))
            stacks.append(parts[..., 0] + 1j * parts[..., 1])
            stacks.append(np.full(shape + (len(table.refs), 2, 2), -0.0 - 0.0j))
        for y in stacks:
            assert same_bits(table.stamp(y), _add_at_stamp(table, y))


def _group_net() -> NetworkDescription:
    """One bus per apparatus model kind and angle: rational models of
    unequal numerator and denominator degrees at theta 0 and not, state-
    space models of 2 and 3 states (two of each count), a fitted surrogate
    and a sampled response."""
    rational_low = RationalMatrix(numerators=(((2.0,), (0.5, -1.0)), ((0.0,), (3.0,))),
                                  denominators=(((1.0, 7.0), (1.0,)), ((1.0,), (1.0, 2.0, 5.0))))
    three = StateSpaceRealization(A=np.array([[-3.0, 40.0, 0.0], [-40.0, -3.0, 1.0], [0.0, -2.0, -9.0]]),
                                  B=np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.2]]),
                                  C=np.array([[1.0, 0.0, 0.3], [0.0, 1.0, -0.1]]),
                                  D=np.array([[0.01, 0.0], [0.0, 0.02]]))
    models = [(_rational_apparatus(), 0.0), (rational_low, -0.4), (_rational_apparatus(), 0.25),
              (rl_load_apparatus(0.1, 0.005), 0.3), (rl_load_apparatus(0.2, 0.01), 0.0),
              (three, 0.0), (replace(three, D=np.zeros((2, 2))), 1.1),
              (fit_apparatus_surrogate(_sampled_apparatus(), order=4), 0.7),
              (_sampled_apparatus(), -0.2)]
    return NetworkDescription(
        n_buses=len(models), omega0=W0,
        shunts=tuple(ShuntElement(bus=b, kind="capacitive", value=1e-3)
                     for b in range(1, len(models) + 1)),
        apparatus=tuple(ApparatusAttachment(bus=b, model=m, theta=th)
                        for b, (m, th) in enumerate(models, start=1)),
    )


def test_apparatus_groups_equal_one_apparatus_at_a_time():
    """Each apparatus in the table's grouped pass equals, bit for bit, the
    table of a network that holds it alone: three rational models in
    one group, the 2-state and the 3-state models in one group each, the
    surrogate and the sampled response alone; on the j omega axis (all
    models) and off it (without the sampled one), at a scalar s and over a
    grid."""
    net = _group_net()
    table = WholeSystemModel(net)
    sizes = sorted(len(group.models) for _, group in table.groups)
    assert sizes == [1, 1, 2, 2, 3]
    off_axis = replace(net, apparatus=net.apparatus[:-1], shunts=net.shunts[:-1],
                       n_buses=net.n_buses - 1)
    for net_, s_grid in ((net, 1j * np.geomspace(6.0, 4000.0, 11)),
                         (off_axis, np.array([-7.0 + 90.0j, 3.0 + 0.0j, -40.0 - 250.0j, 1200.0j]))):
        table = WholeSystemModel(net_)
        first = len(table.refs) - len(net_.apparatus)
        for s in (s_grid, s_grid[1]):
            y = table.evaluate(s)
            for a, app in enumerate(net_.apparatus):
                alone = node_admittance(app.model, s, app.theta)
                assert same_bits(y[..., first + a, :, :], alone), a
