"""Three-layer participation analysis, splitting and sweep machinery."""

import collections
import itertools
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pathlib import Path

from impedmodal import (
    admittance_assembly,
    cli_reporting,
    mai_core,
    mass_oracle,
    network_model,
    rational_fit,
)
from impedmodal.admittance_assembly import (
    EvaluationError,
    WholeSystemModel,
    block_slice,
    dq_series_impedance,
    network_elements,
    omega_block,
)
from impedmodal.mai_core import (
    AnalysisError,
    ModeRecord,
    TrackingError,
    branch_parameter_sensitivity,
    element_layer_report,
    enhanced_layer1,
    frobenius_inner,
    layer1_cauchy,
    layer2,
    layer3,
    mode_layers,
    parameter_sweep,
    predict_mode_shift,
    solve_modes,
    track_mode,
    validate_element_prediction,
    validate_prediction,
)
from impedmodal.network_model import NetworkDescription, SeriesBranch, ShuntElement

from conftest import (W0, dense_residue, generated_ring, mixed_ring_doc, rl_load_apparatus,
                      same_bits, scaled_net, table_admittance)
from paper_reference import (
    DegenerateSplitError,
    parameter_sensitivity_ss,
    residue_sensitivity,
    split_branch,
    split_node_impedances,
    split_node_residues,
    split_parameter_derivatives,
)
import loewner_reference
from secular_reference import all_swept_roots, reference_roots


@pytest.fixture(scope="module")
def three_bus_modes(three_bus_net):
    return solve_modes(three_bus_net, method="state_space")


def _overlay_route(monkeypatch):
    """Validate an oracle-capable network through the admittance overlay,
    the route of networks with apparatus known by their admittance alone."""
    monkeypatch.setattr(mass_oracle, "oracle_capable", lambda net: False)


# ---------------------------------------------------------------------------
# Sensitivity records
# ---------------------------------------------------------------------------


def test_state_space_solve_modes_assembles_no_admittance(three_bus_net, monkeypatch):
    """The state-space path takes modes and residues from the state matrix
    alone; it evaluates Y(s) nowhere."""
    calls = []
    admittance = WholeSystemModel.admittance

    def counting(self, s):
        calls.append(s)
        return admittance(self, s)

    monkeypatch.setattr(WholeSystemModel, "admittance", counting)
    assert solve_modes(three_bus_net, method="state_space")
    assert calls == []


def test_shared_oracle_system(three_bus_net, three_bus_modes, two_bus_net):
    """A run's Interconnection gives the same modes and validation as the
    ones each call builds, and one of another network is refused."""
    system = mai_core.oracle_system(three_bus_net)
    records = solve_modes(three_bus_net, system=system)
    assert [r.lam for r in records] == [r.lam for r in three_bus_modes]
    assert all(np.array_equal(dense_residue(a), dense_residue(b))
               for a, b in zip(records, three_bus_modes))
    refs = network_elements(three_bus_net)
    assert (mai_core.validate_mode_predictions(three_bus_net, records[:2], refs, system=system)
            == mai_core.validate_mode_predictions(three_bus_net, records[:2], refs))
    with pytest.raises(AnalysisError, match="another network"):
        solve_modes(two_bus_net, system=system)


def _dense_bus_blocks(res):
    """The dense residue cut into (n + 1, n + 1, 2, 2) bus blocks, with a
    zero ground row and column at index 0."""
    n = res.shape[0] // 2
    blocks = np.zeros((n + 1, n + 1, 2, 2), dtype=complex)
    blocks[1:, 1:] = res.reshape(n, 2, n, 2).transpose(0, 2, 1, 3)
    return blocks


@pytest.mark.parametrize("case", ["three_bus", "mixed_ring"])
def test_factored_residues_give_the_dense_bits(three_bus_net, case):
    """A mode keeps its residue as two factors. Their product (over the
    denominator) is the dense matrix bit for bit as each route's formula
    forms it (C x . y^H B on the oracle route, u v^T / (v^T Y' u) on the
    impedance route), and the sensitivity factors gathered from the
    factors are bit for bit the ones cut from that matrix. The mixed ring (impedance route) has a
    transformer, parallel lines, an inductive shunt and grounded node
    elements."""
    if case == "three_bus":
        net = three_bus_net
        records = solve_modes(net)
        system = mass_oracle.Interconnection(net)
        ss, eig = system.model, system.eig
        index = [int(np.flatnonzero(eig.eigenvalues == r.lam)[0]) for r in records]
        want = [np.outer(ss.C @ eig.right[:, i], eig.left[i, :] @ ss.B) for i in index]
        assert all(r.denom is None for r in records)
    else:
        net = network_model.parse_network(json.dumps(mixed_ring_doc()))
        records = solve_modes(net, band=(5.0, 5000.0))
        model = WholeSystemModel(net)
        want = [np.outer(u, v) / denom for u, v, denom in rational_fit.admittance_residues(
            model.admittance, [r.lam for r in records], model.dim)]
    assert len(records) >= 7
    for rec, res in zip(records, want):
        assert rec.left.shape == rec.right.shape == (2 * net.n_buses,)
        assert same_bits(dense_residue(rec), res)
    table = admittance_assembly.StampTable(net)
    s, y = mai_core._mode_stack(table, records)
    i, j, k = table.i, table.j, table.ratio[:, None, None]
    assert same_bits(y, table.evaluate(np.array([r.lam for r in records])))
    for m, rec in enumerate(records):
        b = _dense_bus_blocks(dense_residue(rec))
        d = mai_core._ratio_sensitivity(b[i, i], b[j, j], b[i, j], b[j, i], k)
        assert same_bits(s[m], np.conj(d).swapaxes(-1, -2))


def test_modes_keep_their_residues_as_factors():
    """On a 48-bus ring of RL lines and capacitive shunts, every mode holds
    its residue as two (2n,) factors, and solving the modes and forming the
    layers of every element at every mode peaks (tracemalloc) below half of
    what the modes' dense (2n, 2n) residues would take."""
    n, rng = 48, np.random.default_rng(3)
    net = NetworkDescription(
        n_buses=n, omega0=W0,
        branches=tuple(SeriesBranch(kind="line", from_bus=b, to_bus=b % n + 1,
                                    R=rng.uniform(0.02, 0.05), L=rng.uniform(0.001, 0.003))
                       for b in range(1, n + 1)),
        shunts=tuple(ShuntElement(bus=b, kind="capacitive", value=rng.uniform(5e-4, 1.5e-3))
                     for b in range(1, n + 1)),
    )
    tracemalloc.start()
    try:
        records = solve_modes(net)
        layers = list(mode_layers(net, records))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(layers) == len(records) >= n
    for rec in records:
        assert rec.left.shape == rec.right.shape == (2 * n,) and rec.denom is None
    assert peak < len(records) * (2 * n) ** 2 * 16 / 2


def test_a_fitted_surrogate_is_not_oracle_capable():
    """The measured network with its sampled apparatus replaced by a fitted
    RationalModel has no state-space oracle: ``oracle_system`` gives None
    and ``solve_modes`` takes the impedance path without being told."""
    path = Path(__file__).resolve().parents[1] / "networks" / "measured_two_bus.json"
    net = network_model.parse_network(path.read_text(), base_dir=str(path.parent))
    net = cli_reporting._with_surrogates(net, 12)
    assert isinstance(net.apparatus[0].model, network_model.RationalModel)
    assert not mass_oracle.oracle_capable(net)
    assert mai_core.oracle_system(net) is None
    records = solve_modes(net, band=(5.0, 5000.0))
    assert records and all(r.provenance == "newton-refined" for r in records)
    impedance = solve_modes(net, band=(5.0, 5000.0), method="impedance")
    assert [r.lam for r in records] == [r.lam for r in impedance]


def test_zero_residue_zero_sensitivity():
    zero = np.zeros(6, dtype=complex)
    mode = ModeRecord(lam=1j, left=zero, right=zero, provenance="state-space")
    assert np.allclose(mai_core._sensitivity_factors([2], [0], [1.0], [mode]), 0.0)


def test_branch_to_ground_degenerates_to_node():
    """An element between bus 1 and ground (j = 0) takes the node formula
    -Res_11 on the gathered blocks."""
    rng = np.random.default_rng(3)
    left, right = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    mode = ModeRecord(lam=1j, left=left, right=right, provenance="state-space")
    [[grounded]] = mai_core._sensitivity_factors([1], [0], [1.0], [mode])
    assert np.array_equal(grounded, -dense_residue(mode)[:2, :2].conj().T)


def test_transformer_unit_ratio_equals_branch(three_bus_modes):
    """The gathered factor at ratio 1 is the branch formula on the dense
    residue's blocks, and at k = 0.932 the transformer formula, bit for
    bit."""
    mode = three_bus_modes[1]
    for k in (1.0, 0.932):
        [[s]] = mai_core._sensitivity_factors([2], [3], [k], [mode])
        assert same_bits(s, residue_sensitivity(dense_residue(mode), 2, 3, k))


def test_transformer_zero_ratio_rejected(three_bus_net, three_bus_modes):
    net = three_bus_net.with_branch(1, ratio=0.0)
    with pytest.raises(admittance_assembly.AssemblyError,
                       match=r"^branch 2-3 \(transformer\): degenerate transformer ratio k = 0$"):
        next(mode_layers(net, three_bus_modes[:1]))


def test_predict_mode_shift_arithmetic():
    assert predict_mode_shift(np.eye(2), np.zeros((2, 2))) == 0.0
    c = 0.7 - 0.2j
    assert np.isclose(predict_mode_shift(np.eye(2), c * np.eye(2)), 2 * c)


def test_predict_shift_bilinearity():
    rng = np.random.default_rng(8)
    s = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    eps = 0.03
    assert np.isclose(predict_mode_shift(s, eps * y), eps * layer2(s, y))


# ---------------------------------------------------------------------------
# First-order accuracy against re-solved modes
# ---------------------------------------------------------------------------


def test_node_prediction_first_order(three_bus_net, three_bus_modes):
    refs = [r.lam for r in three_bus_modes]
    mode = three_bus_modes[2]
    v = validate_element_prediction(three_bus_net, ("shunt", 0), mode, epsilon=1e-4,
                                    reference_modes=refs)
    assert v.error <= 1e-2


def test_branch_prediction_two_bus(two_bus_net):
    records = solve_modes(two_bus_net, method="state_space")
    refs = [r.lam for r in records]
    mode = max(records, key=lambda r: np.linalg.norm(dense_residue(r)))
    v = validate_element_prediction(two_bus_net, ("branch", 0), mode, epsilon=1e-4,
                                    reference_modes=refs)
    assert v.error <= 1e-2


def test_first_order_convergence_all_elements(three_bus_net, three_bus_modes):
    """Prediction error shrinks at least 5x when eps drops 10x.

    The ratio is only meaningful while the coarse-step error sits above the
    re-solve noise floor; elements whose prediction is already exact to
    ~1e-4 relative at eps = 1e-3 have nothing left to converge.
    """
    refs = [r.lam for r in three_bus_modes]
    for ref in network_elements(three_bus_net):
        for mode in three_bus_modes[:3]:
            errors = {}
            for eps in (1e-3, 1e-4):
                v = validate_element_prediction(three_bus_net, ref, mode, epsilon=eps,
                                                reference_modes=refs)
                errors[eps] = v.error
            assert errors[1e-3] <= 0.02
            if errors[1e-3] < 1e-4:
                continue
            assert errors[1e-3] / errors[1e-4] >= 5.0


def _predicted_shift(net, ref, mode, eps):
    """First-order shift of ``mode`` for a (1 + eps) scaling of ``ref``."""
    table = admittance_assembly.StampTable(net)
    s, y = mai_core._mode_stack(table, [mode])
    e = table.index[ref]
    return predict_mode_shift(s[0, e], eps * y[0, e])


def _fallback_resolve(A, anchor, gap):
    """The eigenvalue of ``A`` nearest ``anchor`` by the validation
    fallback, :func:`mass_oracle.nearest_eigenvalue`, gated at 0.3 x ``gap``."""
    return track_mode(anchor, [mass_oracle.nearest_eigenvalue(A, anchor)], spacing=gap)


def _dense_resolve(A, anchor, gap):
    """Reference re-solve: the full dense eigendecomposition of the perturbed
    state matrix, nearest-mode tracked from the anchor among all its
    eigenvalues."""
    eig = mass_oracle.eigendecompose(A)
    return track_mode(anchor, eig.eigenvalues, spacing=gap)


def _resolve_outcome(resolve, A, anchor, gap):
    try:
        return resolve(A, anchor, gap)
    except TrackingError:
        return None


def _unperturbed_gap(net, lam):
    eigenvalues = mass_oracle.eigendecompose(mass_oracle.interconnect(net).A).eigenvalues
    return mai_core._nearest_other_distance(eigenvalues, int(np.argmin(np.abs(eigenvalues - lam))))


@pytest.mark.parametrize("net_seed", [None, 0, 1, 2])
def test_shift_invert_resolve_matches_dense(three_bus_net, net_seed):
    """Every element x mode at eps 1e-3 and 0.05: the fallback re-solve at
    lambda + the predicted shift tracks the same mode as the
    dense reference, or fails the gate (0.3 x the distance from lambda to
    its nearest other eigenvalue) exactly when the dense reference does."""
    if net_seed is None:
        net = three_bus_net
    else:
        net = _random_rl_net(np.random.default_rng(net_seed))
    records = solve_modes(net, method="state_space")
    for ref in network_elements(net):
        for eps in (1e-3, 0.05):
            A = mass_oracle.interconnect(scaled_net(net, ref, 1.0 + eps)).A
            for mode in records:
                anchor = mode.lam + _predicted_shift(net, ref, mode, eps)
                gap = _unperturbed_gap(net, mode.lam)
                expected = _resolve_outcome(_dense_resolve, A, anchor, gap)
                got = _resolve_outcome(_fallback_resolve, A, anchor, gap)
                if expected is None:
                    assert got is None, (ref, eps, mode.lam)
                else:
                    assert got is not None, (ref, eps, mode.lam)
                    assert abs(got - expected) <= 1e-9 * abs(expected)


def test_resolve_lands_on_the_continued_mode(three_bus_net, three_bus_modes):
    """Doubling the bus-1 capacitance moves the lowest mode further than the
    system's minimum mode spacing. Scaling it in 200 small steps, each
    tracked by a dense eigendecomposition, continues the mode to
    -151.888 + 72.264j, the eigenvalue nearest lambda + the predicted shift,
    which is what the validation reports."""
    ref, mode = ("shunt", 0), three_bus_modes[0]
    continued = mode.lam
    for t in np.linspace(0.0, 1.0, 201)[1:]:
        A = mass_oracle.interconnect(scaled_net(three_bus_net, ref, 1.0 + t)).A
        eigenvalues = mass_oracle.eigendecompose(A).eigenvalues
        continued = eigenvalues[np.argmin(np.abs(eigenvalues - continued))]
    assert continued == pytest.approx(-151.888 + 72.264j, abs=1e-3)
    v = validate_element_prediction(three_bus_net, ref, mode, epsilon=1.0)
    assert abs(mode.lam + v.actual - continued) <= 1e-9 * abs(continued)
    batched = mai_core.validate_mode_predictions(
        three_bus_net, [mode], network_elements(three_bus_net), epsilon=1.0)[0]
    v_batched = batched[network_elements(three_bus_net).index(ref)]
    assert abs(mode.lam + v_batched.actual - continued) <= 1e-9 * abs(continued)


def test_gate_refuses_the_conjugate_of_the_continued_mode(three_bus_net, three_bus_modes,
                                                          monkeypatch):
    """Doubling apparatus 0's admittance: the prediction overshoots the
    lowest mode into the lower half-plane, where the eigenvalue nearest
    lambda + the predicted shift is the conjugate of the continued mode,
    117 away against a gate of 0.3 x 104.5. Both routes refuse it, and so
    does the admittance overlay, whose gate counts the conjugates of the
    run's modes (here lambda's own, 104.5 away) among the other modes."""
    ref, mode = ("apparatus", 0), three_bus_modes[0]
    with pytest.raises(TrackingError):
        validate_element_prediction(three_bus_net, ref, mode, epsilon=1.0)
    refs = network_elements(three_bus_net)
    batched = mai_core.validate_mode_predictions(three_bus_net, [mode], refs, epsilon=1.0)[0]
    assert isinstance(batched[refs.index(ref)], TrackingError)
    _overlay_route(monkeypatch)
    overlay = mai_core.validate_mode_predictions(
        three_bus_net, three_bus_modes, refs, epsilon=1.0)[0]
    assert isinstance(overlay[refs.index(ref)], TrackingError)


@pytest.mark.parametrize("case", ["three_bus", 0, 1, 2, "rational"])
def test_run_level_validation_agrees_with_the_one_element_call(three_bus_net, case):
    """Every (mode, element) at eps 0.05 gets the same outcome class from
    ``validate_mode_predictions`` over all modes and elements as from
    ``validate_element_prediction`` alone, and the same re-solved shift
    within 1e-12 |lambda|: on the oracle route and, for the ring of
    rational apparatus, on the overlay route."""
    net, band = three_bus_net, None
    if case == "rational":
        net, band = _rl_ring(3, 0, "rational"), BAND
    elif case != "three_bus":
        net = _random_rl_net(np.random.default_rng(case))
    modes = solve_modes(net, band=band)
    assert modes
    refs = network_elements(net)
    batched = mai_core.validate_mode_predictions(net, modes, refs, epsilon=0.05)
    assert len(batched) == len(modes)
    for mode, outcomes in zip(modes, batched):
        assert len(outcomes) == len(refs)
        for ref, got in zip(refs, outcomes):
            try:
                alone = validate_element_prediction(net, ref, mode, 0.05)
            except (AnalysisError, rational_fit.RefinementError, mass_oracle.OracleError) as exc:
                alone = exc
            assert type(got) is type(alone), (ref, mode.lam)
            if not isinstance(got, Exception):
                assert abs(got.actual - alone.actual) <= 1e-12 * abs(mode.lam), (ref, mode.lam)


def _gated_reference(lam, predicted, root, gap):
    """The per-entry gate: the re-solve's error, a TrackingError beyond 0.3
    x ``gap`` from lambda + the predicted shift, or validate_prediction's
    outcome, from Python numbers."""
    if isinstance(root, Exception):
        return root
    anchor = lam + predicted
    try:
        if abs(root - anchor) > 0.3 * gap:
            track_mode(anchor, [root], spacing=gap)
        return validate_prediction(predicted, root - lam)
    except AnalysisError as exc:
        return exc


def _gate_inputs(net, eps):
    """The arrays ``validate_mode_predictions`` over all modes and elements
    hands its gate."""
    seen = []
    gate = mai_core._gated_outcomes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mai_core, "_gated_outcomes", lambda *args: seen.append(args) or gate(*args))
        mai_core.validate_mode_predictions(net, solve_modes(net), network_elements(net), eps)
    [args] = seen
    return args


@pytest.mark.parametrize("case, eps", [("three_bus", 0.05), ("three_bus", 0.2), ("ring60", 0.05)])
def test_vectorized_gate_matches_the_per_entry_gate(case, eps, three_bus_net):
    """On three_bus at eps 0.05 and 0.2 and on the benchmark generator's
    60-bus ring (6 refusals), the one-pass gate gives every (mode, element)
    the per-entry gate's outcome: the same kind and message, and records
    with the same bits. So it does with a re-solve error, a zero
    prediction and a root moved beyond the gate put into the inputs, and
    an error that is no validation failure is raised."""
    net = three_bus_net if case == "three_bus" else generated_ring(60, 0)
    lams, predicted, roots, failures, gaps = _gate_inputs(net, eps)
    refused = 6 if case == "ring60" else 0
    predicted, roots, failures = predicted.copy(), roots.copy(), dict(failures)
    failures[0, 1] = mass_oracle.DefectiveMatrixError("eigenvalue (1+2j) is defective")
    roots[0, 1] = np.nan
    predicted[1, 2] = 0.0
    roots[1, 0] = lams[1] + predicted[1, 0] + 0.31 * gaps[1] * np.exp(0.7j)
    got = mai_core._gated_outcomes(lams, predicted, roots, failures, gaps)
    kinds = collections.Counter()
    for m, row in enumerate(got):
        for e, outcome in enumerate(row):
            expected = _gated_reference(complex(lams[m]), complex(predicted[m, e]),
                                        failures.get((m, e), complex(roots[m, e])),
                                        float(gaps[m]))
            kinds[type(outcome).__name__] += 1
            assert type(outcome) is type(expected), (m, e)
            if isinstance(outcome, Exception):
                assert str(outcome) == str(expected), (m, e)
            else:
                assert same_bits(np.array([outcome.predicted, outcome.actual, outcome.error]),
                                 np.array([expected.predicted, expected.actual, expected.error]))
    assert kinds["TrackingError"] == refused + 1
    assert kinds["AnalysisError"] == kinds["DefectiveMatrixError"] == 1
    with pytest.raises(KeyError, match="not a validation failure"):
        mai_core._gated_outcomes(lams, predicted, roots,
                                 {**failures, (0, 0): KeyError("not a validation failure")}, gaps)


@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_impedance_route_agrees_with_the_oracle_route(three_bus_net, three_bus_modes, eps,
                                                      monkeypatch):
    """Each of the 63 (mode, element) pairs validated through the admittance
    overlay ends like the oracle route's secular re-solve, with the same
    re-solved shift within 1e-12 |lambda|. Newton from the old lambda
    instead of lambda + the predicted shift ended 1.3 |lambda| away, at
    another mode, for 4 elements of the mode at Im lambda = w0; at eps 0.3,
    Newton on the smallest eigenvalue of Y followed a flat eigenvalue
    branch from those 4 anchors to the conjugate of mode 0."""
    refs = network_elements(three_bus_net)
    oracle = mai_core.validate_mode_predictions(three_bus_net, three_bus_modes, refs, eps)
    _overlay_route(monkeypatch)
    overlay = mai_core.validate_mode_predictions(three_bus_net, three_bus_modes, refs, eps)
    assert len(three_bus_modes) * len(refs) == 63
    for mode, want, got in zip(three_bus_modes, oracle, overlay):
        for ref, a, b in zip(refs, want, got):
            assert type(b) is type(a), (ref, mode.lam)
            if not isinstance(a, Exception):
                assert abs(b.actual - a.actual) <= 1e-12 * abs(mode.lam), (ref, mode.lam)


def test_impedance_route_evaluates_the_model_per_iteration_not_per_mode(
        three_bus_net, three_bus_modes, monkeypatch):
    """The overlay route re-solves the 9 elements of all 7 modes in one
    stacked Newton: fewer than 10 evaluations of the network's elements in
    all, not about 10 per mode."""
    calls = []
    evaluate = admittance_assembly.StampTable.evaluate

    def counting(self, s):
        calls.append(np.size(s))
        return evaluate(self, s)

    monkeypatch.setattr(admittance_assembly.StampTable, "evaluate", counting)
    _overlay_route(monkeypatch)
    mai_core.validate_mode_predictions(
        three_bus_net, three_bus_modes, network_elements(three_bus_net), 0.05)
    assert len(three_bus_modes) == 7
    assert 0 < len(calls) < 10


def test_an_evaluation_error_stays_with_its_element(three_bus_net, three_bus_modes,
                                                    monkeypatch):
    """Apparatus 0 evaluable only within 1e-3 of the second mode: no error
    escapes the overlay route's run. At that mode, the elements predicted
    to move it by less than 1e-4 keep, bit for bit, the results of the
    apparatus valid everywhere; those predicted to move it further, and
    every element at the other modes, end in the EvaluationError, named as
    Y names apparatus 0 (at bus 3). The layers of all modes raise it at
    the first mode."""
    refs = network_elements(three_bus_net)
    lam1 = three_bus_modes[1].lam
    exact = admittance_assembly._ApparatusGroup.evaluate
    model0 = three_bus_net.apparatus[0].model

    def fragile(group, s):  # every group holding apparatus 0, alone or not
        if model0 in group.models and np.any(np.abs(np.asarray(s) - lam1) > 1e-3):
            raise EvaluationError(f"apparatus 0 is defined within 1e-3 of {lam1} only")
        return exact(group, s)

    _overlay_route(monkeypatch)
    want = mai_core.validate_mode_predictions(three_bus_net, three_bus_modes, refs, 0.05)
    monkeypatch.setattr(admittance_assembly._ApparatusGroup, "evaluate", fragile)
    got = mai_core.validate_mode_predictions(three_bus_net, three_bus_modes, refs, 0.05)
    named = f"apparatus at bus 3: apparatus 0 is defined within 1e-3 of {lam1} only"
    kept = 0
    for k, (mode_want, mode_got) in enumerate(zip(want, got)):
        for a, b in zip(mode_want, mode_got):
            if k == 1 and abs(a.predicted) < 1e-4:
                assert b == a
                kept += 1
            else:
                assert isinstance(b, EvaluationError) and str(b) == named
                assert k != 1 or abs(a.predicted) > 1e-3
    assert 0 < kept < len(refs)
    with pytest.raises(EvaluationError, match=f"^{re.escape(named)}$"):
        list(mode_layers(three_bus_net, three_bus_modes))


def _algebraic_bus_net(three_bus_net):
    """three_bus without the bus-3 capacitor: the bus-3 voltage is
    eliminated through its resistive shunt."""
    return NetworkDescription(
        n_buses=3, omega0=W0, branches=three_bus_net.branches,
        shunts=tuple(sh for sh in three_bus_net.shunts
                     if not (sh.bus == 3 and sh.kind == "capacitive")),
        apparatus=three_bus_net.apparatus,
    )


def _low_rank_nets(three_bus_net):
    algebraic = _algebraic_bus_net(three_bus_net)
    inductive = NetworkDescription(
        n_buses=3, omega0=W0, branches=algebraic.branches,
        shunts=algebraic.shunts + (
            ShuntElement(bus=2, kind="inductive", value=0.02),
            ShuntElement(bus=3, kind="inductive", value=0.03),
        ),
        apparatus=algebraic.apparatus,
    )
    return [three_bus_net, algebraic, inductive] + [
        _random_rl_net(np.random.default_rng(seed)) for seed in range(5)
    ]


def test_element_update_is_the_interconnected_difference(three_bus_net):
    """U V^T from ``element_updates`` equals the state matrix of the
    rewritten network minus A, for every element kind, on capacitive and on
    eliminated buses; every update has rank 2 (up to the rounding of the
    rebuilt rows)."""
    for net in _low_rank_nets(three_bus_net):
        system = mass_oracle.Interconnection(net)
        A = system.model.A
        refs = network_elements(net)
        for eps in (1e-3, 0.05):
            for ref, (rows, A_rows) in zip(refs, system.element_updates(refs, 1.0 + eps),
                                           strict=True):
                update = np.zeros_like(A)
                update[rows] = A_rows - A[rows]
                scaled = mass_oracle.interconnect(scaled_net(net, ref, 1.0 + eps)).A
                assert np.linalg.norm(update - (scaled - A)) <= 1e-13 * np.linalg.norm(A), ref
                rank = np.linalg.matrix_rank(update, tol=1e-9 * np.linalg.norm(update))
                assert rank == 2, ref


def _static_apparatus_nets(three_bus_net):
    """three_bus with a static (D-only) apparatus, without states, at bus 2,
    once with the bus-2 capacitor and once with a resistive shunt in its
    place."""
    static = network_model.ApparatusAttachment(
        bus=2, theta=0.4, model=network_model.StateSpaceRealization(
            A=np.zeros((0, 0)), B=np.zeros((0, 2)), C=np.zeros((2, 0)),
            D=np.array([[0.4, 0.1], [-0.05, 0.3]])))
    net = replace(three_bus_net, apparatus=three_bus_net.apparatus + (static,))
    shunts = tuple(sh for sh in net.shunts if sh.bus != 2)
    return [net, replace(net, shunts=shunts + (ShuntElement(bus=2, kind="resistive", value=1.8),))]


def test_stacked_element_updates_equal_the_reassembled_rows(three_bus_net):
    """Bit for bit, the stacked update of each element holds the rows in
    which the state matrix of the network assembled with that element
    scaled differs from A, and those rows of it; the rows of B that
    ``element_rows`` gives are those of the reassembled B, which differs
    from B nowhere else. On the low-rank networks (buses with and without
    capacitance, inductive shunts, apparatus with feedthrough), static
    apparatus at buses with and without capacitance, a bus with a resistive
    shunt alone, which no row reads, and the 10-, 22- and 60-bus rings."""
    lone = replace(three_bus_net, n_buses=4, shunts=three_bus_net.shunts + (
        ShuntElement(bus=4, kind="resistive", value=2.0),))
    cases = [(net, (1.001, 1.05, 1.2)) for net in _low_rank_nets(three_bus_net)]
    cases += [(net, (1.05,)) for net in [*_static_apparatus_nets(three_bus_net), lone]]
    cases += [(_rl_ring(n, 0, "state_space"), (1.05,)) for n in (10, 22, 60)]
    for net, factors in cases:
        system = mass_oracle.Interconnection(net)
        refs = network_elements(net)
        for factor in factors:
            changes = [(ref, mass_oracle.scaled_element(net, ref, factor)) for ref in refs]
            for ref, (rows, A_rows), (written, _, B_rows) in zip(
                    refs, system.element_updates(refs, factor), system.element_rows(changes),
                    strict=True):
                scaled = mass_oracle.interconnect(scaled_net(net, ref, factor))
                changed = np.flatnonzero(np.any(scaled.A != system.model.A, axis=1))
                order = np.argsort(rows)
                assert np.array_equal(rows[order], changed), ref
                assert np.array_equal(A_rows[order], scaled.A[changed]), ref
                assert same_bits(B_rows, scaled.B[written]), ref
                assert np.isin(np.flatnonzero(np.any(scaled.B != system.model.B, axis=1)),
                               written).all(), ref


def test_eliminated_bus_shunt_updates_four_rows(three_bus_net):
    """The resistive shunt at the capacitor-less bus 3 reaches the rows of
    the transformer and of the apparatus there, which read its voltage."""
    net = _algebraic_bus_net(three_bus_net)
    system = mass_oracle.Interconnection(net)
    shunt = next(i for i, sh in enumerate(net.shunts) if sh.bus == 3)
    [(rows, _)] = system.element_updates([("shunt", shunt)], 1.05)
    names = [system.state_names[r] for r in rows]
    assert names == ["branch1:2-3.id", "branch1:2-3.iq",
                     "apparatus0:bus3.x0", "apparatus0:bus3.x1"]


def _perturbed(system, update):
    A = system.model.A.copy()
    rows, A_rows = update
    A[rows] = A_rows
    return A


def _pole(system, mode):
    return int(np.argmin(np.abs(system.eig.eigenvalues - mode.lam)))


def _updated_eigenvalues(system, indices, updates, anchors):
    """``mass_oracle.updated_eigenvalues`` as one list per index with, per
    update, its root or the error its solve raised."""
    roots, failures = mass_oracle.updated_eigenvalues(system, indices, updates, anchors)
    out = roots.tolist()
    for (m, e), exc in failures.items():
        out[m][e] = exc
    return out


def _counted_fallback(monkeypatch):
    """The anchors every dense fallback is called with, and the fallback."""
    fallbacks = []
    nearest = mass_oracle.nearest_eigenvalue
    monkeypatch.setattr(mass_oracle, "nearest_eigenvalue",
                        lambda A, sigma: fallbacks.append(sigma) or nearest(A, sigma))
    return fallbacks, nearest


def test_batched_roots_match_shift_invert(three_bus_net, monkeypatch):
    """For every mode and eps in {1e-3, 0.05}, the secular roots over the
    grid of all modes and elements equal the dense nearest eigenvalue at
    the same anchor within 1e-9 |lambda|, with no fallback taken."""
    fallbacks, nearest = _counted_fallback(monkeypatch)
    for net in _low_rank_nets(three_bus_net):
        system = mass_oracle.Interconnection(net)
        refs = network_elements(net)
        modes = solve_modes(net, method="state_space")
        for eps in (1e-3, 0.05):
            updates = system.element_updates(refs, 1.0 + eps)
            anchors = [[mode.lam + _predicted_shift(net, ref, mode, eps) for ref in refs]
                       for mode in modes]
            grid = _updated_eigenvalues(
                system, [_pole(system, mode) for mode in modes], updates, anchors)
            assert fallbacks == []
            for mode, row, roots in zip(modes, anchors, grid):
                for update, anchor, root in zip(updates, row, roots):
                    expected = nearest(_perturbed(system, update), anchor)
                    assert abs(root - expected) <= 1e-9 * abs(mode.lam)


def test_zero_prediction_and_backward_error_give_the_shift_invert_value(
        three_bus_net, three_bus_modes, monkeypatch):
    """An anchor on the pole lambda_i itself (a zero predicted shift) starts
    Newton on the deflated secular function, which is regular there; an
    anchor on another eigenvalue, where M is not defined, and a root failing
    the backward-error check take the dense fallback. All return the
    eigenvalue nearest the anchor. In a grid where one mode's row is
    anchored on another eigenvalue, only that row takes the fallback. On a
    ring with poles beyond the moments' radius R, an anchor beyond R / 10
    (every pole summed exactly) reaches the root of the deflated Newton
    without fallback, and one on a pole beyond R takes the fallback."""
    fallbacks, nearest = _counted_fallback(monkeypatch)
    system = mass_oracle.Interconnection(three_bus_net)
    refs = network_elements(three_bus_net)
    mode = three_bus_modes[2]
    lam = system.eig.eigenvalues
    i = _pole(system, mode)
    updates = system.element_updates(refs, 1.05)

    on_pole = [lam[i]] * len(refs)
    [roots] = _updated_eigenvalues(system, [i], updates, [on_pole])
    assert fallbacks == []
    for update, anchor, root in zip(updates, on_pole, roots):
        expected = nearest(_perturbed(system, update), anchor)
        assert abs(root - expected) <= 1e-9 * abs(mode.lam)

    j = int(np.argsort(np.abs(lam - mode.lam))[1])
    on_other_pole = [lam[j]] * len(refs)
    [roots] = _updated_eigenvalues(system, [i], updates, [on_other_pole])
    assert len(fallbacks) == len(refs)
    for update, anchor, root in zip(updates, on_other_pole, roots):
        assert root == nearest(_perturbed(system, update), anchor)

    anchors = [mode.lam + _predicted_shift(three_bus_net, ref, mode, 0.05) for ref in refs]
    others = [m for m in three_bus_modes if m is not mode]
    healthy = [[m.lam + _predicted_shift(three_bus_net, ref, m, 0.05) for ref in refs]
               for m in others]
    fallbacks.clear()
    grid = _updated_eigenvalues(
        system, [i] + [_pole(system, m) for m in others], updates, [on_other_pole] + healthy)
    assert fallbacks == on_other_pole
    for row, roots in zip([on_other_pole] + healthy, grid):
        for update, anchor, root in zip(updates, row, roots):
            expected = nearest(_perturbed(system, update), anchor)
            assert abs(root - expected) <= 1e-9 * abs(mode.lam)

    fallbacks.clear()
    monkeypatch.setattr(mass_oracle, "_BACKWARD_LIMIT", -1.0)
    [roots] = _updated_eigenvalues(system, [i], updates, [anchors])
    assert len(fallbacks) == len(refs)
    for update, anchor, root in zip(updates, anchors, roots):
        assert root == nearest(_perturbed(system, update), anchor)
    monkeypatch.undo()

    fallbacks, nearest = _counted_fallback(monkeypatch)
    system, poles, updates, anchors = _secular_case(_rl_ring(10, 0, "state_space"), 0.05)
    lam = system.eig.eigenvalues
    i = poles[0]
    grid = mass_oracle._SecularGrid(system, updates).select([i])
    radius = grid.radius[0]
    far = int(np.flatnonzero(np.abs(lam - lam[i]) >= radius)[0])
    beyond = lam[i] + 0.5 * radius * (anchors[0] - lam[i]) / np.abs(anchors[0] - lam[i])
    [roots] = _updated_eigenvalues(system, [i], updates, [beyond])
    expected, converged = reference_roots(system, [i], updates, [beyond])
    assert converged.all() and fallbacks == []
    assert np.all(np.abs(np.array(roots) - expected[0]) <= 1e-13 * abs(lam[i]))
    [roots] = _updated_eigenvalues(system, [i], updates, [[lam[far]] * len(updates)])
    assert fallbacks == [lam[far]] * len(updates)
    for update, root in zip(updates, roots):
        assert root == nearest(_perturbed(system, update), lam[far])


def _secular_case(net, eps):
    """(system, poles, updates, anchors (M, E)) of every mode and element of
    ``net`` at ``eps``."""
    system = mass_oracle.Interconnection(net)
    refs = network_elements(net)
    modes = solve_modes(net, method="state_space")
    return (system, [_pole(system, mode) for mode in modes],
            system.element_updates(refs, 1.0 + eps),
            np.array([[mode.lam + _predicted_shift(net, ref, mode, eps) for ref in refs]
                      for mode in modes]))


def _secular_cases(three_bus_net):
    """:func:`_secular_case` of the low-rank networks and of a 10-bus ring,
    at eps 0.05 and 0.2."""
    for net in _low_rank_nets(three_bus_net) + [_rl_ring(10, 0, "state_space")]:
        for eps in (0.05, 0.2):
            yield _secular_case(net, eps)


def _same_outcomes(first, second):
    for row_a, row_b in zip(first, second, strict=True):
        for a, b in zip(row_a, row_b, strict=True):
            if isinstance(a, Exception):
                assert type(a) is type(b) and str(a) == str(b)
            else:
                assert a == b


def test_product_form_roots_match_the_deflated_reference(three_bus_net, monkeypatch):
    """The secular roots from near poles and far-pole moments agree with
    the per-entry deflated Newton of ``secular_reference`` within
    1e-13 |lambda|, and take the dense fallback exactly where it did not
    converge, on the low-rank networks and 10- and 22-bus rings at eps
    0.05 and 0.2."""
    fallbacks, _ = _counted_fallback(monkeypatch)
    nets = _low_rank_nets(three_bus_net) + [_rl_ring(n, 0, "state_space") for n in (10, 22)]
    for net in nets:
        for eps in (0.05, 0.2):
            system, poles, updates, anchors = _secular_case(net, eps)
            fallbacks.clear()
            roots = _updated_eigenvalues(system, poles, updates, anchors)
            expected, converged = reference_roots(system, poles, updates, anchors)
            assert sorted(map(str, fallbacks)) == sorted(map(str, anchors[~converged]))
            scale = np.abs(system.eig.eigenvalues[poles])[:, None]
            got = np.array([[np.nan if isinstance(r, Exception) else r for r in row]
                            for row in roots])
            assert np.all(np.abs(got - expected)[converged] <= 1e-13 * np.broadcast_to(
                scale, got.shape)[converged])


def test_certificate_bounds_the_exact_check(three_bus_net, monkeypatch):
    """At every converged secular root, the O(k^2) certificate's backward
    error and condition number, with the moments' truncation remainder and
    the last Newton step included, are at or above the exact ones from the
    eigenvectors x = X c and y^H = r X^-1 of Newton's last evaluation; every
    root, fallback and DefectiveMatrixError is what the exact check alone
    decides; and a root whose bound misses the limit while its exact
    backward error meets it goes through the exact check and is kept."""
    exact = mass_oracle._SecularGrid.exact
    checked = []
    monkeypatch.setattr(mass_oracle._SecularGrid, "exact",
                        lambda grid, e, *args: checked.append(e.size) or exact(grid, e, *args))
    certificate = mass_oracle._SecularGrid.certificate

    def no_certificate(*args):
        return tuple(np.full(bound.shape, np.inf) for bound in certificate(*args))

    moments = 0
    for system, poles, updates, anchors in _secular_cases(three_bus_net):
        grid = mass_oracle._SecularGrid(system, updates).select(poles)
        with np.errstate(all="ignore"):
            mu, converged, last = grid.newton(anchors.T)
        assert converged.all()
        e, m = np.nonzero(converged)
        backward_bound, cond_bound = grid.certificate(e, m, last)
        backward, cond = exact(grid, e, m, mu[e, m], last)
        assert np.all(backward_bound >= backward)
        assert np.all(cond_bound >= cond)
        assert np.all(backward_bound <= 1e-13) and np.all(cond_bound <= 1e3)
        moments += np.sum(last["inside"] & np.isfinite(grid.radius))

        checked.clear()
        roots = _updated_eigenvalues(system, poles, updates, anchors)
        assert checked == []
        with monkeypatch.context() as m:
            m.setattr(mass_oracle._SecularGrid, "certificate", no_certificate)
            _same_outcomes(roots, _updated_eigenvalues(system, poles, updates,
                                                                  anchors))
        assert checked == [mu.size]

        limit = backward.max()
        doubt = int(np.sum(backward_bound > limit))
        assert doubt > 0
        checked.clear()
        with monkeypatch.context() as m:
            m.setattr(mass_oracle, "_BACKWARD_LIMIT", limit)
            _same_outcomes(roots, _updated_eigenvalues(system, poles, updates,
                                                                  anchors))
        assert checked == [doubt]
    assert moments > 0


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def test_layer2_zero_admittance():
    assert layer2(np.eye(2), np.zeros((2, 2))) == 0.0


def test_layer1_cauchy_zero_admittance():
    assert layer1_cauchy(np.eye(2), np.zeros((2, 2))) == 0.0


def test_layer1_cauchy_bounds_inner_product():
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        eps = float(rng.uniform(0.001, 0.2))
        assert eps * layer1_cauchy(s, y) >= abs(predict_mode_shift(s, eps * y)) - 1e-14


def test_enhanced_layer1_values():
    assert abs(enhanced_layer1(-0.047, 0.004) - 0.047) <= 1e-3
    assert abs(enhanced_layer1(0.291, -1.262) - 1.295) <= 1e-3
    assert enhanced_layer1(0.0, 0.0) == 0.0


def test_layer3_zero_derivative():
    assert layer3(np.eye(2), np.zeros((2, 2))) == 0.0


def test_layer2_damping_sign_on_resolve(rc_bus_net):
    """Growing the conductance moves the RC-bus mode left iff sigma2 < 0."""
    records = solve_modes(rc_bus_net, method="state_space")
    mode = records[0]
    ref = ("shunt", 0)  # the resistive shunt
    sigma2 = element_layer_report(rc_bus_net, ref, mode).layer2[0].real
    eps = 1e-3
    perturbed = scaled_net(rc_bus_net, ref, 1.0 + eps)
    eig = mass_oracle.eigendecompose(mass_oracle.interconnect(perturbed).A)
    gap = min(abs(a - b) for a, b in itertools.combinations(eig.eigenvalues, 2))
    lam_new = track_mode(mode.lam, [complex(v) for v in eig.eigenvalues], spacing=gap)
    moved_left = (lam_new - mode.lam).real < 0
    assert moved_left == (sigma2 < 0)


def test_layer_report_fields(three_bus_net, three_bus_modes):
    """One element's row of the layers: arrays of length 1, and the two
    layer-3 columns of a branch named L and R."""
    rep = element_layer_report(three_bus_net, ("branch", 0), three_bus_modes[0],
                               epsilon=0.05)
    assert rep.layer1_cauchy.shape == rep.layer2.shape == rep.layer1_enhanced.shape == (1,)
    assert rep.layer3.shape == (1, 2)
    assert rep.layer1_enhanced[0] == pytest.approx(abs(rep.layer2[0]))
    assert rep.layer1_enhanced[0] <= rep.layer1_cauchy[0] + 1e-12
    assert mai_core.LAYER3_PARAMS["branch"] == ("L", "R")


# ---------------------------------------------------------------------------
# Splitting and the virtual node
# ---------------------------------------------------------------------------


def test_split_parts_sum_to_series_impedance():
    lam = -14.0 + 310.0j
    split = split_branch(0.05, 0.002, W0, lam)
    assert np.allclose(split.z1 + split.z2, dq_series_impedance(0.05, 0.002, W0, lam))


def test_split_at_zero_s():
    split = split_branch(0.03, 0.01, W0, 0.0)
    assert np.allclose(split.z1, 0.01 * np.array([[0.0, -W0], [W0, 0.0]]))
    assert np.allclose(split.z2, 0.03 * np.eye(2))


def test_split_zero_resistance_degenerate():
    split = split_branch(0.0, 0.002, W0, -5.0 + 100.0j)
    with pytest.raises(DegenerateSplitError):
        split_parameter_derivatives(split)


def _augmented_oracle(net, branch_idx, s):
    """Explicit (2n+2)-dimensional assembly with the split node."""
    b = net.branches[branch_idx]
    n = net.n_buses
    dim = 2 * n + 2
    Y = np.zeros((dim, dim), dtype=complex)
    for k, br in enumerate(net.branches):
        if k == branch_idx:
            continue
        y = np.linalg.inv(dq_series_impedance(br.R, br.L, net.omega0, s))
        si, sj = block_slice(br.from_bus), block_slice(br.to_bus)
        Y[si, si] += y / br.ratio**2
        Y[si, sj] -= y / br.ratio
        Y[sj, si] -= y / br.ratio
        Y[sj, sj] += y
    for k, sh in enumerate(net.shunts):
        sb = block_slice(sh.bus)
        Y[sb, sb] += table_admittance(net, ("shunt", k), s)
    split = split_branch(b.R, b.L, net.omega0, s)
    sf = slice(2 * n, 2 * n + 2)
    sj_ = block_slice(b.from_bus)
    sk = block_slice(b.to_bus)
    y1 = np.linalg.inv(split.z1)
    y2 = np.linalg.inv(split.z2)
    Y[sj_, sj_] += y1
    Y[sj_, sf] -= y1
    Y[sf, sj_] -= y1
    Y[sf, sf] += y1 + y2
    Y[sk, sk] += y2
    Y[sk, sf] -= y2
    Y[sf, sk] -= y2
    return np.linalg.inv(Y), split


def _random_rl_net(rng):
    n = int(rng.integers(3, 7))
    branches = []
    for bus in range(2, n + 1):
        other = int(rng.integers(1, bus))
        branches.append(
            SeriesBranch(kind="line", from_bus=other, to_bus=bus,
                         R=float(rng.uniform(0.01, 0.1)),
                         L=float(rng.uniform(5e-4, 5e-3)))
        )
    shunts = tuple(
        ShuntElement(bus=bus, kind="capacitive", value=float(rng.uniform(5e-4, 5e-3)))
        for bus in range(1, n + 1)
    ) + tuple(
        ShuntElement(bus=int(rng.integers(1, n + 1)), kind="resistive",
                     value=float(rng.uniform(1.0, 5.0)))
        for _ in range(2)
    )
    return NetworkDescription(n_buses=n, omega0=W0, branches=tuple(branches), shunts=shunts)


def test_split_node_blocks_match_augmented_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        net = _random_rl_net(rng)
        bidx = int(rng.integers(0, len(net.branches)))
        s = complex(rng.uniform(-50, 50), rng.uniform(100, 2000))
        Z_aug, split = _augmented_oracle(net, bidx, s)
        n = net.n_buses
        Z = WholeSystemModel(net).impedance(s)
        b = net.branches[bidx]
        blocks = split_node_impedances(Z, b.from_bus, b.to_bus, split.z1, split.z2)
        sf = slice(2 * n, 2 * n + 2)
        assert np.allclose(blocks.row, Z_aug[sf, : 2 * n], atol=1e-10)
        assert np.allclose(blocks.col, Z_aug[: 2 * n, sf], atol=1e-10)
        assert np.allclose(blocks.Z_ff, Z_aug[sf, sf], atol=1e-10)


def test_split_node_z1_to_zero_limit(two_bus_net):
    """As z1 shrinks, node f merges electrically with node j."""
    s = -20.0 + 500.0j
    Z = WholeSystemModel(two_bus_net).impedance(s)
    b = two_bus_net.branches[0]
    z_total = dq_series_impedance(b.R, b.L, two_bus_net.omega0, s)
    z1 = 1e-8 * z_total
    z2 = z_total - z1
    blocks = split_node_impedances(Z, 1, 2, z1, z2)
    assert np.allclose(blocks.Z_ff, Z[block_slice(1), block_slice(1)], atol=1e-6)
    assert np.allclose(blocks.Z_fi(2), Z[block_slice(1), block_slice(2)], atol=1e-6)


def test_split_node_open_branch_limit(two_bus_net):
    """With the resistive part huge, Z_fi collapses onto Z_ji."""
    s = -20.0 + 500.0j
    Z = WholeSystemModel(two_bus_net).impedance(s)
    b = two_bus_net.branches[0]
    split = split_branch(b.R, b.L, two_bus_net.omega0, s)
    z2 = 1e8 * np.eye(2)
    blocks = split_node_impedances(Z, 1, 2, split.z1, z2)
    assert np.allclose(blocks.Z_fi(1), Z[block_slice(1), block_slice(1)], atol=1e-6)
    assert np.allclose(blocks.Z_fi(2), Z[block_slice(1), block_slice(2)], atol=1e-6)


def test_split_node_residues_match_limit(three_bus_net, three_bus_modes):
    """Residue blocks of the augmented system from the closed-form algebra
    agree with the numeric limit (s - lam) Z_aug(s)."""
    mode = three_bus_modes[4]
    lam = mode.lam
    b = three_bus_net.branches[0]
    split = split_branch(b.R, b.L, three_bus_net.omega0, lam)
    blocks = split_node_residues(dense_residue(mode), b.from_bus, b.to_bus, split.z1, split.z2)
    s = lam + 1e-6 * (1 + abs(lam)) * np.exp(0.7j)
    Z_aug, _ = _augmented_oracle(three_bus_net, 0, s)
    # the augmented oracle above has no apparatus; rebuild with the full Y
    n = three_bus_net.n_buses
    model = WholeSystemModel(three_bus_net)

    def aug_Z(sv):
        split_s = split_branch(b.R, b.L, three_bus_net.omega0, sv)
        Y = model.admittance(sv)
        y_unsplit = np.linalg.inv(dq_series_impedance(b.R, b.L, three_bus_net.omega0, sv))
        dim = 2 * n + 2
        Ya = np.zeros((dim, dim), dtype=complex)
        Ya[: 2 * n, : 2 * n] = Y
        sj_, sk = block_slice(b.from_bus), block_slice(b.to_bus)
        Ya[sj_, sj_] -= y_unsplit
        Ya[sj_, sk] += y_unsplit
        Ya[sk, sj_] += y_unsplit
        Ya[sk, sk] -= y_unsplit
        y1 = np.linalg.inv(split_s.z1)
        y2 = np.linalg.inv(split_s.z2)
        sf = slice(2 * n, 2 * n + 2)
        Ya[sj_, sj_] += y1
        Ya[sj_, sf] -= y1
        Ya[sf, sj_] -= y1
        Ya[sf, sf] += y1 + y2
        Ya[sk, sk] += y2
        Ya[sk, sf] -= y2
        Ya[sf, sk] -= y2
        return np.linalg.inv(Ya)

    R_lim = (s - lam) * aug_Z(s)
    sf = slice(2 * n, 2 * n + 2)
    scale = np.linalg.norm(dense_residue(mode))
    assert np.allclose(blocks.Z_ff, R_lim[sf, sf], atol=1e-4 * scale)
    assert np.allclose(blocks.row, R_lim[sf, : 2 * n], atol=1e-4 * scale)
    assert np.allclose(blocks.col, R_lim[: 2 * n, sf], atol=1e-4 * scale)


def test_split_parameter_derivatives_finite_difference():
    lam = -14.0 + 310.0j
    R, L = 0.05, 0.002
    split = split_branch(R, L, W0, lam)
    dy1_dL, dy2_dR = split_parameter_derivatives(split)
    h = 1e-7
    y1 = lambda Lv: np.linalg.inv(Lv * np.array([[lam, -W0], [W0, lam]]))
    fd1 = (y1(L + h * L) - y1(L - h * L)) / (2 * h * L)
    assert np.allclose(dy1_dL, fd1, rtol=1e-5)
    y2 = lambda Rv: np.linalg.inv(Rv * np.eye(2, dtype=complex))
    fd2 = (y2(R + h * R) - y2(R - h * R)) / (2 * h * R)
    assert np.allclose(dy2_dR, fd2, rtol=1e-5)
    assert np.allclose(dy2_dR, -np.eye(2) / R**2)


def test_split_derivative_scaling_with_L():
    lam = -14.0 + 310.0j
    d1, _ = split_parameter_derivatives(split_branch(0.05, 0.001, W0, lam))
    d2, _ = split_parameter_derivatives(split_branch(0.05, 0.002, W0, lam))
    assert np.allclose(d2, d1 / 4.0)


def _split_route_layer3(net, idx, mode):
    """Layer 3 (L, R) of line ``idx`` by the paper's route: the inductive part
    is a branch j-f and the resistive part a branch f-k against the virtual
    node f, with residue blocks from the split-node identities."""
    res = dense_residue(mode)
    b = net.branches[idx]
    j, k = b.from_bus, b.to_bus
    split = split_branch(b.R, b.L, net.omega0, mode.lam)
    aug = split_node_residues(res, j, k, split.z1, split.z2)
    dy1_dL, dy2_dR = split_parameter_derivatives(split)
    d_L = -(res[block_slice(j), block_slice(j)] + aug.Z_ff - aug.Z_if(j) - aug.Z_fi(j))
    d_R = -(aug.Z_ff + res[block_slice(k), block_slice(k)] - aug.Z_fi(k) - aug.Z_if(k))
    return {"L": frobenius_inner(d_L.conj().T, dy1_dL),
            "R": frobenius_inner(d_R.conj().T, dy2_dR)}


def test_split_and_direct_parameter_routes_agree(three_bus_net, three_bus_modes):
    for mode in three_bus_modes[:3]:
        s_split = _split_route_layer3(three_bus_net, 0, mode)
        for param in ("L", "R"):
            s_direct = branch_parameter_sensitivity(three_bus_net, 0, mode, param)
            assert abs(s_split[param] - s_direct) <= 1e-8 * abs(s_direct)


@pytest.mark.parametrize("method", ["state_space", "impedance"])
def test_branch_parameter_sensitivity_is_the_layer3_of_mode_layers(three_bus_net, method):
    """At every mode of three_bus, from the oracle route's factors or the
    impedance route's (with their denominators), the one-branch
    sensitivity of line 1-2 and of the k = 0.932 transformer 2-3 equals
    that branch's layer-3 columns of mode_layers bit for bit."""
    modes = solve_modes(three_bus_net, band=BAND, method=method)
    assert len(modes) == 7
    for mode, layers in zip(modes, mode_layers(three_bus_net, modes)):
        for b in (0, 1):
            for c, param in enumerate(mai_core.LAYER3_PARAMS["branch"]):
                got = branch_parameter_sensitivity(three_bus_net, b, mode, param)
                assert same_bits(got, layers.layer3[b, c]), (mode.lam, b, param)


def test_low_loss_line_layer3_matches_state_space(three_bus_net):
    """Layer 3 of a line with R = 5e-5 against the oracle's psi (dA/drho) phi.
    The split route subtracts nearly equal residue blocks here."""
    net = three_bus_net.with_branch(0, R=5e-5)
    b = net.branches[0]
    A = mass_oracle.interconnect(net).A
    # the branch rows are affine in 1/L and linear in R, so these are exact
    dA = {
        "L": -2.0 * (A - mass_oracle.interconnect(net.with_branch(0, L=2 * b.L)).A) / b.L,
        "R": (mass_oracle.interconnect(net.with_branch(0, R=2 * b.R)).A - A) / b.R,
    }
    eig = mass_oracle.eigendecompose(A)
    modes = solve_modes(net, method="state_space")
    assert modes
    for mode in modes:
        i = int(np.argmin(np.abs(eig.eigenvalues - mode.lam)))
        row = element_layer_report(net, ("branch", 0), mode).layer3[0]
        layer3 = dict(zip(mai_core.LAYER3_PARAMS["branch"], row))
        for param in ("L", "R"):
            want = parameter_sensitivity_ss(eig, i, dA[param])
            assert abs(layer3[param] - want) <= 1e-10 * abs(want), (mode.lam, param)


# ---------------------------------------------------------------------------
# The batched per-mode kernel against the per-element formulas
# ---------------------------------------------------------------------------


def _reference_layers(net, ref, mode):
    """One element's layers from the one-element formulas: the sensitivity
    factor cut from the dense residue, the element admittance, the
    split-node residue blocks (lines), the unsplit derivative
    (transformers, R = 0 lines) and closed-form shunt derivatives."""
    res, lam = dense_residue(mode), mode.lam
    table = admittance_assembly.StampTable(net)
    e = table.index[ref]
    s = residue_sensitivity(res, table.i[e], table.j[e], table.ratio[e])
    y = table_admittance(net, ref, lam)
    l2 = frobenius_inner(s, y)
    out = {"layer1_cauchy": np.linalg.norm(s) * np.linalg.norm(y), "layer2": l2,
           "layer1_enhanced": abs(l2)}
    kind, idx = ref
    if kind == "branch":
        b = net.branches[idx]
        if b.ratio == 1.0 and b.R > 0:
            out.update(_split_route_layer3(net, idx, mode))
        else:
            for param in ("L", "R"):
                out[param] = branch_parameter_sensitivity(net, idx, mode, param)
    elif kind == "shunt":
        sh = net.shunts[idx]
        om = omega_block(lam, net.omega0)
        dy = {"resistive": -np.eye(2) / sh.value**2, "capacitive": om,
              "inductive": -y @ om @ y}[sh.kind]
        out["value"] = frobenius_inner(s, dy)
    return out


def _kernel_case(name, request):
    """(network, modes) of one differential case."""
    if name == "three_bus":
        net = request.getfixturevalue("three_bus_net")
    elif name.startswith("random"):
        net = _random_rl_net(np.random.default_rng(int(name[-1])))
    elif name == "zero_R_line":
        net = _random_rl_net(np.random.default_rng(7)).with_branch(0, R=0.0)
    elif name == "inductive_shunt":
        base = _random_rl_net(np.random.default_rng(8))
        net = NetworkDescription(
            n_buses=base.n_buses, omega0=base.omega0, branches=base.branches,
            shunts=base.shunts + (ShuntElement(bus=2, kind="inductive", value=0.05),),
        )
    else:  # measured apparatus replaced by their rational surrogates
        path = Path(__file__).resolve().parents[1] / "networks" / "measured_two_bus.json"
        net = network_model.parse_network(path.read_text(), base_dir=str(path.parent))
        net = cli_reporting._with_surrogates(net, 12)
        return net, solve_modes(net, band=(5.0, 5000.0))
    return net, solve_modes(net, method="state_space")


@pytest.mark.parametrize("case", [
    "three_bus", "random0", "random1", "random2", "random3", "random4",
    "zero_R_line", "inductive_shunt", "measured",
])
def test_mode_layers_match_element_formulas(case, request):
    """Every element's layers at every mode, in network order, against the
    one-element formulas; layer1_enhanced <= layer1_cauchy throughout
    (Cauchy-Schwarz)."""
    net, modes = _kernel_case(case, request)
    refs = network_elements(net)
    assert modes
    stacked = list(mode_layers(net, modes))
    assert len(stacked) == len(modes)
    for mode, layers in zip(modes, stacked):
        assert layers.layer1_cauchy.shape == (len(refs),)
        assert np.all(layers.layer1_enhanced <= layers.layer1_cauchy * (1 + 1e-12)), mode.lam
        expected = [_reference_layers(net, ref, mode) for ref in refs]
        got = [
            {"layer1_cauchy": c, "layer2": v, "layer1_enhanced": e,
             **dict(zip(mai_core.LAYER3_PARAMS[kind], p))}
            for (kind, _), c, v, e, p in zip(refs, layers.layer1_cauchy, layers.layer2,
                                             layers.layer1_enhanced, layers.layer3)
        ]
        assert [set(g) for g in got] == [set(e) for e in expected]
        for key in set().union(*expected):
            want = np.array([e[key] for e in expected if key in e])
            have = np.array([g[key] for g in got if key in g])
            assert np.max(np.abs(have - want)) <= 1e-10 * np.max(np.abs(want)), (mode.lam, key)


def _stacked_case(name, request):
    """(network, modes) of an equivalence case."""
    if name == "three_bus":
        net = request.getfixturevalue("three_bus_net")
        return net, solve_modes(net, method="state_space")
    net = network_model.parse_network(json.dumps(mixed_ring_doc()))
    return net, solve_modes(net, band=BAND)


@pytest.mark.parametrize("per_chunk", [None, 3])
@pytest.mark.parametrize("case", ["three_bus", "mixed_ring"])
def test_stacked_layers_equal_the_one_mode_reports(case, per_chunk, request, monkeypatch):
    """Layers of all modes from the stacked pass (in one chunk, or in
    chunks of 3 modes) agree field by field with the one-mode mode_layers
    at every mode, within 1e-14 relative, and each element's layer-3
    columns past its LAYER3_PARAMS are zero. The ring has a transformer,
    all three shunt kinds, a pair of parallel branches and rational
    apparatus on the impedance route."""
    net, modes = _stacked_case(case, request)
    refs = network_elements(net)
    if per_chunk is not None:
        monkeypatch.setattr(mai_core, "_CHUNK_BYTES", per_chunk * 64 * len(refs))
    stacked = list(mode_layers(net, modes))
    assert len(stacked) == len(modes) >= 7
    for mode, layers in zip(modes, stacked):
        (alone,) = mode_layers(net, [mode])
        for e, (kind, _) in enumerate(refs):
            assert not layers.layer3[e, len(mai_core.LAYER3_PARAMS[kind]):].any()
        for key in ("layer1_cauchy", "layer2", "layer1_enhanced", "layer3"):
            have, want = getattr(layers, key), getattr(alone, key)
            assert np.max(np.abs(have - want)) <= 1e-14 * np.max(np.abs(want)), (mode.lam, key)


def test_zero_resistance_line_takes_direct_route(request):
    net, modes = _kernel_case("zero_R_line", request)
    mode = modes[0]
    b = net.branches[0]
    split = split_branch(b.R, b.L, net.omega0, mode.lam)
    with pytest.raises(DegenerateSplitError):
        split_node_residues(dense_residue(mode), b.from_bus, b.to_bus, split.z1, split.z2)
    for param in ("L", "R"):
        direct = branch_parameter_sensitivity(net, 0, mode, param)
        row = element_layer_report(net, ("branch", 0), mode).layer3[0]
        batched = row[mai_core.LAYER3_PARAMS["branch"].index(param)]
        assert batched == pytest.approx(direct, rel=1e-12)


def test_layer3_inductance_prediction_on_resolve(three_bus_net, three_bus_modes):
    """Layer-3 prediction for a small L change matches the re-solved mode."""
    mode = three_bus_modes[2]
    b = three_bus_net.branches[0]
    s_rho = branch_parameter_sensitivity(three_bus_net, 0, mode, "L")
    d_rho = 1e-4 * b.L
    predicted = s_rho * d_rho
    perturbed = three_bus_net.with_branch(0, L=b.L + d_rho)
    eig = mass_oracle.eigendecompose(mass_oracle.interconnect(perturbed).A)
    gap = min(abs(a - b) for a, b in itertools.combinations(eig.eigenvalues, 2))
    lam_new = track_mode(mode.lam, [complex(v) for v in eig.eigenvalues], spacing=gap)
    v = validate_prediction(predicted, lam_new - mode.lam)
    assert v.error <= 1e-2


# ---------------------------------------------------------------------------
# MASS/MAI sensitivity equivalence for shared parameters
# ---------------------------------------------------------------------------


def test_mass_mai_equivalence_branch_R_L(three_bus_net, three_bus_modes):
    """d lambda / d rho for series R, L agrees between the impedance route
    and the state-space route (finite-differenced A(rho))."""
    ss = mass_oracle.interconnect(three_bus_net)
    eig = mass_oracle.eigendecompose(ss.A)
    b = three_bus_net.branches[0]
    for mode in three_bus_modes[:3]:
        i = int(np.argmin(np.abs(eig.eigenvalues - mode.lam)))
        for param, rho in (("L", b.L), ("R", b.R)):
            h = 1e-7 * rho
            Ap = mass_oracle.interconnect(three_bus_net.with_branch(0, **{param: rho + h})).A
            Am = mass_oracle.interconnect(three_bus_net.with_branch(0, **{param: rho - h})).A
            dA = (Ap - Am) / (2 * h)
            sens_ss = parameter_sensitivity_ss(eig, i, dA)
            sens_mai = branch_parameter_sensitivity(three_bus_net, 0, mode, param)
            assert abs(sens_ss - sens_mai) <= 1e-6 * abs(sens_ss)


# ---------------------------------------------------------------------------
# Validation records, tracking, sweeps
# ---------------------------------------------------------------------------


def test_validation_record_table_values():
    v1 = validate_prediction(-0.0741 + 0.2415j, -0.0621 + 0.2059j)
    assert abs(100 * v1.error - 14.854) <= 0.2
    v2 = validate_prediction(-0.0612 + 0.2129j, -0.0621 + 0.2059j)
    assert abs(100 * v2.error - 3.165) <= 0.2
    assert validate_prediction(0.5 + 0.5j, 0.5 + 0.5j).error == 0.0


def test_validation_zero_prediction_rejected():
    with pytest.raises(AnalysisError):
        validate_prediction(0.0, 1.0 + 0.0j)


def test_track_mode_nearest_and_error():
    mods = [-1 + 10j, -2 + 40j, -0.5 + 80j]
    gap = min(abs(a - b) for a, b in itertools.combinations(mods, 2))
    assert track_mode(-1.1 + 10.5j, mods, spacing=gap) == -1 + 10j
    with pytest.raises(TrackingError):
        track_mode(-1 + 25j, mods, spacing=gap)  # equidistant-ish, far beyond 0.3 * spacing
    assert track_mode(-1 + 25j, mods, spacing=np.inf) == -1 + 10j


def test_sweep_factor_one_fixed_point(three_bus_net):
    steps = parameter_sweep(three_bus_net, 0, "L", 1.0, 3)
    for st in steps:
        assert st.rho_before == st.rho_after
        assert st.predicted == st.lam_before
        assert st.actual == st.lam_before


def test_sweep_zero_steps(three_bus_net):
    assert parameter_sweep(three_bus_net, 0, "L", 0.8, 0) == []


def test_sweep_seven_steps_accuracy(three_bus_net):
    steps = parameter_sweep(three_bus_net, 0, "L", 0.8, 7)
    assert len(steps) == 7
    for st in steps:
        assert st.error <= 0.05
        d_pred = st.predicted - st.lam_before
        d_act = st.actual - st.lam_before
        assert (d_act * np.conj(d_pred)).real > 0


def test_sweep_tracks_seeded_mode(three_bus_net, three_bus_modes):
    seed = three_bus_modes[3].lam
    steps = parameter_sweep(three_bus_net, 1, "L", 0.95, 2, mode_seed=seed)
    assert abs(steps[0].lam_before - seed) < 1e-9


def test_sweep_gate_is_the_distance_to_the_nearest_other_mode():
    """Scaling the L of line 1-2 of a 10-bus ring by 1.02 per step moves the
    least-damped mode 0.148 at the first step: beyond 0.3 x the smallest
    spacing of all modes (0.342), but well inside 0.3 x the distance from
    the tracked mode to its nearest other one. Every step lands where a
    dense continuation of four eigendecompositions per step does."""
    net = _rl_ring(10, 9, "state_space")
    steps = parameter_sweep(net, 0, "L", 1.02, 10)
    assert len(steps) == 10
    continued = steps[0].lam_before
    for st in steps:
        for L in np.geomspace(st.rho_before, st.rho_after, 5)[1:]:
            eigenvalues = np.linalg.eigvals(mass_oracle.interconnect(net.with_branch(0, L=L)).A)
            continued = eigenvalues[np.argmin(np.abs(eigenvalues - continued))]
        assert abs(st.actual - continued) <= 1e-9 * abs(continued), st.step


def test_sweep_lc_mode_frequency_rises_as_inductance_falls(three_bus_net, three_bus_modes):
    """Reducing a line inductance raises the oscillation frequency of the
    modes resonating through it, monotonically at every step."""
    seed = three_bus_modes[2].lam  # LC resonance of the swept line
    steps = parameter_sweep(three_bus_net, 0, "L", 0.8, 7, mode_seed=seed)
    trace = [st.lam_before.imag for st in steps] + [steps[-1].actual.imag]
    assert all(b > a for a, b in zip(trace, trace[1:]))
    assert trace[-1] > 1.3 * trace[0]


def _resolved_sweep(net, branch_index, param, factor, n_steps, mode_seed=None):
    """A sweep that re-solves every step's network whole: ``solve_modes`` per
    step and ``track_mode`` gated at 0.3 x the distance from the tracked
    mode to its nearest other one. Returns the outcome's kind (``"ok"`` or
    the error's class) and, per completed step, (predicted, actual,
    resolved). A prediction is not resolved when the tracked mode's residue
    is at rounding level against the step's largest: it is noise on any
    route."""
    records = solve_modes(net)
    if mode_seed is None:
        current = max((r for r in records if r.lam.imag > 0), key=lambda r: r.lam.real)
    else:
        current = min(records, key=lambda r: abs(r.lam - mode_seed))
    steps = []
    for _ in range(n_steps):
        rho = getattr(net.branches[branch_index], param)
        shift = branch_parameter_sensitivity(net, branch_index, current, param) * (
            rho * (factor - 1.0))
        resolved = (np.linalg.norm(dense_residue(current))
                    > 1e-12 * max(np.linalg.norm(dense_residue(r)) for r in records))
        net = net.with_branch(branch_index, **{param: rho * factor})
        new = solve_modes(net)
        gap = mai_core._nearest_other_distance([r.lam for r in records], records.index(current))
        try:
            lam = track_mode(current.lam + shift, [r.lam for r in new], spacing=gap)
        except TrackingError:
            return "TrackingError", steps
        steps.append((current.lam + shift, lam, resolved))
        records, current = new, min(new, key=lambda r: abs(r.lam - lam))
    return "ok", steps


def _assert_sweep_matches(steps, kind, reference, tol):
    assert kind == "ok"
    assert len(steps) == len(reference)
    for st, (predicted, actual, resolved) in zip(steps, reference):
        assert abs(st.actual - actual) <= 1e-12 * abs(actual)
        shift = predicted - st.lam_before
        if resolved:
            assert abs(st.predicted - predicted) <= tol * abs(shift), st.step
        else:  # no prediction from a rounding residue
            assert np.isnan(st.error), st.step


@pytest.mark.parametrize("param, factor, n_steps", [("L", 0.8, 7), ("R", 1.5, 5),
                                                    ("L", 1.25, 5)])
@pytest.mark.parametrize("branch_index", [0, 1])
def test_sweep_matches_a_whole_re_solve_per_step(three_bus_net, three_bus_modes, branch_index,
                                                 param, factor, n_steps):
    """Every mode of three_bus, swept on line 1-2 and on transformer 2-3,
    ends as a whole re-solve per step does. After mode 1's first step of
    L x 1.25 on line 1-2 the tracked mode sits exactly on -20 + j w0, where
    A - lambda I is exactly singular and the mode is unobservable at the
    buses: its residue is rounding, so the next step predicts nothing."""
    for mode in three_bus_modes:
        kind, reference = _resolved_sweep(three_bus_net, branch_index, param, factor, n_steps,
                                          mode.lam)
        steps = parameter_sweep(three_bus_net, branch_index, param, factor, n_steps,
                                mode_seed=mode.lam)
        _assert_sweep_matches(steps, kind, reference, 1e-9)


def _ring_with_a_bus_without_capacitance():
    """A 6-bus ring whose bus 2 carries a resistor instead of a capacitor,
    so its voltage is eliminated and line 1-2's rows of B are not zero."""
    net = _rl_ring(6, 3, "state_space")
    shunts = tuple(ShuntElement(bus=2, kind="resistive", value=2.5)
                   if sh.bus == 2 and sh.kind == "capacitive" else sh for sh in net.shunts)
    return replace(net, shunts=shunts)


def test_sweep_of_a_branch_at_a_bus_without_capacitance():
    net = _ring_with_a_bus_without_capacitance()
    kind, reference = _resolved_sweep(net, 0, "L", 1.2, 4)
    _assert_sweep_matches(parameter_sweep(net, 0, "L", 1.2, 4), kind, reference, 1e-10)


@pytest.mark.parametrize("case, branch_index, param, factor", [
    ("three_bus", 0, "L", 0.8), ("three_bus", 1, "L", 1.25), ("three_bus", 1, "R", 1.5),
    ("ring", 0, "L", 1.2), ("ring", 0, "R", 0.7),
])
def test_sweep_rows_equal_a_rebuilt_network(case, branch_index, param, factor, request):
    """The rows the oracle route writes for each step leave A and B equal,
    bit for bit, to those of the step's network assembled anew."""
    net = (request.getfixturevalue("three_bus_net") if case == "three_bus"
           else _ring_with_a_bus_without_capacitance())
    route = mai_core._OracleSweep(net, branch_index, None)
    route.modes(net)
    for _ in range(4):
        rho = getattr(net.branches[branch_index], param)
        net = net.with_branch(branch_index, **{param: rho * factor})
        route.modes(net)
        model = mass_oracle.interconnect(net)
        assert np.array_equal(route.A, model.A)
        assert np.array_equal(route.B, model.B)


def _benchmark_ring(seed):
    """The 30-bus ring that the benchmark's oracle-sweep workload sweeps
    (perfbench/netgen.py), for ``seed``."""
    return generated_ring(30, seed)


def _sweep_outcome(net, *args, **kwargs):
    """``parameter_sweep(net, *args, **kwargs)``: its steps, or the
    AnalysisError it ends in."""
    try:
        return parameter_sweep(net, *args, **kwargs)
    except AnalysisError as exc:
        return exc


def _counted_sweep(net, *args, **kwargs):
    """The sweep's outcome and the calls it makes of ``Interconnection``,
    ``eigendecompose``, ``np.linalg.eigvals``, ``eigenvector_pair`` and
    ``EigenStructure.real_right``."""
    counts = {"assemble": 0, "eigendecompose": 0, "eigvals": 0, "eigenvector_pair": 0,
              "real_right": 0}

    def counting(name, f):
        def call(*a):
            counts[name] += 1
            return f(*a)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mass_oracle.Interconnection, "__init__",
                   counting("assemble", mass_oracle.Interconnection.__init__))
        mp.setattr(mass_oracle, "eigendecompose",
                   counting("eigendecompose", mass_oracle.eigendecompose))
        mp.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
        mp.setattr(mass_oracle, "eigenvector_pair",
                   counting("eigenvector_pair", mass_oracle.eigenvector_pair))
        mp.setattr(mass_oracle.EigenStructure, "real_right",
                   counting("real_right", mass_oracle.EigenStructure.real_right))
        return _sweep_outcome(net, *args, **kwargs), counts


def _dense_sweep(net, *args, **kwargs):
    """The sweep's outcome with every step's eigenvalues from a dense solve:
    the secular route refused at every step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mass_oracle, "swept_eigenvalues", lambda *a: None)
        return _sweep_outcome(net, *args, **kwargs)


@pytest.mark.parametrize("case", ["ring10", 0, 1, 2])
def test_oracle_sweep_assembles_and_eigendecomposes_once(case):
    """An oracle sweep assembles and eigendecomposes the network once, and
    reads the real columns Xr of that eigenbasis twice: once for its error
    bounds and once for every step's secular equations. No step takes a
    dense eigvals or an LU for its residue: on the 10-bus ring
    of seed 9 and on the benchmark's 30-bus rings of seeds 0-2 every step's
    spectrum is certified from the secular roots, and every residue comes
    from the secular vectors."""
    if case == "ring10":
        net, args = _rl_ring(10, 9, "state_space"), (0, "L", 1.02, 10)
    else:
        net, args = _benchmark_ring(case), (0, "L", 1.005, 10)
    steps, counts = _counted_sweep(net, *args)
    assert len(steps) == 10
    assert counts == {"assemble": 1, "eigendecompose": 1, "eigvals": 0, "eigenvector_pair": 0,
                      "real_right": 2}


def test_swept_eigenvalues_are_the_whole_spectrum_or_refused():
    """Line 1-2 of the 10-bus ring at R x 0.9 per step: the roots anchored
    by the secant predictor are every eigenvalue of the step's A, in exact
    conjugate pairs; at step 6, roots anchored where the last step's were
    land two on one eigenvalue (the line's own mode passes another on
    Im = w0), and the set is refused."""
    net = _rl_ring(10, 0, "state_space")
    system = mass_oracle.Interconnection(net)
    roots, motion, Xr = system.eig.eigenvalues, 0.0, system.eig.real_right()
    for k in range(1, 7):
        branch = net.with_branch(0, R=net.branches[0].R * 0.9 ** k).branches[0]
        [(rows, A_rows, _)] = system.element_rows([(("branch", 0), branch)])
        anchored_where_they_were = mass_oracle.swept_eigenvalues(system, rows, A_rows, roots, Xr)
        assert (anchored_where_they_were is None) == (k == 6), k
        found, _ = mass_oracle.swept_eigenvalues(system, rows, A_rows, roots + motion, Xr)
        dense = np.linalg.eigvals(_perturbed(system, (rows, A_rows)))
        dist = np.abs(found[:, None] - dense)
        assert np.all(np.min(dist, axis=0) <= 1e-12 * np.abs(dense)), k
        assert np.array_equal(np.sort(np.argmin(dist, axis=0)), np.arange(dense.size)), k
        assert np.array_equal(np.sort_complex(found), np.sort_complex(found.conj())), k
        roots, motion = found, found - roots


@pytest.mark.parametrize("moved", ["onto another's conjugate", "onto the real axis",
                                   "off the real axis"])
def test_a_root_on_a_conjugate_is_refused(moved, three_bus_net):
    """Line 1-2 at R x 0.9, with Newton's root of one pole of Im > 0 moved
    onto the conjugate of another's, or onto the real axis (its own
    conjugate), on the 10-bus ring, or with the root of a real pole moved
    1e-6 relative off the real axis, on three_bus with 2 real eigenvalues,
    and nothing else changed: the set is refused, as the all-roots solve
    refuses it."""
    net = (_three_bus_with_real_eigenvalues(three_bus_net) if moved == "off the real axis"
           else _rl_ring(10, 0, "state_space"))
    system = mass_oracle.Interconnection(net)
    branch = net.with_branch(0, R=net.branches[0].R * 0.9).branches[0]
    [(rows, A_rows, _)] = system.element_rows([(("branch", 0), branch)])
    anchors, Xr = system.eig.eigenvalues, system.eig.real_right()
    p, q = (np.flatnonzero(anchors.imag == 0) if moved == "off the real axis"
            else system.eig.pairs)[:2]
    newton = mass_oracle._SecularGrid.newton

    def moving(grid, start):
        mu, converged, last = newton(grid, start)
        at_p, at_q = np.searchsorted(grid.pole, [p, q])
        mu[0, at_p] = {"onto another's conjugate": mu[0, at_q].conj(),
                       "onto the real axis": mu[0, at_p].real,
                       "off the real axis": mu[0, at_p] * (1.0 + 1e-6j)}[moved]
        return mu, converged, last

    assert mass_oracle.swept_eigenvalues(system, rows, A_rows, anchors, Xr) is not None
    assert all_swept_roots(system, rows, A_rows, anchors) is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mass_oracle._SecularGrid, "newton", moving)
        assert mass_oracle.swept_eigenvalues(system, rows, A_rows, anchors, Xr) is None
        assert all_swept_roots(system, rows, A_rows, anchors) is None


@pytest.mark.parametrize("seed", range(3))
def test_swept_eigenvalues_solve_one_root_per_conjugate_pair(seed):
    """On the benchmark's 30-bus rings of seeds 0-2, each certified step's
    first secular evaluation covers exactly the 75 poles of Im >= 0 of the
    150, and its roots equal, bit for bit, those of Newton on all 150
    (``secular_reference.all_swept_roots``). The Xr that the sweep passes
    to every step is the eigenbasis's, bit for bit."""
    swept, evaluate = mass_oracle.swept_eigenvalues, mass_oracle._SecularGrid.evaluate
    first = []  # per step, the poles of its first evaluation

    def solve(system, rows, A_rows, anchors, real_right):
        first.append(None)
        assert same_bits(real_right, system.eig.real_right())
        found = swept(system, rows, A_rows, anchors, real_right)
        assert found is not None
        assert same_bits(found[0], all_swept_roots(system, rows, A_rows, anchors))
        return found

    def evaluate_first(grid, e, m, *args, **kwargs):
        if first and first[-1] is None:
            first[-1] = np.sort(grid.pole[m])
        return evaluate(grid, e, m, *args, **kwargs)

    net = _benchmark_ring(seed)
    lam = mass_oracle.Interconnection(net).eig.eigenvalues
    upper = np.flatnonzero(lam.imag >= 0)
    assert (upper.size, lam.size) == (75, 150)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mass_oracle, "swept_eigenvalues", solve)
        mp.setattr(mass_oracle._SecularGrid, "evaluate", evaluate_first)
        assert len(parameter_sweep(net, 0, "L", 1.005, 10)) == 10
    assert len(first) == 10
    assert all(np.array_equal(poles, upper) for poles in first)


def _three_bus_with_real_eigenvalues(three_bus_net):
    """three_bus with an overdamped 2-state apparatus at bus 2 (A =
    diag(-150, -90), B = C = I, theta = 0): 2 of its 16 eigenvalues are
    real."""
    model = network_model.StateSpaceRealization(A=np.diag([-150.0, -90.0]), B=np.eye(2),
                                                C=np.eye(2), D=np.zeros((2, 2)))
    return replace(three_bus_net, apparatus=three_bus_net.apparatus
                   + (network_model.ApparatusAttachment(bus=2, model=model, theta=0.0),))


@pytest.mark.parametrize("branch_index", [0, 1])
@pytest.mark.parametrize("param, factor", [("L", 1.1), ("L", 0.9), ("R", 0.8), ("R", 1.25)])
def test_a_sweep_with_real_eigenvalues_matches_the_dense_sweep(three_bus_net, branch_index,
                                                               param, factor):
    """three_bus with 2 real eigenvalues, each branch swept 6 steps: every
    step's spectrum is certified from the secular roots, the 2 real ones
    exactly real, with no dense step, and the sweep ends as the dense
    sweep does."""
    net = _three_bus_with_real_eigenvalues(three_bus_net)
    lam = mass_oracle.Interconnection(net).eig.eigenvalues
    assert (lam.size, np.count_nonzero(lam.imag == 0)) == (16, 2)
    swept, spectra = mass_oracle.swept_eigenvalues, []

    def solve(*args):
        found = swept(*args)
        spectra.append(found[0])
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mass_oracle, "swept_eigenvalues", solve)
        steps, counts = _counted_sweep(net, branch_index, param, factor, 6)
    assert len(steps) == 6
    assert counts == {"assemble": 1, "eigendecompose": 1, "eigvals": 0, "eigenvector_pair": 0,
                      "real_right": 2}
    assert [np.count_nonzero(found.imag == 0) for found in spectra] == [2] * 6
    _same_sweeps(steps, _dense_sweep(net, branch_index, param, factor, 6), 1e-12)


def _same_sweeps(first, second, tol):
    """Both the same outcome kind; ``actual`` within ``tol`` x |actual| and
    the same steps without a prediction."""
    assert type(first) is type(second)
    if isinstance(first, Exception):
        return
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert abs(a.actual - b.actual) <= tol * abs(b.actual), a.step
        assert np.isnan(a.error) == np.isnan(b.error), a.step


# both three_bus branches, L and R x 0.8, 1.1 and 1.25, from the default
# mode and from each of its 7 modes; line 1-2 of the generated rings
_DIFFERENTIAL_CASES = [
    (None, b, param, factor, 7, seed) for b, param, factor, seed in itertools.product(
        (0, 1), ("L", "R"), (0.8, 1.1, 1.25), (None, *range(7)))
] + [(n, 0, param, factor, 10, None) for n in (10, 22, 30)
     for param, factor in (("L", 1.05), ("R", 0.9))]


@pytest.mark.parametrize("ring, branch_index, param, factor, n_steps, mode", _DIFFERENTIAL_CASES)
def test_secular_sweep_matches_the_dense_sweep(ring, branch_index, param, factor, n_steps, mode,
                                               three_bus_net, three_bus_modes):
    """Both three_bus branches, L and R x 0.8, 1.1 and 1.25, from the
    default mode and from every mode, and line 1-2 of the 10-, 22- and
    30-bus rings at L x 1.05 and R x 0.9: the sweep ends as one that takes
    every step's spectrum from a dense solve does, step for step."""
    net = three_bus_net if ring is None else _rl_ring(ring, 0, "state_space")
    mode_seed = None if mode is None else three_bus_modes[mode].lam
    args = (net, branch_index, param, factor, n_steps)
    _same_sweeps(_sweep_outcome(*args, mode_seed=mode_seed),
                 _dense_sweep(*args, mode_seed=mode_seed), 1e-12)


def _residues_beside_the_lu(net, *args, **kwargs):
    """The sweep's outcome and, for each residue it forms at a step whose
    spectrum is not dense, that residue beside the one from the LU of
    ``eigenvector_pair`` (the dense step's), dense (None for rounding)."""
    record, pairs = mai_core._OracleSweep.record, []

    def residue(mode):
        return None if mode is None else dense_residue(mode)

    def beside_the_lu(route, k):
        got = record(route, k)
        if not route.dense:
            route.dense = True
            pairs.append((residue(got), residue(record(route, k))))
            route.dense = False
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mai_core._OracleSweep, "record", beside_the_lu)
        return _sweep_outcome(net, *args, **kwargs), pairs


@pytest.mark.parametrize("ring, branch_index, param, factor, n_steps, mode", _DIFFERENTIAL_CASES
                         + [(("benchmark", seed), 0, "L", 1.005, 10, None) for seed in range(3)])
def test_secular_residues_match_the_lu(ring, branch_index, param, factor, n_steps, mode,
                                       three_bus_net, three_bus_modes):
    """On the cases of the differential test and the benchmark's 30-bus
    rings of seeds 0-2, each step's residue from the first eigenbasis (step
    0) or the secular vectors (certified steps) is within 1e-11 relative
    of the LU's, and rounding at exactly the same steps: three_bus's
    default mode at step 1 of line 1-2's L x 1.25 and R x 0.8. A sweep
    that completes forms a residue for each of its steps and none after
    the last."""
    if ring is None:
        net = three_bus_net
    elif isinstance(ring, tuple):
        net = _benchmark_ring(ring[1])
    else:
        net = _rl_ring(ring, 0, "state_space")
    mode_seed = None if mode is None else three_bus_modes[mode].lam
    steps, pairs = _residues_beside_the_lu(net, branch_index, param, factor, n_steps,
                                           mode_seed=mode_seed)
    if not isinstance(steps, Exception):
        assert len(pairs) == n_steps
    rounding = [step for step, (_, lu) in enumerate(pairs) if lu is None]
    assert [step for step, (got, _) in enumerate(pairs) if got is None] == rounding
    if (ring, branch_index, mode, (param, factor)) in [(None, 0, None, ("L", 1.25)),
                                                       (None, 0, None, ("R", 0.8))]:
        assert rounding == [1]
    for got, lu in pairs:
        if lu is not None:
            assert np.linalg.norm(got - lu) <= 1e-11 * np.linalg.norm(lu)


def test_secular_vectors_on_another_pole_fall_back_to_the_lu(three_bus_net):
    """A root exactly on another pole of the first A makes the secular
    vectors divide by zero, and a pole of Im < 0 is no column of the
    step's grid: ``swept_eigenvector_pair`` gives None for both. With
    every certified step's residue asked at such a pole, or of the tracked
    root's conjugate at its pole, the sweep takes each from the LU instead
    (steps 1-6; step 0 reads the eigenbasis, and step 7's residue is read
    by no step), and predicts every step as the normal sweep does, no
    nan."""
    secular = mass_oracle.swept_eigenvector_pair

    def on_another_pole(grid, m, mu):
        others = np.delete(grid.lam, m)
        return secular(grid, m, others[np.argmin(np.abs(others - mu))])

    def on_no_column(grid, m, mu):
        assert grid.lam[m + 1] == grid.lam[m].conjugate() and m + 1 not in grid.pole
        return secular(grid, m + 1, mu.conjugate())

    normal = parameter_sweep(three_bus_net, 0, "L", 0.8, 7)
    for asked in (on_another_pole, on_no_column):
        def none_there(grid, m, mu):
            pair = asked(grid, m, mu)
            assert pair is None
            return pair

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mass_oracle, "swept_eigenvector_pair", none_there)
            steps, counts = _counted_sweep(three_bus_net, 0, "L", 0.8, 7)
        assert counts == {"assemble": 1, "eigendecompose": 1, "eigvals": 0,
                          "eigenvector_pair": 6, "real_right": 2}
        assert len(steps) == len(normal) == 7
        for st, ref in zip(steps, normal):
            assert np.isfinite(st.error) and st.actual == ref.actual
            assert abs(st.predicted - ref.predicted) <= 1e-9 * abs(ref.predicted - ref.lam_before)


def _symmetric_star():
    """Bus 1 with three identical arms, lines to buses 2, 3 and 4 each
    with the same capacitor and RL load: its arms' antisymmetric modes are
    double eigenvalues."""
    arms = (2, 3, 4)
    return NetworkDescription(
        n_buses=4, omega0=W0,
        branches=tuple(SeriesBranch(kind="line", from_bus=1, to_bus=b, R=0.04, L=0.002)
                       for b in arms),
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.001),
                ShuntElement(bus=1, kind="resistive", value=2.0),
                *(ShuntElement(bus=b, kind="capacitive", value=0.0008) for b in arms)),
        apparatus=tuple(network_model.ApparatusAttachment(
            bus=b, model=rl_load_apparatus(0.1, 0.005), theta=0.2) for b in arms),
    )


@pytest.mark.parametrize("mode_seed", [None, -98.64 + 725.04j])
def test_a_repeated_eigenvalue_takes_the_dense_spectrum(mode_seed):
    """Where A has double eigenvalues the secular roots are not certified
    (two poles coincide), so every step takes a dense eigvals, and the
    sweep ends as the dense sweep does: from the default mode, a double
    one, in a TrackingError at its zero spacing; from a simple one in 5
    steps, whose dense steps take the LU: for the residue of steps 1-4 and
    the conditioning check of step 5 (step 0 reads the eigenbasis)."""
    net = _symmetric_star()
    lam = mass_oracle.Interconnection(net).eig.eigenvalues
    gaps = np.abs(lam[:, None] - lam) + np.diag(np.full(lam.size, np.inf))
    assert gaps.min() <= 1e-12 * np.abs(lam).max()
    steps, counts = _counted_sweep(net, 0, "L", 1.1, 5, mode_seed=mode_seed)
    _same_sweeps(steps, _dense_sweep(net, 0, "L", 1.1, 5, mode_seed=mode_seed), 0.0)
    if mode_seed is None:
        assert isinstance(steps, TrackingError)
    else:
        assert len(steps) == 5 and counts["eigvals"] == 5 and counts["eigenvector_pair"] == 5


def test_a_defective_state_matrix_takes_the_dense_spectrum(three_bus_net):
    """An apparatus whose A is a Jordan block, with B = C = 0, leaves it in
    the network's A: eigendecompose raises DefectiveMatrixError, every step
    takes a dense eigvals and an LU (for the residue of steps 0-6 and the
    conditioning check of step 7), and the sweep completes on the rebuilt
    networks' eigenvalues."""
    jordan = network_model.StateSpaceRealization(A=[[-5.0, 1.0], [0.0, -5.0]], B=np.zeros((2, 2)),
                                                 C=np.zeros((2, 2)), D=np.zeros((2, 2)))
    net = replace(three_bus_net, apparatus=three_bus_net.apparatus
                  + (network_model.ApparatusAttachment(bus=2, model=jordan),))
    with pytest.raises(mass_oracle.DefectiveMatrixError):
        mass_oracle.Interconnection(net).eig
    steps, counts = _counted_sweep(net, 0, "L", 0.8, 7)
    assert len(steps) == 7
    assert counts == {"assemble": 1, "eigendecompose": 1, "eigvals": 8, "eigenvector_pair": 8,
                      "real_right": 0}
    for st in steps:
        net = net.with_branch(0, L=st.rho_after)
        eigenvalues = np.linalg.eigvals(mass_oracle.interconnect(net).A)
        assert np.min(np.abs(eigenvalues - st.actual)) <= 1e-12 * abs(st.actual)


@pytest.mark.parametrize("param, factor", [("L", 1.25), ("R", 0.8)])
def test_a_rounding_residue_predicts_nothing(three_bus_net, param, factor):
    """After the first step of line 1-2's L x 1.25 or R x 0.8, the default
    mode sits exactly on -20 + j w0, unobservable at the buses: its
    residue is rounding. Step 2 then predicts nothing (nan) and takes the
    mode nearest lambda, which is where a whole re-solve per step lands;
    every other step predicts."""
    steps = parameter_sweep(three_bus_net, 0, param, factor, 7)
    assert [st.step for st in steps if np.isnan(st.error)] == [2]
    assert np.isnan(steps[1].predicted.real) and np.isnan(steps[1].predicted.imag)
    assert abs(steps[1].lam_before - (-20 + 1j * W0)) <= 1e-12 * W0
    kind, reference = _resolved_sweep(three_bus_net, 0, param, factor, 7)
    _assert_sweep_matches(steps, kind, reference, 1e-9)
    assert [resolved for *_, resolved in reference].index(False) == 1


def test_the_impedance_route_flags_a_rounding_residue(three_bus_net):
    """The impedance route's rule: a residue at most 1e-12 x the largest
    of its step's is rounding."""
    route = mai_core._ResolvedSweep(None)
    lams = route.modes(three_bus_net.with_branch(0, L=three_bus_net.branches[0].L * 1.25))
    k = int(np.argmin(np.abs(lams - (-20 + 1j * W0))))
    assert route.record(k) is None
    assert all(route.record(j) is not None for j in range(lams.size) if j != k)


def test_impedance_route_sweep_follows_the_oracle_sweep_of_its_twin():
    """Without a state-space realization every step re-solves all modes
    from impedance data; the trajectory is the one the oracle route takes
    on the exact state-space twin."""
    oracle = parameter_sweep(_rl_ring(4, 1, "state_space"), 0, "L", 1.1, 3, band=BAND)
    impedance = parameter_sweep(_rl_ring(4, 1, "rational"), 0, "L", 1.1, 3, band=BAND)
    assert len(impedance) == len(oracle) == 3
    for a, b in zip(oracle, impedance):
        assert abs(b.actual - a.actual) <= 1e-9 * abs(a.actual)
        assert abs(b.predicted - a.predicted) <= 1e-6 * abs(a.predicted - a.lam_before)


# ---------------------------------------------------------------------------
# Frobenius convention
# ---------------------------------------------------------------------------


def test_frobenius_inner_conjugates_first_argument():
    X = np.array([[1j, 0.0], [0.0, 0.0]])
    Y = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert frobenius_inner(X, Y) == -1j
    assert frobenius_inner(Y, X) == 1j


def test_prediction_equals_trace_form(three_bus_modes):
    """<s, dy> with s = (dl/dy)^H reproduces tr((dl/dy) dy)."""
    rng = np.random.default_rng(31)
    s = residue_sensitivity(dense_residue(three_bus_modes[0]), 1, 2)
    dy = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.isclose(predict_mode_shift(s, dy), np.trace(s.conj().T @ dy))


# ---------------------------------------------------------------------------
# Impedance-path mode search: Loewner realization, census and recall
# ---------------------------------------------------------------------------

BAND = (5.0, 5000.0)


def _in_band_eigenvalues(net, band=BAND):
    ev = np.linalg.eigvals(mass_oracle.interconnect(net).A)
    return ev[(ev.imag > 0) & (ev.imag >= band[0]) & (ev.imag <= band[1])]


@pytest.mark.parametrize("case", ["three_bus", "random0", "random1", "random2",
                                  "random3", "random4"])
def test_loewner_rank_is_state_count_and_poles_match_eigenvalues(case, request):
    if case == "three_bus":
        net = request.getfixturevalue("three_bus_net")
    else:
        net = _random_rl_net(np.random.default_rng(int(case[-1])))
    poles, rank = rational_fit.loewner_poles(WholeSystemModel(net), BAND)
    assert rank == mass_oracle.interconnect(net).n_states
    for lam in _in_band_eigenvalues(net):
        assert np.min(np.abs(poles - lam)) <= 1e-8 * abs(lam)


def _measured_pair():
    """The shipped measured network with its order-16 surrogate, and its
    state-space twin: the series RL load (0.15 ohm, 4 mH) behind its samples."""
    path = Path(__file__).resolve().parents[1] / "networks" / "measured_two_bus.json"
    net = cli_reporting._load_network(str(path))
    app = net.apparatus[0]
    twin = replace(net, apparatus=(replace(app, model=rl_load_apparatus(0.15, 0.004)),))
    return cli_reporting._with_surrogates(net, 16), twin


@pytest.mark.parametrize("case, points", [("ring4", 51), ("measured", 51), ("ring20", 351)])
def test_loewner_ladder_stops_at_the_smallest_pencil_the_rank_allows(case, points):
    """The pencil starts at 50 points and doubles until the rank fills at
    most half of them. Rank 20 (4-bus ring) and rank 8 (measured network)
    take the off-axis probe and the 50-point pencil; rank 100 (20-bus ring)
    takes the probe and the 50-, 100- and 200-point pencils."""
    if case == "measured":
        net, twin = _measured_pair()
    else:
        n_buses, seed = (4, 1) if case == "ring4" else (20, 0)
        net, twin = _rl_ring(n_buses, seed, "rational"), _rl_ring(n_buses, seed, "state_space")
    model, seen = WholeSystemModel(net), []
    admittance = model.admittance
    model.admittance = lambda s: seen.append(np.size(s)) or admittance(s)
    _, rank = rational_fit.loewner_poles(model, BAND)
    assert rank == mass_oracle.interconnect(twin).n_states
    assert sum(seen) == points


def test_loewner_ladder_fails_past_its_last_pencil(three_bus_net, monkeypatch):
    """A rank that fills over half of the largest pencil is refused, naming
    the rank and that pencil's size."""
    monkeypatch.setattr(rational_fit, "_LOEWNER_POINTS", (8, 16))
    with pytest.raises(rational_fit.FitError,
                       match=re.escape("Loewner rank 14 fills more than half of 16 points")):
        rational_fit.loewner_poles(WholeSystemModel(three_bus_net), BAND)


def _resistive_bus_net():
    """Two buses joined by a line, bus 1 with a resistor but no capacitor:
    Z(inf) is that resistor's there, so the Loewner pencil has rank 6 for
    the 4 states and 2 infinite eigenvalues."""
    doc = {"n_buses": 2, "omega0": W0,
           "branches": [{"kind": "line", "from": 1, "to": 2, "R": 0.03, "L": 0.002}],
           "shunts": [{"bus": 1, "kind": "resistive", "value": 2.5},
                      {"bus": 2, "kind": "capacitive", "value": 1e-3}],
           "apparatus": []}
    return network_model.parse_network(json.dumps(doc))


def _loewner_cases():
    cases = [pytest.param(n, seed, id=f"ring{n}-{seed}")
             for n in (3, 4, 6, 10, 20) for seed in (0, 1, 2)]
    cases += [pytest.param("measured", order, id=f"measured-{order}") for order in (8, 12, 16)]
    return cases + [pytest.param("resistive_bus", None, id="infinite-poles")]


@pytest.mark.parametrize("case, seed", _loewner_cases())
def test_loewner_poles_agree_with_the_qz_reference(case, seed):
    """The shift-inverted standard eigenproblem gives the poles that QZ on
    the projected pencil gave (``loewner_reference.loewner_poles``): the
    same rank, as many finite poles and as many mode-search seeds (Im >= 0,
    |Im| within 0.5 w_lo and 1.5 w_hi), each seed within 1e-11 |p| of one
    of the reference's. Generated rational rings of 3-20 buses, the
    measured network's surrogate at orders 8, 12 and 16, and a Z with a
    direct term, whose pencil's infinite eigenvalues both drop."""
    if case == "measured":
        path = Path(__file__).resolve().parents[1] / "networks" / "measured_two_bus.json"
        net = cli_reporting._with_surrogates(cli_reporting._load_network(str(path)), seed)
    elif case == "resistive_bus":
        net = _resistive_bus_net()
    else:
        net = generated_ring(case, seed, apparatus="rational")
    poles, rank = rational_fit.loewner_poles(WholeSystemModel(net), BAND)
    want, want_rank = loewner_reference.loewner_poles(WholeSystemModel(net), BAND)
    assert rank == want_rank
    if case == "resistive_bus":
        assert (rank, want.size) == (6, 4)
    assert poles.size == want.size

    def seeds(p):
        return p[(p.imag >= 0) & (BAND[0] * 0.5 <= abs(p.imag)) & (abs(p.imag) <= BAND[1] * 1.5)]

    got, ref = seeds(poles), seeds(want)
    assert got.size == ref.size > 0
    for p in got:
        assert np.min(np.abs(ref - p)) <= 1e-11 * abs(p), p


def _rl_ring(n_buses, seed, apparatus):
    """Ring of n buses: lines i -> i+1 and n -> 1, a capacitor on every bus,
    a resistor on every third and a series RL load on every odd bus, given
    as a state-space model or as its exact rational twin."""
    rng = np.random.default_rng(seed)
    pairs = [(i, i + 1) for i in range(1, n_buses)] + [(1, n_buses)]
    branches = [{"kind": "line", "from": i, "to": j, "R": rng.uniform(0.02, 0.05),
                 "L": rng.uniform(0.001, 0.003)} for i, j in pairs]
    shunts = [{"bus": b, "kind": "capacitive", "value": rng.uniform(5e-4, 1.5e-3)}
              for b in range(1, n_buses + 1)]
    shunts += [{"bus": b, "kind": "resistive", "value": rng.uniform(2.0, 3.0)}
               for b in range(3, n_buses + 1, 3)]
    apps = []
    for b in range(1, n_buses + 1, 2):
        Ra, La = rng.uniform(0.1, 0.2), rng.uniform(0.005, 0.01)
        if apparatus == "state_space":
            model = {"kind": "state_space", "A": [[-Ra / La, W0], [-W0, -Ra / La]],
                     "B": [[1 / La, 0.0], [0.0, 1 / La]], "C": [[1.0, 0.0], [0.0, 1.0]],
                     "D": [[0.0, 0.0], [0.0, 0.0]]}
        else:
            den = [La * La, 2 * Ra * La, Ra * Ra + (W0 * La) ** 2]
            model = {"kind": "rational", "entries": [
                [{"num": [La, Ra], "den": den}, {"num": [W0 * La], "den": den}],
                [{"num": [-W0 * La], "den": den}, {"num": [La, Ra], "den": den}]]}
        apps.append({"bus": b, "theta": 0.1, "model": model})
    doc = {"n_buses": n_buses, "omega0": W0, "branches": branches, "shunts": shunts,
           "apparatus": apps}
    return network_model.parse_network(json.dumps(doc))


@pytest.mark.parametrize("seed", [0, 3])
def test_impedance_residues_match_the_state_space_twin(seed):
    """Residues from Y around the modes of a 20-bus rational ring equal
    those of its state-space twin, relative Frobenius error within 2e-6 in
    the cluster at Im lambda = w0 (modes 0.1 apart, where a wide stencil
    step reaches the neighbours) and within 1e-8 elsewhere."""
    twin = solve_modes(_rl_ring(20, seed, "state_space"), band=BAND)
    model = WholeSystemModel(_rl_ring(20, seed, "rational"))
    got = rational_fit.admittance_residues(model.admittance, [r.lam for r in twin], model.dim)
    assert any(abs(r.lam.imag - W0) < 1.0 for r in twin)
    for rec, (u, v, denom) in zip(twin, got):
        want = dense_residue(rec)
        err = np.linalg.norm(np.outer(u, v) / denom - want) / np.linalg.norm(want)
        assert err <= (2e-6 if abs(rec.lam.imag - W0) < 1.0 else 1e-8), (rec.lam, err)


def test_impedance_path_recalls_every_mode_of_a_20_bus_ring():
    """The 50 in-band modes of a 20-bus ring of rational RL loads include a
    cluster at Im lambda = w0, where vector-fit seeds used to merge into
    neighbours (41 of 50 found); the realization finds them all."""
    reference = _in_band_eigenvalues(_rl_ring(20, 0, "state_space"))
    assert reference.size == 50
    records = solve_modes(_rl_ring(20, 0, "rational"), band=BAND)
    assert len(records) == 50
    for lam in reference:
        assert min(abs(r.lam - lam) for r in records) <= 1e-8 * abs(lam)


@pytest.mark.parametrize("n_buses, seed", [(3, 0), (4, 1), (5, 2)])
def test_impedance_path_modes_are_polished_roots(n_buses, seed):
    """Every impedance-path mode of a ring of rational RL loads lies within
    1e-13 |lambda| of its state-space twin's eigenvalue (the first iterate
    under tolerance lay up to 5.5e-12 off). Seeds 1e-3 |lambda| off in
    either direction refine to it within the same bound, away from the
    cluster at Im lambda = w0, where such seeds may reach another mode."""
    reference = _in_band_eigenvalues(_rl_ring(n_buses, seed, "state_space"))
    net = _rl_ring(n_buses, seed, "rational")
    model = WholeSystemModel(net)
    records = solve_modes(net, band=BAND)
    assert len(records) == reference.size
    for rec in records:
        assert np.min(np.abs(reference - rec.lam)) <= 1e-13 * abs(rec.lam)
        if abs(rec.lam.imag - W0) > 1.0:
            seeds = [rec.lam * (1 + 1e-3), rec.lam * (1 - 1e-3j)]
            for root in rational_fit.refine_modes(lambda s, rows: model.admittance(s), seeds):
                assert abs(root - rec.lam) <= 1e-13 * abs(rec.lam), rec.lam


@pytest.mark.parametrize("n_buses, seed", [(4, 1), (5, 2)])
def test_route_twins_list_their_modes_in_one_order(n_buses, seed):
    """Both routes sort modes at one frequency (the cluster at
    Im lambda = w0) by real part, so mode k of the state-space twin is mode
    k of the impedance path. Sorted by exact (Im, Re), the oracle's order
    there followed the last bits of ``eig``."""
    exact = solve_modes(_rl_ring(n_buses, seed, "state_space"), band=BAND)
    records = solve_modes(_rl_ring(n_buses, seed, "rational"), band=BAND)
    assert len(records) == len(exact)
    for rec, want in zip(records, exact):
        assert abs(rec.lam - want.lam) <= 1e-13 * abs(want.lam)


@pytest.mark.parametrize("case", ["three_bus", "ring"])
def test_impedance_path_residues_match_the_state_space_twin(three_bus_net, case):
    net, twin = three_bus_net, three_bus_net
    if case == "ring":
        net, twin = _rl_ring(4, 1, "rational"), _rl_ring(4, 1, "state_space")
    records = solve_modes(net, band=BAND, method="impedance")
    exact = solve_modes(twin, band=BAND, method="state_space")
    assert len(records) == len(exact)
    for rec in records:
        want = dense_residue(min(exact, key=lambda m: abs(m.lam - rec.lam)))
        assert np.linalg.norm(dense_residue(rec) - want) <= 1e-6 * np.linalg.norm(want), rec.lam


def test_impedance_path_residues_take_one_admittance_call(three_bus_net, monkeypatch):
    """Every mode's residue comes from one stacked evaluation of Y at
    lambda, lambda +- h and lambda +- 2h: one call with five points per
    mode, not five calls per mode."""
    calls, inside = [], []
    admittance, residues = WholeSystemModel.admittance, rational_fit.admittance_residues

    def counting(self, s):
        if inside:
            calls.append(np.size(s))
        return admittance(self, s)

    def flagged(*args, **kwargs):
        inside.append(True)
        try:
            return residues(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(WholeSystemModel, "admittance", counting)
    monkeypatch.setattr(rational_fit, "admittance_residues", flagged)
    records = solve_modes(three_bus_net, band=BAND, method="impedance")
    assert calls == [5 * len(records)]


def _drop_one_mode(monkeypatch):
    """Make find_modes lose its middle mode; returns the list it went to."""
    find_modes, dropped = rational_fit.find_modes, []

    def losing(Yfun, seeds):
        modes = find_modes(Yfun, seeds)
        dropped.append(modes.pop(len(modes) // 2))
        return modes

    monkeypatch.setattr(rational_fit, "find_modes", losing)
    return dropped


def test_census_names_the_realized_pole_left_without_a_mode(three_bus_net, monkeypatch):
    dropped = _drop_one_mode(monkeypatch)
    with pytest.raises(AnalysisError, match="realized pole") as exc:
        solve_modes(three_bus_net, band=BAND, method="impedance")
    named = complex(re.search(r"pole (\([^)]*\))", str(exc.value)).group(1))
    assert abs(named - dropped[0]) <= 1e-8 * abs(dropped[0])


def test_census_failure_exits_numerical_with_json_error(tmp_path, monkeypatch, capsys):
    _drop_one_mode(monkeypatch)
    measured = Path(__file__).resolve().parents[1] / "networks" / "measured_two_bus.json"
    code = cli_reporting.main(["analyze", str(measured), "--band", "5:5000", "--order", "12",
                               "--out", str(tmp_path)])
    assert code == cli_reporting.EXIT_NUMERICAL
    report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert report["error"] == "numerical"
    assert report["type"] == "AnalysisError"
    assert "realized pole" in report["message"]


def test_model_without_off_axis_values_fails_before_the_realization():
    """Raw sampled apparatus are defined on the jw axis only, where Newton
    cannot refine: the search stops at once with that reason instead of
    growing the Loewner pencil on interpolated data."""
    path = Path(__file__).resolve().parents[1] / "networks" / "measured_two_bus.json"
    net = network_model.parse_network(path.read_text(), base_dir=str(path.parent))
    with pytest.raises(EvaluationError, match="imaginary axis"):
        solve_modes(net, band=BAND, method="impedance")
