"""Sampling, vector fitting, mode refinement and residue extraction."""

import numpy as np
import pytest

from impedmodal import rational_fit
from impedmodal.admittance_assembly import WholeSystemModel
from impedmodal.mass_oracle import _solve_each, interconnect
from impedmodal.network_model import (
    NetworkFormatError,
    SampledResponse,
    read_response_csv,
    write_response_csv,
)
from impedmodal.rational_fit import (
    FitError,
    RationalModel,
    RefinementError,
    admittance_residue,
    critical_resonance_mode,
    find_modes,
    frequency_grid,
    initial_poles,
    refine_mode,
    refine_modes,
    sample_response,
    vector_fit,
)
from impedmodal.rational_fit import (
    _BATCH_BYTES,
    _canonical_poles,
    _design_matrix,
    _relocate_poles,
    _stack_real,
    fit_residues,
)

from conftest import W0, rl_shunt_admittance, rl_shunt_impedance
from paper_reference import resolvent_residue

RC_MODE = complex(-10.0, W0)  # mode of the parallel-RC bus benchmark


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_capacitive_shunt_analytic(rc_bus_net):
    from impedmodal.network_model import NetworkDescription, ShuntElement

    net = NetworkDescription(
        n_buses=1, omega0=W0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
    )
    model = WholeSystemModel(net)
    grid = np.array([40.0, 90.0, 500.0])
    samples = sample_response(model, grid)
    for w, Z in zip(samples.frequencies, samples.blocks):
        y = 0.01 * np.array([[1j * w, -W0], [W0, 1j * w]])
        assert np.allclose(Z, np.linalg.inv(y))


def test_sample_single_point(rc_bus_net):
    samples = sample_response(WholeSystemModel(rc_bus_net), [75.0])
    assert samples.frequencies.shape == (1,)
    assert samples.blocks.shape == (1, 2, 2)


def test_sample_at_exact_resonance_fails():
    """A lossless LC bus is singular at its resonance frequency."""
    from impedmodal.admittance_assembly import SingularSystemError
    from impedmodal.network_model import NetworkDescription, ShuntElement

    net = NetworkDescription(
        n_buses=1, omega0=0.0,
        shunts=(
            ShuntElement(bus=1, kind="capacitive", value=0.01),
            ShuntElement(bus=1, kind="inductive", value=1.0),
        ),
    )
    w_res = 1.0 / np.sqrt(0.01 * 1.0)
    with pytest.raises(SingularSystemError):
        sample_response(WholeSystemModel(net), [w_res])


def test_sample_grid_must_increase(rc_bus_net):
    with pytest.raises(FitError, match="strictly increasing"):
        sample_response(WholeSystemModel(rc_bus_net), [10.0, 5.0])


def test_sample_evaluates_the_grid_in_one_call(three_bus_net):
    class Counting(WholeSystemModel):
        calls = 0

        def impedance(self, s):
            Counting.calls += 1
            return super().impedance(s)

    grid = np.geomspace(5.0, 5000.0, 50)
    samples = sample_response(Counting(three_bus_net), grid)
    assert Counting.calls == 1
    model = WholeSystemModel(three_bus_net)
    by_point = sample_response(lambda s: model.impedance(s), grid)  # a bare callable
    assert np.array_equal(samples.blocks, by_point.blocks)


# ---------------------------------------------------------------------------
# Vector fitting
# ---------------------------------------------------------------------------


def test_fit_scalar_single_pole():
    w = np.geomspace(0.1, 100.0, 120)
    vals = (1.0 / (1j * w + 10.0)).reshape(-1, 1, 1)
    model = vector_fit(SampledResponse(frequencies=w, blocks=vals), order=2, n_iterations=12)
    k = int(np.argmin(np.abs(model.poles + 10.0)))
    assert abs(model.poles[k] + 10.0) <= 1e-6 * 10.0
    assert abs(model.residues[k][0, 0] - 1.0) <= 1e-6
    assert model.rms_rel_error <= 1e-10


def test_fit_rl_shunt_admittance_recovers_modes():
    grid = frequency_grid(1.0, 1e4, 240)
    vals = np.array([rl_shunt_admittance(1j * w) for w in grid])
    model = vector_fit(SampledResponse(frequencies=grid, blocks=vals), order=4, n_iterations=12)
    target = complex(-10.0, W0)
    k = int(np.argmin(np.abs(model.poles - target)))
    assert abs(model.poles[k] - target) <= 1e-3 * abs(target)
    assert model.rms_rel_error <= 1e-4
    assert model.max_rel_deviation <= 1e-4


def test_fit_underfit_warns():
    grid = frequency_grid(1.0, 1e4, 200)
    vals = np.array([rl_shunt_admittance(1j * w) for w in grid])
    model = vector_fit(SampledResponse(frequencies=grid, blocks=vals), order=1, n_iterations=8)
    assert model.warning is not None
    assert model.max_rel_deviation > 1e-4


def _synthetic_response(omegas, dim, n_pairs, seed):
    """Samples of sum_k R_k/(s - p_k) + conj, plus a constant, with known
    stable poles spread over the band and random residue matrices."""
    rng = np.random.default_rng(seed)
    w = np.geomspace(omegas[0] * 1.5, omegas[-1] / 1.5, n_pairs)
    poles = -w * rng.uniform(0.02, 0.2, n_pairs) + 1j * w
    res = rng.normal(size=(n_pairs, dim, dim)) + 1j * rng.normal(size=(n_pairs, dim, dim))
    res *= w[:, None, None]
    s = 1j * omegas[:, None]
    values = (np.einsum("mk,kij->mij", 1.0 / (s - poles), res)
              + np.einsum("mk,kij->mij", 1.0 / (s - poles.conj()), res.conj()))
    values += rng.normal(size=(dim, dim))
    return SampledResponse(frequencies=omegas, blocks=values)


def _uncompressed_relocation(s, F, poles):
    """One pole-relocation step solved from the full stacked least squares
    over all responses (no per-response compression), for reference."""
    M, n_resp = F.shape
    N = poles.size
    cidx = _walk_pairs(poles)
    A = _design_matrix(s, poles)
    Q1, _ = np.linalg.qr(np.vstack([A.real, A.imag]))
    AA = np.zeros((n_resp * 2 * M, N))
    bb = np.zeros(n_resp * 2 * M)
    for c in range(n_resp):
        A_sigma = -A[:, :N] * F[:, c][:, None]
        A_sigma = np.vstack([A_sigma.real, A_sigma.imag])
        b = np.concatenate([F[:, c].real, F[:, c].imag])
        rows = slice(c * 2 * M, (c + 1) * 2 * M)
        AA[rows] = A_sigma - Q1 @ (Q1.T @ A_sigma)
        bb[rows] = b - Q1 @ (Q1.T @ b)
    scale = np.linalg.norm(AA, axis=0)
    x, *_ = np.linalg.lstsq(AA / scale, bb, rcond=None)
    c_sigma = x / scale
    # zeros of sigma: eigenvalues of the pole matrix less b c_sigma^T, in the
    # real pair basis
    H = np.zeros((N, N))
    bvec = np.zeros(N)
    for k in range(N):
        if cidx[k] == 0:
            H[k, k], bvec[k] = poles[k].real, 1.0
        elif cidx[k] == 1:
            H[k:k + 2, k:k + 2] = [[poles[k].real, poles[k].imag],
                                   [-poles[k].imag, poles[k].real]]
            bvec[k] = 2.0
    return _canonical_poles(np.linalg.eigvals(H - np.outer(bvec, c_sigma)))


def _walk_pairs(poles):
    """0 = real pole, 1 = first of a conjugate pair, 2 = second: the pairs
    found by walking the poles with a tolerance, as the fit once did."""
    cidx = np.zeros(poles.size, dtype=int)
    k = 0
    while k < poles.size:
        if abs(poles[k].imag) > 1e-12 * (1.0 + abs(poles[k])):
            cidx[k], cidx[k + 1] = 1, 2
            k += 2
        else:
            k += 1
    return cidx


def _walked_design_matrix(s, poles):
    """The design matrix built column by column from :func:`_walk_pairs`."""
    cidx = _walk_pairs(poles)
    Dk = np.zeros((s.size, poles.size), dtype=complex)
    for k in range(poles.size):
        if cidx[k] == 0:
            Dk[:, k] = 1.0 / (s - poles[k])
        elif cidx[k] == 1:
            Dk[:, k] = 1.0 / (s - poles[k]) + 1.0 / (s - np.conj(poles[k]))
            Dk[:, k + 1] = 1j / (s - poles[k]) - 1j / (s - np.conj(poles[k]))
    return np.column_stack([Dk, np.ones_like(s), s])


def _walked_relocation(s, F, poles):
    """:func:`_relocate_poles` with the pairs walked: the same compressed
    solve, the companion matrix built pair by pair."""
    M, n_resp = F.shape
    N = poles.size
    cidx = _walk_pairs(poles)
    A_local = _walked_design_matrix(s, poles)
    Q1, _ = np.linalg.qr(_stack_real(A_local), mode="reduced")
    neg_DkT = np.ascontiguousarray(-A_local[:, :N].T)
    R = np.empty((n_resp, N + 1, N + 1))
    batch = max(1, _BATCH_BYTES // (2 * M * (N + 1) * 8))
    for start in range(0, n_resp, batch):
        Ft = np.ascontiguousarray(F[:, start:start + batch].T)
        A_sigma = neg_DkT * Ft[:, None, :]
        block = np.empty((Ft.shape[0], N + 1, 2 * M))
        block[:, :N, :M], block[:, :N, M:] = A_sigma.real, A_sigma.imag
        block[:, N, :M], block[:, N, M:] = Ft.real, Ft.imag
        block -= (block @ Q1) @ Q1.T
        R[start:start + batch] = np.linalg.qr(block.transpose(0, 2, 1), mode="r")
    RA = R[:, :, :N].reshape(-1, N)
    scale = np.linalg.norm(RA, axis=0)
    scale[scale == 0] = 1.0
    x, *_ = np.linalg.lstsq(RA / scale, R[:, :, N].reshape(-1),
                            rcond=np.finfo(float).eps * (2 * M * n_resp))
    c_sigma = x / scale
    H = np.zeros((N, N))
    bvec = np.zeros(N)
    k = 0
    while k < N:
        if cidx[k] == 1:
            sr, si = poles[k].real, poles[k].imag
            H[k, k] = H[k + 1, k + 1] = sr
            H[k, k + 1] = si
            H[k + 1, k] = -si
            bvec[k] = 2.0
            k += 2
        else:
            H[k, k] = poles[k].real
            bvec[k] = 1.0
            k += 1
    H -= np.outer(bvec, c_sigma)
    return _canonical_poles(np.linalg.eigvals(H))


def _walked_residues(samples, poles):
    """Residues, constant and linear term of :func:`fit_residues`, unpacked
    pair by pair from :func:`_walk_pairs`."""
    s = 1j * samples.frequencies
    N, dim = poles.size, samples.dim
    A_r = _stack_real(_walked_design_matrix(s, poles))
    scale = np.linalg.norm(A_r, axis=0)
    scale[scale == 0] = 1.0
    F = samples.blocks.reshape(s.size, dim * dim)
    X, *_ = np.linalg.lstsq(A_r / scale, np.vstack([F.real, F.imag]), rcond=None)
    X = X / scale[:, None]
    cidx = _walk_pairs(poles)
    residues = np.zeros((N, dim * dim), dtype=complex)
    k = 0
    while k < N:
        if cidx[k] == 1:
            residues[k] = X[k] + 1j * X[k + 1]
            residues[k + 1] = X[k] - 1j * X[k + 1]
            k += 2
        else:
            residues[k] = X[k]
            k += 1
    return (residues.reshape(N, dim, dim), X[N].astype(complex).reshape(dim, dim),
            X[N + 1].astype(complex).reshape(dim, dim))


def test_pole_layout_read_from_the_canonical_order_keeps_the_walked_bits():
    """On an order-9 canonical set (one real pole, four pairs), the design
    matrix, the residue fit and one relocation step read the pairs as the
    slices after the real poles, bit for bit as walking them did."""
    omegas = np.geomspace(5.0, 5000.0, 300)
    samples = _synthetic_response(omegas, dim=3, n_pairs=4, seed=7)
    s = 1j * omegas
    F = samples.blocks.reshape(omegas.size, -1)
    poles = _canonical_poles(initial_poles(omegas[0], omegas[-1], 9))
    assert list(_walk_pairs(poles)) == [0, 1, 2, 1, 2, 1, 2, 1, 2]
    assert np.array_equal(_design_matrix(s, poles), _walked_design_matrix(s, poles))
    for got, want in zip(fit_residues(samples, poles), _walked_residues(samples, poles)):
        assert np.array_equal(got, want)
    relocated = _relocate_poles(s, F, poles)
    assert np.array_equal(relocated, _walked_relocation(s, F, poles))
    assert np.count_nonzero(relocated.imag == 0) >= 1  # the relocated set keeps a real pole


def test_compressed_relocation_matches_uncompressed_step():
    omegas = np.geomspace(5.0, 5000.0, 300)
    samples = _synthetic_response(omegas, dim=3, n_pairs=4, seed=7)
    s = 1j * omegas
    F = samples.blocks.reshape(omegas.size, -1)
    poles = _canonical_poles(initial_poles(omegas[0], omegas[-1], 9))
    new = _relocate_poles(s, F, poles)
    ref = _uncompressed_relocation(s, F, poles)
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref) / np.abs(ref)) <= 1e-8


def test_relocation_memory_is_bounded_for_many_responses():
    """A 20x20 response (400 entries) on 600 points at order 40: the stacked
    uncompressed relocation matrix alone would take 400 * 1200 * 40 * 8 B,
    about 150 MiB."""
    import tracemalloc

    omegas = np.geomspace(5.0, 5000.0, 600)
    samples = _synthetic_response(omegas, dim=20, n_pairs=20, seed=3)
    tracemalloc.start()
    try:
        model = vector_fit(samples, order=40, n_iterations=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert model.max_rel_deviation < 1e-6


def test_fit_needs_enough_samples():
    with pytest.raises(FitError, match="samples"):
        vector_fit(
            SampledResponse(frequencies=np.array([1.0, 2.0]), blocks=np.zeros((2, 1, 1))),
            order=4,
        )


def test_fit_conjugate_symmetry():
    """Real-coefficient data yields conjugate pole/residue pairs, and the
    enforced pairing leaves the reconstruction unchanged."""
    grid = frequency_grid(1.0, 1e4, 200)
    vals = np.array([rl_shunt_admittance(1j * w) for w in grid])
    model = vector_fit(SampledResponse(frequencies=grid, blocks=vals), order=4, n_iterations=10)
    cplx = [p for p in model.poles if p.imag != 0]
    for k in range(0, len(cplx), 2):
        assert cplx[k + 1] == np.conj(cplx[k])
    for k, p in enumerate(model.poles):
        partners = [m for m, q in enumerate(model.poles) if q == np.conj(p)]
        assert partners, "missing conjugate partner"
        m = partners[0]
        assert np.allclose(model.residues[m], np.conj(model.residues[k]), atol=1e-12)
    # reconstruction at a sample stays within the fit error after pairing
    s0 = 1j * grid[57]
    rel = np.linalg.norm(model.evaluate(s0) - vals[57]) / np.linalg.norm(vals[57])
    assert rel <= 1e-10


def test_fit_whole_system_quality_gate(three_bus_net):
    """On self-generated responses, sufficient order reaches 1e-4 deviation."""
    model = WholeSystemModel(three_bus_net)
    samples = sample_response(model, frequency_grid(5.0, 5e3, 320))
    fit = vector_fit(samples, order=18, n_iterations=12)
    assert fit.max_rel_deviation <= 1e-4
    assert fit.warning is None


def test_initial_poles_layout():
    poles = initial_poles(1.0, 1e3, 6)
    assert poles.size == 6
    pos = poles[poles.imag > 0]
    assert np.all(pos.real == -pos.imag / 100.0)
    assert np.all(np.diff(pos.imag) > 0)


# ---------------------------------------------------------------------------
# Mode refinement
# ---------------------------------------------------------------------------


def test_refine_mode_rl_shunt_impedance_zero():
    lam = refine_mode(rl_shunt_impedance, seed=-8.0 + 300.0j)
    assert abs(lam - RC_MODE) <= 1e-8 * abs(RC_MODE)


def test_refine_mode_on_whole_system(rc_bus_net):
    model = WholeSystemModel(rc_bus_net)
    lam = refine_mode(model.admittance, seed=-8.0 + 300.0j)
    assert abs(lam - RC_MODE) <= 1e-8 * abs(RC_MODE)


def test_refine_mode_immediate_convergence(rc_bus_net):
    model = WholeSystemModel(rc_bus_net)
    lam0 = refine_mode(model.admittance, seed=-8.0 + 300.0j)
    lam1 = refine_mode(model.admittance, seed=lam0)
    assert lam1 == lam0


def test_refine_mode_divergence():
    # constant nonsingular response: no zeros anywhere
    flat = lambda s: np.diag([2.0 + 0.0j, 3.0 + 0.0j])
    with pytest.raises(RefinementError):
        refine_mode(flat, seed=0.0 + 0.0j)


def test_refine_modes_gives_each_seed_its_bits_alone_in_bounded_batches(two_bus_net,
                                                                        monkeypatch):
    """Seeds refined together, two to a batch (the _BATCH_BYTES of Y of two
    seeds), end on the same bits as each seed refined alone, and no call
    of the evaluator holds more than _BATCH_BYTES of Y."""
    from impedmodal.mass_oracle import eigendecompose

    model = WholeSystemModel(two_bus_net)
    eig = eigendecompose(interconnect(two_bus_net).A)
    seeds = [complex(lam) * 1.02 + 5.0 for lam in eig.eigenvalues if lam.imag > 0]
    assert len(seeds) == 3
    alone = [refine_mode(model.admittance, seed) for seed in seeds]
    points = []

    def Yfun(s, rows):
        points.append(len(s))
        return model.admittance(s)

    monkeypatch.setattr(rational_fit, "_BATCH_BYTES", 2 * 48 * model.dim**2)
    assert refine_modes(Yfun, seeds, model.dim) == alone
    assert max(points) * 16 * model.dim**2 <= rational_fit._BATCH_BYTES


def test_refine_modes_keeps_each_failure_with_its_seed():
    """A seed whose Y has no zero ends in its own RefinementError, and one
    whose evaluation raises ends in that error; the other seeds of the
    batch converge as they do alone."""
    a, b = complex(-5.0, 300.0), complex(-3.0, 200.0)

    def Y(s):
        return np.diag([s - a, s - b])

    def Yfun(s, rows):
        if np.any(rows == 2):
            raise ValueError("seed 2 cannot be evaluated")
        out = np.array([Y(x) for x in s])
        out[rows == 1] = np.diag([2.0, 3.0])
        return out

    seeds = [a + 1.0, b - 1.0, a, b + 0.5j]
    got = refine_modes(Yfun, seeds)
    assert got[0] == refine_mode(Y, seeds[0])
    assert isinstance(got[1], RefinementError)
    assert isinstance(got[2], ValueError)
    assert got[3] == refine_mode(Y, seeds[3])


def _singular_at(a, b):
    """Y(s) = [[s - a, 1], [0, s - b]]: at s = a its LU meets a zero pivot."""
    return lambda s: np.array([[s - a, 1.0], [0.0, s - b]])


def test_refine_modes_takes_an_exactly_singular_iterate_as_its_root():
    """A seed where Y is exactly singular is its own root, and the stacked
    solve of its batch does not fail for the other seeds, which end on the
    bits they reach alone."""
    a, b = complex(-5.0, 300.0), complex(-3.0, 200.0)
    Y = _singular_at(a, b)
    seeds = [a + 1.0, a, b - 0.5j]
    got = refine_modes(lambda s, rows: np.array([Y(x) for x in s]), seeds)
    assert got[1] == a
    assert got[0] == refine_mode(Y, seeds[0])
    assert got[2] == refine_mode(Y, seeds[2])
    assert abs(got[0] - a) <= 1e-13 * abs(a) and abs(got[2] - b) <= 1e-13 * abs(b)


def _row_loop_newton_step(Yfun, s, seeds, rows, outcomes):
    """rational_fit._newton_step as it was with a Python loop over the rows:
    the reference of its array bookkeeping."""
    x = s[rows]
    h = 1e-6 * (1.0 + np.abs(x))
    try:
        Y = np.asarray(Yfun(np.concatenate([x, x + h, x - h]), np.tile(rows, 3)), dtype=complex)
    except Exception as exc:
        if rows.size > 1:
            return np.concatenate([_row_loop_newton_step(Yfun, s, seeds, rows[m:m + 1], outcomes)
                                   for m in range(rows.size)])
        outcomes[rows[0]] = exc
        return rows[:0]
    k = rows.size
    live = np.flatnonzero(np.isfinite(Y[:k]).all(axis=(1, 2)))
    for m in np.setdiff1d(np.arange(k), live):
        outcomes[rows[m]] = RefinementError(f"admittance not finite at s = {complex(x[m])}")
    dY = (Y[k + live] - Y[2 * k + live]) / (2 * h[live])[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        step = 1.0 / _solve_each(Y[live], dY).diagonal(axis1=1, axis2=2).sum(axis=1)
    moving = []
    for m, dx in zip(live, step):
        r, xn = rows[m], x[m] - dx
        if not np.isfinite(dx):
            outcomes[r] = RefinementError(f"flat log-determinant at s = {complex(x[m])}")
        elif abs(dx) <= rational_fit._NEWTON_TOL * (1.0 + abs(x[m])):
            outcomes[r] = complex(xn)
        elif not np.isfinite(xn) or abs(xn) > 1e12:
            outcomes[r] = RefinementError(f"Newton iteration diverged from seed {seeds[r]}")
        else:
            s[r] = xn
            moving.append(r)
    return np.array(moving, dtype=int)


def _same_outcome(a, b) -> bool:
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return type(a) is type(b) and np.array(a).tobytes() == np.array(b).tobytes()


def test_newton_step_bookkeeping_equals_the_row_loop(monkeypatch):
    """Refining the same seeds with the array bookkeeping and with the row
    loop gives the same roots bit for bit, the same errors with the same
    messages, and each step the same rows still moving with the same
    iterates: converged roots (among 40 random-poled seeds), a flat
    log-determinant, a divergence, a non-finite Y and a Yfun that raises."""
    rng = np.random.default_rng(12)
    poles = -rng.uniform(1.0, 20.0, 40) + 1j * rng.uniform(50.0, 2000.0, 40)
    seeds = list(poles * (1.0 + 1e-3 * rng.standard_normal(40))) + [1.0 + 2.0j] * 4

    def Yfun(s, rows):
        if np.any(rows == 43):
            raise ValueError("seed 43 cannot be evaluated")
        p = poles[rows % 40]
        Y = np.zeros((s.size, 2, 2), dtype=complex)
        Y[:, 0, 0], Y[:, 1, 1], Y[:, 0, 1] = s - p, (s - p.conj()) * 1e-3 + 1.0, 0.3
        Y[rows == 40] = np.diag([2.0, 3.0])  # flat: no zero
        Y[rows == 41] = np.diag([1.0, 1.0])
        Y[rows == 41, 0, 0] = 1.0 / s[rows == 41]  # the step doubles s up to |s| > 1e12
        Y[(rows == 42) & (np.arange(s.size) < rows.size // 3)] = np.nan
        return Y

    runs = []
    for step in (rational_fit._newton_step, _row_loop_newton_step):
        trail, depth = [], []

        def traced(Yfun, s, seeds, rows, outcomes, step=step):
            depth.append(rows.size)  # a failed batch calls the step again row by row
            moving = step(Yfun, s, seeds, rows, outcomes)
            depth.pop()
            if not depth:
                trail.append((moving.tolist(), s.tobytes()))
            return moving

        monkeypatch.setattr(rational_fit, "_newton_step", traced)
        runs.append((refine_modes(Yfun, seeds), trail))
    (got, got_trail), (want, want_trail) = runs
    assert got_trail == want_trail
    assert all(_same_outcome(a, b) for a, b in zip(got, want))
    assert sum(isinstance(r, complex) for r in got) == 40
    assert [str(r).split(" at ")[0].split(" from ")[0] for r in got[40:]] == [
        "flat log-determinant", "Newton iteration diverged", "admittance not finite",
        "seed 43 cannot be evaluated"]


def test_admittance_residue_at_an_exactly_singular_point():
    a, b = complex(-5.0, 300.0), complex(-3.0, 200.0)
    want = np.array([[1.0, -1.0 / (a - b)], [0.0, 0.0]])  # of Z = Y^-1 at a
    got = admittance_residue(_singular_at(a, b), a)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_find_modes_deduplicates(rc_bus_net):
    """Point by point or stacked over the model, the same one mode."""
    model = WholeSystemModel(rc_bus_net)
    seeds = [-8 + 300j, -12 + 320j, -8 + 300j]
    modes = find_modes(model.admittance, seeds)
    assert len(modes) == 1
    assert abs(modes[0] - RC_MODE) <= 1e-8 * abs(RC_MODE)
    assert find_modes(model, seeds) == modes


def test_find_modes_orders_frequency_ties_by_real_part():
    """Two modes at one frequency, 1e-13 apart in imaginary part: the order
    follows their real parts, not the rounding of their frequencies."""
    a = complex(-5.0, 300.0 * (1 + 1e-13))
    b = complex(-3.0, 300.0)
    c = complex(-1.0, 200.0)

    def Y(s):
        return np.diag([s - a, s - b, s - c])

    modes = find_modes(Y, [b + 0.5, a + 0.5j, c - 0.5])
    assert len(modes) == 3
    assert np.allclose(modes, [c, a, b], rtol=1e-12, atol=0)


def test_refined_zeros_match_state_space(two_bus_net):
    from impedmodal.mass_oracle import eigendecompose

    eig = eigendecompose(interconnect(two_bus_net).A)
    model = WholeSystemModel(two_bus_net)
    for lam_true in eig.eigenvalues:
        if lam_true.imag <= 0:
            continue
        seed = complex(lam_true) * (1.0 + 0.02) + 5.0
        lam = refine_mode(model.admittance, seed)
        assert abs(lam - lam_true) <= 1e-8 * abs(lam_true)


# ---------------------------------------------------------------------------
# Critical resonance mode
# ---------------------------------------------------------------------------


def test_critical_mode_diagonal():
    crit = critical_resonance_mode(np.diag([0.0, 5.0, 7.0, 9.0]).astype(complex))
    assert crit.eigenvalue == 0.0
    v = np.abs(crit.eigenvector)
    assert np.isclose(v[0], 1.0) and np.allclose(v[1:], 0.0)
    assert crit.ties == ()


def test_critical_mode_at_refined_mode(rc_bus_net):
    model = WholeSystemModel(rc_bus_net)
    lam = refine_mode(model.admittance, seed=-8.0 + 300.0j)
    Y = model.admittance(lam)
    crit = critical_resonance_mode(Y)
    assert abs(crit.eigenvalue) <= 1e-8
    # null-vector property, the ModeRecord invariant
    resid = np.linalg.norm(Y @ crit.eigenvector)
    assert resid <= 1e-6 * np.linalg.norm(Y) * np.linalg.norm(crit.eigenvector)


def test_critical_mode_tie_reported():
    crit = critical_resonance_mode(np.diag([1e-12, 1.4e-12, 5.0, 7.0]).astype(complex))
    assert len(crit.ties) == 1


# ---------------------------------------------------------------------------
# Residues
# ---------------------------------------------------------------------------


def _pole_residue(model, lam, match_tol=1e-6):
    """The partial-fraction residue of ``model`` at its pole nearest ``lam``,
    which must lie within ``match_tol`` (1 + |lam|) of it."""
    k = int(np.argmin(np.abs(model.poles - lam)))
    assert abs(model.poles[k] - lam) <= match_tol * (1.0 + abs(lam))
    return model.residues[k]


def test_residue_from_rational_model_definitional():
    R = np.array([[1.0 + 2.0j]])
    model = RationalModel(
        poles=np.array([-4.0 + 9.0j]),
        residues=np.array([R]),
        const=np.zeros((1, 1), dtype=complex),
        linear=np.zeros((1, 1), dtype=complex),
    )
    assert np.array_equal(_pole_residue(model, -4.0 + 9.0j), R)
    s = -4.0 + 9.0j + 1e-7
    assert np.allclose((s - (-4.0 + 9.0j)) * model.evaluate(s), R)


def test_residue_numeric_limit_oracle(two_bus_net):
    from impedmodal.mass_oracle import eigendecompose

    ss = interconnect(two_bus_net)
    eig = eigendecompose(ss.A)
    lam = complex(eig.eigenvalues[int(np.argmax(eig.eigenvalues.imag))])
    R = ss.C @ resolvent_residue(ss.A, lam) @ ss.B
    model = WholeSystemModel(two_bus_net)
    s = lam + 1e-6 * (1.0 + 1.0j)
    R_lim = (s - lam) * model.impedance(s)
    assert np.linalg.norm(R_lim - R) <= 1e-4 * np.linalg.norm(R)


def test_residue_state_space_vs_vector_fit(two_bus_net):
    ss = interconnect(two_bus_net)
    model = WholeSystemModel(two_bus_net)
    samples = sample_response(model, frequency_grid(5.0, 5e3, 260))
    fit = vector_fit(samples, order=8, n_iterations=12)
    from impedmodal.mass_oracle import eigendecompose

    eig = eigendecompose(ss.A)
    for lam_true in eig.eigenvalues:
        if lam_true.imag <= 0:
            continue
        lam = complex(lam_true)
        R_ss = ss.C @ resolvent_residue(ss.A, lam) @ ss.B
        R_fit = _pole_residue(fit, lam, match_tol=1e-3)
        assert np.linalg.norm(R_fit - R_ss) <= 1e-6 * np.linalg.norm(R_ss)


def test_admittance_residue_matches_state_space(three_bus_net):
    from impedmodal.mass_oracle import eigendecompose

    ss = interconnect(three_bus_net)
    model = WholeSystemModel(three_bus_net)
    eig = eigendecompose(ss.A)
    lam = complex(eig.eigenvalues[int(np.argmax(eig.eigenvalues.real))])
    if lam.imag < 0:
        lam = np.conj(lam)
    R_imp = admittance_residue(model.admittance, lam)
    R_ss = ss.C @ resolvent_residue(ss.A, lam) @ ss.B
    assert np.linalg.norm(R_imp - R_ss) <= 1e-6 * np.linalg.norm(R_ss)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_response_csv_round_trip(two_bus_net):
    model = WholeSystemModel(two_bus_net)
    samples = sample_response(model, frequency_grid(10.0, 1e3, 7))
    omegas, values = read_response_csv(write_response_csv(samples.frequencies, samples.blocks))
    assert np.array_equal(samples.frequencies, omegas)
    assert np.array_equal(samples.blocks, values)


def test_response_csv_rejects_ragged():
    with pytest.raises(NetworkFormatError):
        read_response_csv("omega,re_1_1,im_1_1\n1.0,2.0\n")
