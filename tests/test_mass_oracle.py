"""State-space interconnection, eigenstructure and sensitivity oracle."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from impedmodal.admittance_assembly import WholeSystemModel, state_space_response
from impedmodal.mass_oracle import (
    DefectiveMatrixError,
    Interconnection,
    OracleError,
    UnsupportedForOracleError,
    _SecularGrid,
    _apart,
    eigendecompose,
    eigenvector_pair,
    interconnect,
    nearest_eigenvalue,
)
from impedmodal.network_model import (
    ApparatusAttachment,
    NetworkDescription,
    SampledResponse,
    ShuntElement,
    StateSpaceRealization,
)

from conftest import W0, generated_ring, same_bits
from paper_reference import (
    RepeatedEigenvalueError,
    eigenvalue_sensitivity_matrix,
    parameter_sensitivity_ss,
    participation_matrix,
    resolvent_residue,
)

A23 = np.array([[0.0, 1.0], [-2.0, -3.0]])  # eigenvalues -1, -2


# ---------------------------------------------------------------------------
# Interconnection
# ---------------------------------------------------------------------------


def test_interconnect_single_capacitor_bus():
    C = 0.01
    net = NetworkDescription(
        n_buses=1, omega0=W0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=C),),
    )
    ss = interconnect(net)
    assert ss.n_states == 2
    assert np.allclose(ss.A, [[0.0, W0], [-W0, 0.0]])
    assert np.allclose(ss.B, np.eye(2) / C)
    assert np.allclose(ss.C, np.eye(2))
    assert np.allclose(ss.D, 0.0)


def test_interconnect_two_bus_matches_impedance(two_bus_net):
    ss = interconnect(two_bus_net)
    assert ss.n_states == 6
    model = WholeSystemModel(two_bus_net)
    for s in (1j * 50.0, -40.0 + 900.0j):
        G = state_space_response(ss.A, ss.B, ss.C, ss.D, s)
        assert np.allclose(G, model.impedance(s), rtol=1e-12)


def test_interconnect_three_bus_matches_impedance(three_bus_net):
    ss = interconnect(three_bus_net)
    assert ss.n_states == 14
    model = WholeSystemModel(three_bus_net)
    for s in (0.5 + 700.0j, -3.0 + 150.0j, 2.0 + 0.0j):
        Z = model.impedance(s)
        G = state_space_response(ss.A, ss.B, ss.C, ss.D, s)
        assert np.linalg.norm(G - Z) <= 1e-12 * np.linalg.norm(Z)


def test_interconnect_eigenvalues_are_impedance_poles(two_bus_net):
    ss = interconnect(two_bus_net)
    eig = eigendecompose(ss.A)
    model = WholeSystemModel(two_bus_net)
    for lam in eig.eigenvalues:
        Y = model.admittance(complex(lam))
        sv = np.linalg.svd(Y, compute_uv=False)
        assert sv[-1] <= 1e-10 * sv[0]


def test_interconnect_algebraic_bus_elimination():
    """A bus with only a resistive shunt keeps a well-defined voltage."""
    from impedmodal.network_model import SeriesBranch

    net = NetworkDescription(
        n_buses=2, omega0=W0,
        branches=(SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.05, L=0.002),),
        shunts=(
            ShuntElement(bus=1, kind="capacitive", value=0.001),
            ShuntElement(bus=2, kind="resistive", value=2.0),
        ),
    )
    ss = interconnect(net)
    assert ss.n_states == 4  # cap voltage + branch current
    assert np.any(ss.D != 0)  # injection at bus 2 feeds through to its voltage
    model = WholeSystemModel(net)
    for s in (1j * 120.0, -25.0 + 600.0j):
        G = state_space_response(ss.A, ss.B, ss.C, ss.D, s)
        assert np.allclose(G, model.impedance(s), rtol=1e-11)


def test_interconnect_undefined_bus_voltage():
    from impedmodal.network_model import SeriesBranch

    net = NetworkDescription(
        n_buses=2, omega0=W0,
        branches=(SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.05, L=0.002),),
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.001),),
    )
    with pytest.raises(UnsupportedForOracleError, match="bus 2"):
        interconnect(net)


def test_interconnect_rejects_sampled_apparatus():
    model = SampledResponse(
        frequencies=np.array([1.0, 10.0]), blocks=np.zeros((2, 2, 2), dtype=complex)
    )
    net = NetworkDescription(
        n_buses=1, omega0=W0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
        apparatus=(ApparatusAttachment(bus=1, model=model),),
    )
    with pytest.raises(UnsupportedForOracleError, match="state-space"):
        interconnect(net)


def test_interconnect_shunt_inductor_states():
    net = NetworkDescription(
        n_buses=1, omega0=W0,
        shunts=(
            ShuntElement(bus=1, kind="capacitive", value=0.01),
            ShuntElement(bus=1, kind="inductive", value=0.5),
        ),
    )
    ss = interconnect(net)
    assert ss.n_states == 4
    model = WholeSystemModel(net)
    s = -5.0 + 90.0j
    G = state_space_response(ss.A, ss.B, ss.C, ss.D, s)
    assert np.allclose(G, model.impedance(s), rtol=1e-12)


# ---------------------------------------------------------------------------
# Eigenstructure
# ---------------------------------------------------------------------------


def test_eigendecompose_hand_example():
    eig = eigendecompose(A23)
    assert np.allclose(sorted(eig.eigenvalues.real), [-2.0, -1.0])
    assert np.allclose(eig.eigenvalues.imag, 0.0)
    i1 = int(np.argmin(np.abs(eig.eigenvalues + 1)))
    v = eig.right[:, i1]
    assert np.isclose(v[1] / v[0], -1.0)  # [1, -1] direction
    i2 = int(np.argmin(np.abs(eig.eigenvalues + 2)))
    v = eig.right[:, i2]
    assert np.isclose(v[1] / v[0], -2.0)  # [1, -2] direction


def test_eigendecompose_normalization():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(12, 12))
    eig = eigendecompose(A)
    assert np.linalg.norm(eig.left @ eig.right - np.eye(12)) < 1e-10
    assert np.allclose(A @ eig.right, eig.right @ np.diag(eig.eigenvalues))


def test_eigendecompose_diagonal_gives_unit_vectors():
    """For a diagonal matrix, |Phi| and |Psi| are permutation matrices."""
    eig = eigendecompose(np.diag([3.0, 7.0, -2.0]))
    for M in (np.abs(eig.right), np.abs(eig.left)):
        assert np.allclose(M.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(M.max(axis=0), 1.0, atol=1e-12)


def test_eigendecompose_real_spectrum_is_complex_typed():
    """numpy returns float64 for an all-real spectrum; the eigenstructure
    is complex128 whatever the spectrum."""
    eig = eigendecompose(np.diag([-1.0, -2.0]))
    assert eig.eigenvalues.dtype == eig.right.dtype == eig.left.dtype == np.complex128
    assert np.array_equal(eig.eigenvalues, [-1.0, -2.0])


def test_eigendecompose_jordan_block_defective():
    with pytest.raises(DefectiveMatrixError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _complex_route(A):
    """eig's vectors as complex128 with the singular values of that complex
    matrix: what the eigenbasis is checked against."""
    X = np.linalg.eig(A)[1].astype(complex)
    return X, np.linalg.svd(X, compute_uv=False)


def _check_eigenbasis(A, rtol=1e-12):
    """``eigendecompose(A)`` raises DefectiveMatrixError exactly where the
    complex SVD's condition number exceeds 1e12; else its ``right`` is
    eig's, bit for bit, ``norms`` within ``rtol`` relative of the complex
    SVD's (None: 16 eps x the condition number, the accuracy of the
    smallest singular value), the left rows of each pair exact
    conjugates, and left @ right = I to rounding. True if it raised."""
    X, sv = _complex_route(A)
    if not sv[-1] > 0 or sv[0] / sv[-1] > 1e12:
        with pytest.raises(DefectiveMatrixError):
            eigendecompose(A)
        return True
    eig = eigendecompose(A)
    n, eps, kappa = eig.n, np.finfo(float).eps, sv[0] / sv[-1]
    rtol = 16 * eps * kappa if rtol is None else rtol
    assert same_bits(eig.right, X)
    assert abs(eig.norms[0] - sv[0]) <= rtol * sv[0]
    assert abs(eig.norms[1] - 1.0 / sv[-1]) <= rtol / sv[-1]
    j = eig.pairs
    assert np.array_equal(eig.eigenvalues[j + 1], eig.eigenvalues[j].conj())
    assert same_bits(eig.left[j + 1], eig.left[j].conj())
    assert np.all(eig.eigenvalues[np.setdiff1d(np.arange(eig.n), [*j, *(j + 1)])].imag == 0)
    assert np.linalg.norm(eig.left @ eig.right - np.eye(n)) <= 64 * n * eps * kappa
    return False


@pytest.mark.parametrize("n_buses, seed", itertools.product((3, 6, 15, 30, 60), range(3)))
def test_eigenbasis_of_generated_rings(n_buses, seed):
    """The real-arithmetic eigenbasis of the benchmark generator's rings of
    3-60 buses, seeds 0-2, against eig's vectors and their complex SVD;
    ``eig_errors``, formed on the real columns, are at rounding level."""
    system = Interconnection(generated_ring(n_buses, seed))
    A = system.model.A
    assert not _check_eigenbasis(A)
    rho, delta = system.eig_errors
    n, eps, (x_norm, x_inv_norm) = A.shape[0], np.finfo(float).eps, system.eig.norms
    assert np.all(rho <= 64 * n * eps * (np.linalg.norm(A) + np.abs(system.eig.eigenvalues)))
    assert delta <= 64 * n * eps * x_norm * x_inv_norm


def test_the_state_matrix_norm_is_formed_once(three_bus_net):
    """``Interconnection.a_norm`` is ||A||_F bit for bit, formed at its
    first use: a secular grid adds its update's ||V^T||_F to the cached
    value, and recomputes nothing of A."""
    system = Interconnection(three_bus_net)
    assert same_bits(system.a_norm, np.linalg.norm(system.model.A))
    branch = three_bus_net.with_branch(0, L=0.003).branches[0]
    [(rows, A_rows, _)] = system.element_rows([(("branch", 0), branch)])
    update_norm = np.linalg.norm(A_rows - system.model.A[rows])
    system.a_norm = 2.0  # a stand-in for the cached norm
    grid = _SecularGrid(system, [(rows, A_rows)])
    assert same_bits(grid.a_norm, np.array([2.0 + update_norm]))


@pytest.mark.parametrize("seed", range(4))
def test_separation_among_neighbours_is_that_of_every_pair(seed):
    """``_apart``, which compares each root with the points near it by real
    part, decides as the test of every pair decides: on 400 random sets of
    roots in clusters, with the conjugates of the complex ones among the
    points, exact ties of real parts, real roots and radii from 0 to
    about the clusters' spacing, so that about half the sets are refused;
    and at pairs placed exactly at and just inside or outside the sum of
    their radii."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for _ in range(400):
        h = int(rng.integers(1, 40))
        centres = rng.normal(size=3) * 10.0 ** rng.integers(-2, 4)
        mu = rng.choice(centres, h) + rng.normal(size=h) + 1j * np.abs(rng.normal(size=h))
        mu.real[rng.random(h) < 0.3] = mu.real[0]  # ties of real parts
        real = rng.random(h) < 0.2
        mu.imag[real] = 0.0
        radius = np.abs(rng.normal(size=h)) * 10.0 ** rng.uniform(-6, -1, size=h)
        radius[rng.random(h) < 0.1] = 0.0
        others = np.concatenate([mu, mu[~real].conj()])
        reach = np.append(radius, radius[~real])
        if h > 1 and rng.random() < 0.5:  # a pair at the sum of its radii
            i, j = rng.choice(h, 2, replace=False)
            gap = abs(mu[i] - others[j])
            radius[i] = reach[i] = max(0.0, gap - reach[j]) * (1.0 + rng.choice([-1, 0, 1]) * 1e-15)
            reach[h:] = radius[~real]
        every_pair = np.abs(mu[:, None] - others) > radius[:, None] + reach
        every_pair[np.arange(h), np.arange(h)] = True
        outcomes.append(every_pair.all())
        assert _apart(mu, radius, others, reach) == outcomes[-1]
    assert 0.2 < np.mean(outcomes) < 0.8


def test_eigenbasis_of_hand_matrices():
    """An all-real spectrum, a repeated real eigenvalue, a repeated complex
    pair, near-defective pairs on either side of the 1e12 limit, real
    ([[0, 1], [e, 0]]) and complex ([[0, 1], [-e, 0]]), and a complex
    Jordan block that rounding splits, are decomposed or refused as the
    complex SVD decides; exact real and complex Jordan blocks are
    refused."""
    rng = np.random.default_rng(3)
    S = rng.normal(size=(4, 4))
    R = np.array([[-1.0, 5.0], [-5.0, -1.0]])
    jordan = np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]])
    cases = {
        "real spectrum": S @ np.diag([-1.0, -2.0, 3.0, 0.5]) @ np.linalg.inv(S),
        "repeated real": S @ np.diag([-1.0, -1.0, 2.0, 2.0]) @ np.linalg.inv(S),
        "repeated pair": S @ scipy.linalg.block_diag(R, R) @ np.linalg.inv(S),
        "jordan": np.array([[0.0, 1.0], [0.0, 0.0]]),
        "complex jordan": jordan,
        "split complex jordan": S @ jordan @ np.linalg.inv(S),
    }
    for k in (20, 22, 23, 25, 26, 28):
        for sign in (1.0, -1.0):
            cases[f"{sign:+} 1e-{k}"] = np.array([[0.0, 1.0], [sign * 10.0**-k, 0.0]])
    refused = {name for name, A in cases.items() if _check_eigenbasis(A, rtol=None)}
    assert refused == {"jordan", "complex jordan", *(f"{sign:+} 1e-{k}" for k in (25, 26, 28)
                                                     for sign in (1.0, -1.0))}


def _real_modal_matrix(pairs, rng):
    """Real matrix with eigenvalues a +- jw for each (a, w), mixed by a
    random similarity so that no entry pattern gives the pairs away."""
    A = scipy.linalg.block_diag(*[np.array([[a, w], [-w, a]]) for a, w in pairs])
    S = rng.normal(size=A.shape)
    return S @ A @ np.linalg.inv(S)


def test_nearest_eigenvalue_complex_shift_on_real_matrix():
    """Conjugate pairs plus a cluster within ~3 rad/s of omega0: every shift
    returns the eigenvalue the dense solve puts nearest to it."""
    rng = np.random.default_rng(3)
    pairs = [(-5.0, W0), (-3.0, W0 + 1.3), (-8.0, W0 - 2.1), (-20.0, 50.0), (-1.0, 1000.0)]
    A = _real_modal_matrix(pairs, rng)
    dense = np.linalg.eigvals(A)
    for sigma in (-4.0 + 1j * W0, -2.0 + 1j * (W0 + 2.0), -9.0 - 1j * (W0 - 1.8),
                  -15.0 + 60j, 990j, -4.0 + 0.5j):
        lam = nearest_eigenvalue(A, sigma)
        expected = dense[np.argmin(np.abs(dense - sigma))]
        assert abs(lam - expected) <= 1e-9 * abs(expected)


def test_nearest_eigenvalue_jordan_block_defective():
    # in floating point an m-fold Jordan eigenvalue reads a condition number
    # of about eps^(1/m - 1), so a 4-block is the smallest beyond 1e12
    J = np.eye(4) + np.diag(np.ones(3), 1)
    A = scipy.linalg.block_diag(J, np.diag([5.0, -3.0, 7.0]))
    with pytest.raises(DefectiveMatrixError):
        nearest_eigenvalue(A, 1.05 + 0.02j)
    assert nearest_eigenvalue(A, 6.5 + 0.5j) == pytest.approx(7.0, rel=1e-12)


def test_nearest_eigenvalue_shift_on_an_eigenvalue():
    assert nearest_eigenvalue(np.diag([1.0, 2.0, 3.0, 4.0]), 2.0) == 2.0


def test_eigenvector_pair_gives_the_resolvent_residue():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(8, 8))
    for lam in scipy.linalg.eigvals(A):
        x, y_h = eigenvector_pair(A, lam)
        assert y_h @ x == pytest.approx(1.0, abs=1e-14)
        R = resolvent_residue(A, lam)
        assert np.max(np.abs(np.outer(x, y_h) - R)) <= 1e-10 * np.max(np.abs(R))


def test_eigenvector_pair_at_an_exactly_singular_shift():
    # A - lam I has an exactly zero pivot at lam = 2; the shift sits off it
    x, y_h = eigenvector_pair(np.diag([1.0, 2.0, 3.0, 4.0]), 2.0)
    assert np.allclose(np.outer(x, y_h), np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-14)


def test_eigenvector_pair_jordan_block_defective():
    J = np.eye(4) + np.diag(np.ones(3), 1)
    A = scipy.linalg.block_diag(J, np.diag([5.0, -3.0, 7.0]))
    eigenvalues = scipy.linalg.eigvals(A)
    with pytest.raises(DefectiveMatrixError):
        eigenvector_pair(A, eigenvalues[np.argmin(np.abs(eigenvalues - (1.05 + 0.02j)))])
    with pytest.raises(DefectiveMatrixError):
        eigenvector_pair(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)
    x, y_h = eigenvector_pair(A, 7.0)
    assert np.allclose(np.outer(x, y_h), np.diag([0.0] * 6 + [1.0]), atol=1e-14)


def test_nearest_eigenvalue_real_shift_between_conjugate_pair():
    """-5 +- 20j are equally near the real shift -5: the tie is reported as
    such, not as a defective eigenvalue from mixing the pair's vectors."""
    A = _real_modal_matrix([(-5.0, 20.0), (-3.0, 60.0), (-8.0, 100.0)],
                           np.random.default_rng(3))
    with pytest.raises(OracleError, match="ambiguous nearest eigenvalue") as info:
        nearest_eigenvalue(A, -5.0)
    assert not isinstance(info.value, DefectiveMatrixError)
    assert nearest_eigenvalue(A, -5.0 + 1e-9j) == pytest.approx(-5.0 + 20j, rel=1e-12)


def test_nearest_eigenvalue_bit_identical_repeats():
    A = np.random.default_rng(8).normal(size=(30, 30))
    first = nearest_eigenvalue(A, 0.4 + 1.1j)
    assert all(nearest_eigenvalue(A, 0.4 + 1.1j) == first for _ in range(3))


def test_nearest_eigenvalue_two_state_model_uses_dense_path():
    assert nearest_eigenvalue(np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.9j) == pytest.approx(1j)
    with pytest.raises(DefectiveMatrixError):
        nearest_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


def test_participation_hand_example():
    eig = eigendecompose(A23)
    P = participation_matrix(eig)
    i1 = int(np.argmin(np.abs(eig.eigenvalues + 1)))
    assert np.allclose(P[:, i1], [2.0, -1.0])


def test_participation_diagonal_is_identity():
    P = participation_matrix(eigendecompose(np.diag([1.0, 5.0, -3.0, 0.5])))
    assert np.allclose(P, np.eye(4), atol=1e-12)


def test_participation_columns_sum_to_one_random():
    rng = np.random.default_rng(5)
    for _ in range(6):
        A = rng.normal(size=(9, 9))
        P = participation_matrix(eigendecompose(A))
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# Sensitivities
# ---------------------------------------------------------------------------


def test_sensitivity_matrix_hand_value():
    eig = eigendecompose(A23)
    i = int(np.argmin(np.abs(eig.eigenvalues + 1)))
    S = eigenvalue_sensitivity_matrix(eig, i)
    # perturbing a_21 by eps moves lambda = -1 by exactly eps to first order
    assert np.isclose(S[1, 0], 1.0)


def test_sensitivity_diagonal_equals_participation():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(7, 7))
    eig = eigendecompose(A)
    P = participation_matrix(eig)
    for i in range(7):
        S = eigenvalue_sensitivity_matrix(eig, i)
        assert np.allclose(np.diag(S), P[:, i], atol=1e-12)


def test_sensitivity_matrix_finite_difference():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(5, 5))
    eig = eigendecompose(A)
    h = 1e-7
    for i in range(5):
        S = eigenvalue_sensitivity_matrix(eig, i)
        for k, j in ((0, 0), (2, 1), (4, 3)):
            Ap = A.copy(); Ap[k, j] += h
            Am = A.copy(); Am[k, j] -= h
            lp = eigendecompose(Ap).eigenvalues
            lm = eigendecompose(Am).eigenvalues
            lam = eig.eigenvalues[i]
            fd = (lp[np.argmin(np.abs(lp - lam))] - lm[np.argmin(np.abs(lm - lam))]) / (2 * h)
            assert abs(fd - S[k, j]) <= 1e-5 * max(1.0, abs(S[k, j]))


def test_resolvent_residue_hand_value():
    R = resolvent_residue(A23, -1.0)
    assert np.allclose(R, [[2.0, 1.0], [-2.0, -1.0]])


def test_resolvent_residue_trace_one():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(8, 8))
    eig = eigendecompose(A)
    for lam in eig.eigenvalues:
        R = resolvent_residue(A, complex(lam))
        assert np.isclose(np.trace(R), 1.0, atol=1e-10)


def test_resolvent_residue_numeric_limit():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(6, 6))
    eig = eigendecompose(A)
    lam = complex(eig.eigenvalues[int(np.argmax(eig.eigenvalues.imag))])
    R = resolvent_residue(A, lam)
    s = lam + 1e-6
    R_lim = (s - lam) * np.linalg.inv(s * np.eye(6) - A)
    assert np.linalg.norm(R_lim - R) <= 1e-4 * np.linalg.norm(R)


def test_resolvent_residue_repeated_eigenvalue():
    with pytest.raises((RepeatedEigenvalueError, DefectiveMatrixError)):
        resolvent_residue(np.diag([2.0, 2.0, 5.0]), 2.0)


def test_parameter_sensitivity_recovers_participation():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(6, 6))
    eig = eigendecompose(A)
    P = participation_matrix(eig)
    k = 3
    dA = np.zeros((6, 6)); dA[k, k] = 1.0
    for i in range(6):
        sens = parameter_sensitivity_ss(eig, i, dA)
        assert np.isclose(sens, P[k, i], atol=1e-10)


def test_parameter_sensitivity_hand_example():
    # A(rho) = [[0, 1], [-rho, -3]] at rho = 2: dlambda/drho = -1 for lambda = -1
    eig = eigendecompose(A23)
    i = int(np.argmin(np.abs(eig.eigenvalues + 1)))
    dA = np.array([[0.0, 0.0], [-1.0, 0.0]])
    assert np.isclose(parameter_sensitivity_ss(eig, i, dA), -1.0)


def test_parameter_sensitivity_finite_difference():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(7, 7))
    dA = rng.normal(size=(7, 7))
    eig = eigendecompose(A)
    h = 1e-6
    lp = eigendecompose(A + h * dA).eigenvalues
    lm = eigendecompose(A - h * dA).eigenvalues
    for i in range(7):
        lam = eig.eigenvalues[i]
        fd = (lp[np.argmin(np.abs(lp - lam))] - lm[np.argmin(np.abs(lm - lam))]) / (2 * h)
        sens = parameter_sensitivity_ss(eig, i, dA)
        assert abs(fd - sens) <= 1e-5 * max(1.0, abs(sens))


# ---------------------------------------------------------------------------
# Port transfer
# ---------------------------------------------------------------------------


def test_state_space_response_equals_impedance(three_bus_net):
    """On all ports (current injections in, bus voltages out) the transfer
    matrix of the interconnection is the whole-system impedance Z(s)."""
    ss = interconnect(three_bus_net)
    model = WholeSystemModel(three_bus_net)
    for s in (1j * 60.0, -2.0 + 800.0j):
        G = state_space_response(ss.A, ss.B, ss.C, ss.D, s)
        Z = model.impedance(s)
        assert np.linalg.norm(G - Z) <= 1e-10 * np.linalg.norm(Z)


def test_state_space_response_on_selected_ports():
    """5-input/6-output model restricted to current/voltage ports
    (columns 1,2,4,5 of B and rows 1,2,5,6 of C, 1-based)."""
    rng = np.random.default_rng(21)
    nx = 8
    model = StateSpaceRealization(
        A=rng.normal(size=(nx, nx)),
        B=rng.normal(size=(nx, 5)),
        C=rng.normal(size=(6, nx)),
        D=np.zeros((6, 5)),
    )
    rows, cols = [0, 1, 4, 5], [0, 1, 3, 4]
    s = -1.0 + 30.0j
    G = state_space_response(model.A, model.B[:, cols], model.C[rows], model.D[np.ix_(rows, cols)],
                             s)
    full = state_space_response(model.A, model.B, model.C, model.D, s)
    assert np.allclose(G, full[np.ix_(rows, cols)])
