"""State-space ground truth: interconnection, eigenstructure, sensitivities.

When every apparatus carries a state-space realization, the whole network
can be assembled into one linear model with per-bus dq current injections
as inputs and per-bus dq voltage deviations as outputs. Its transfer
matrix equals the whole-system impedance Z(s), which makes this module the
oracle against which the impedance-side analysis is checked: eigenvalues
of A are the modes, the resolvent residue phi*psi carries the
sensitivities, and participation factors follow from the eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .admittance_assembly import _I2, _J, block_slice, frame_rotation, state_space_response
from .network_model import NetworkDescription, StateSpaceRealization

__all__ = [
    "OracleError",
    "UnsupportedForOracleError",
    "DefectiveMatrixError",
    "RepeatedEigenvalueError",
    "StateSpaceModel",
    "EigenStructure",
    "PortSelection",
    "oracle_capable",
    "interconnect",
    "eigendecompose",
    "nearest_eigenvalue",
    "participation_matrix",
    "eigenvalue_sensitivity_matrix",
    "resolvent_residue",
    "parameter_sensitivity_ss",
    "extract_port_transfer",
    "transfer_matrix",
]

# largest eigenvector-matrix or eigenvalue condition number accepted
_COND_LIMIT = 1e12


class OracleError(Exception):
    """Base class for state-space oracle failures."""


class UnsupportedForOracleError(OracleError):
    """The network contains an element without a state-space realization."""


class DefectiveMatrixError(OracleError):
    """The state matrix is (numerically) defective; no eigenbasis exists."""


class RepeatedEigenvalueError(OracleError):
    """Sensitivity requested for a repeated or near-multiple eigenvalue."""


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Real (A, B, C, D) realization with named states, inputs and outputs."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    state_names: tuple[str, ...]
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]

    def __post_init__(self):
        nx = self.A.shape[0]
        nu = self.B.shape[1]
        ny = self.C.shape[0]
        if self.A.shape != (nx, nx) or self.B.shape[0] != nx:
            raise OracleError("inconsistent A/B dimensions")
        if self.C.shape[1] != nx or self.D.shape != (ny, nu):
            raise OracleError("inconsistent C/D dimensions")
        for names, count, what in (
            (self.state_names, nx, "state"),
            (self.input_names, nu, "input"),
            (self.output_names, ny, "output"),
        ):
            if len(names) != count:
                raise OracleError(f"{what} name list has wrong length")
            if len(set(names)) != count:
                raise OracleError(f"{what} names are not unique")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class PortSelection:
    """Column indices into B and row indices into C defining a port subset."""

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        for name, idx in (("inputs", self.inputs), ("outputs", self.outputs)):
            if len(set(idx)) != len(idx):
                raise OracleError(f"duplicate indices in port selection {name}")

    @staticmethod
    def all_ports(model: "StateSpaceModel") -> "PortSelection":
        return PortSelection(
            inputs=tuple(range(model.B.shape[1])),
            outputs=tuple(range(model.C.shape[0])),
        )


@dataclass(frozen=True, eq=False)
class EigenStructure:
    """Eigenvalues with right eigenvectors (columns of ``right``) and left
    eigenvectors (rows of ``left``), normalized so that left @ right = I."""

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size


# ---------------------------------------------------------------------------
# Interconnection
# ---------------------------------------------------------------------------


def oracle_capable(net: NetworkDescription) -> bool:
    """Whether every apparatus has a state-space realization, the first
    condition :func:`interconnect` sets on a network."""
    return all(isinstance(a.model, StateSpaceRealization) for a in net.apparatus)


def interconnect(net: NetworkDescription) -> StateSpaceModel:
    """Assemble the closed-system state-space model of the whole network.

    Inputs are per-bus dq injected-current perturbations, outputs per-bus dq
    voltage deviations (bus-major, d before q). States are branch and
    shunt-inductor currents, shunt-capacitor (= bus) voltages and apparatus
    states, all in the global dq frame.

    A bus voltage is a state when the bus carries capacitance; otherwise it
    is eliminated algebraically through the static conductance at that bus,
    which must be invertible (resistive shunts and/or apparatus feedthrough).

    Raises
    ------
    UnsupportedForOracleError
        If any apparatus lacks a state-space realization, or a bus voltage
        is undefined (no capacitance and singular static conductance).
    """
    for idx, app in enumerate(net.apparatus):
        if not isinstance(app.model, StateSpaceRealization):
            raise UnsupportedForOracleError(
                f"apparatus[{idx}] at bus {app.bus} has no state-space realization"
            )

    n = net.n_buses
    omega0 = net.omega0
    nu = 2 * n

    # --- state indexing ---------------------------------------------------
    state_names: list[str] = []
    cap_total = np.zeros(n + 1)  # 1-based
    for sh in net.shunts:
        if sh.kind == "capacitive":
            cap_total[sh.bus] += sh.value
    v_state_of: dict[int, int] = {}
    for bus in range(1, n + 1):
        if cap_total[bus] > 0:
            v_state_of[bus] = len(state_names)
            state_names += [f"bus{bus}.vd", f"bus{bus}.vq"]
    branch_state: list[int] = []
    for bi, b in enumerate(net.branches):
        branch_state.append(len(state_names))
        state_names += [f"branch{bi}:{b.from_bus}-{b.to_bus}.id",
                        f"branch{bi}:{b.from_bus}-{b.to_bus}.iq"]
    shunt_state: dict[int, int] = {}
    for si, sh in enumerate(net.shunts):
        if sh.kind == "inductive":
            shunt_state[si] = len(state_names)
            state_names += [f"shunt{si}:bus{sh.bus}.id", f"shunt{si}:bus{sh.bus}.iq"]
    app_state: list[int] = []
    app_rot: list[np.ndarray] = []
    for ai, app in enumerate(net.apparatus):
        app_state.append(len(state_names))
        nxa = app.model.n_states
        state_names += [f"apparatus{ai}:bus{app.bus}.x{k}" for k in range(nxa)]
        app_rot.append(frame_rotation(app.theta))
    nx = len(state_names)

    # --- static conductance and state-drawn current per bus ---------------
    G = np.zeros((n + 1, 2, 2))  # per-bus feedthrough conductance, 1-based
    for sh in net.shunts:
        if sh.kind == "resistive":
            G[sh.bus] += _I2 / sh.value
    drawn = np.zeros((nu, nx))  # current drawn from buses by state variables
    for bi, b in enumerate(net.branches):
        cols = slice(branch_state[bi], branch_state[bi] + 2)
        drawn[block_slice(b.from_bus), cols] += _I2 / b.ratio
        drawn[block_slice(b.to_bus), cols] -= _I2
    for si, start in shunt_state.items():
        bus = net.shunts[si].bus
        drawn[block_slice(bus), start:start + 2] += _I2
    for ai, app in enumerate(net.apparatus):
        T = app_rot[ai]
        G[app.bus] += T @ app.model.D @ T.T
        nxa = app.model.n_states
        if nxa:
            cols = slice(app_state[ai], app_state[ai] + nxa)
            drawn[block_slice(app.bus), cols] += T @ app.model.C

    # --- bus voltages: V = P x + Q u ---------------------------------------
    P = np.zeros((nu, nx))
    Q = np.zeros((nu, nu))
    for bus in range(1, n + 1):
        rows = block_slice(bus)
        if bus in v_state_of:
            P[rows, v_state_of[bus]:v_state_of[bus] + 2] = _I2
        else:
            Gb = G[bus]
            if abs(np.linalg.det(Gb)) < 1e-12 * max(1.0, np.linalg.norm(Gb)) ** 2:
                raise UnsupportedForOracleError(
                    f"bus {bus} voltage is undefined: no capacitive shunt and "
                    "singular static conductance"
                )
            Gi = np.linalg.inv(Gb)
            P[rows, :] = -Gi @ drawn[rows, :]
            Q[rows, rows] = Gi

    # --- state equations ----------------------------------------------------
    A = np.zeros((nx, nx))
    B = np.zeros((nx, nu))

    def add_voltage_term(rows: slice, coeff: np.ndarray, bus: int) -> None:
        vb = block_slice(bus)
        A[rows, :] += coeff @ P[vb, :]
        B[rows, :] += coeff @ Q[vb, :]

    for bus, vs in v_state_of.items():
        rows = slice(vs, vs + 2)
        C_bus = cap_total[bus]
        # C V' = u - G V - drawn(x) - w0 C J V
        A[rows, :] -= drawn[block_slice(bus), :] / C_bus
        B[rows, block_slice(bus)] += _I2 / C_bus
        add_voltage_term(rows, -G[bus] / C_bus, bus)
        A[rows, vs:vs + 2] += -omega0 * _J

    for bi, b in enumerate(net.branches):
        rows = slice(branch_state[bi], branch_state[bi] + 2)
        A[rows, rows] += -(b.R / b.L) * _I2 - omega0 * _J
        add_voltage_term(rows, _I2 / (b.L * b.ratio), b.from_bus)
        add_voltage_term(rows, -_I2 / b.L, b.to_bus)

    for si, start in shunt_state.items():
        sh = net.shunts[si]
        rows = slice(start, start + 2)
        A[rows, rows] += -omega0 * _J
        add_voltage_term(rows, _I2 / sh.value, sh.bus)

    for ai, app in enumerate(net.apparatus):
        nxa = app.model.n_states
        if nxa == 0:
            continue
        rows = slice(app_state[ai], app_state[ai] + nxa)
        A[rows, rows] += app.model.A
        add_voltage_term(rows, app.model.B @ app_rot[ai].T, app.bus)

    input_names = tuple(
        f"bus{bus}.inj_i{ax}" for bus in range(1, n + 1) for ax in ("d", "q")
    )
    output_names = tuple(
        f"bus{bus}.u{ax}" for bus in range(1, n + 1) for ax in ("d", "q")
    )
    return StateSpaceModel(
        A=A, B=B, C=P, D=Q,
        state_names=tuple(state_names),
        input_names=input_names,
        output_names=output_names,
    )


# ---------------------------------------------------------------------------
# Eigenstructure and sensitivities
# ---------------------------------------------------------------------------


def eigendecompose(A: np.ndarray) -> EigenStructure:
    """Eigenvalues with mutually normalized right/left eigenvectors.

    Left eigenvectors are the rows of the inverse of the right-eigenvector
    matrix, which enforces left @ right = I up to inversion error.

    Raises DefectiveMatrixError when the eigenvector matrix condition number
    exceeds 1e12 (near-defective A).
    """
    A = np.asarray(A)
    lam, Phi = scipy.linalg.eig(A)
    cond = np.linalg.cond(Phi)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise DefectiveMatrixError(
            f"eigenvector matrix condition number {cond:.3e} exceeds {_COND_LIMIT:.1e}"
        )
    Psi = np.linalg.inv(Phi)
    return EigenStructure(eigenvalues=lam, right=Phi, left=Psi)


def nearest_eigenvalue(A: np.ndarray, sigma: complex) -> complex:
    """The eigenvalue of A nearest the shift ``sigma``, with its conditioning
    checked.

    Shift-invert ARPACK on one sparse LU of A - sigma I: the dominant
    eigenvalue mu of (A - sigma I)^{-1} gives lambda = sigma + 1/mu. The LU
    is complex-typed even for a real A: for a real-typed A, scipy's
    shift-invert mode at a complex shift iterates on the real part of the
    inverted operator and can return another eigenvalue (about omega0 away
    on dq networks).
    The left eigenvector comes from the same LU by conjugate-transposed
    solves, whose dominant eigenvalue must be conj(mu) again: a second
    eigenvalue as near to ``sigma`` (a real shift halfway between a
    conjugate pair) could otherwise lend its left vector. The eigenvalue's
    condition number ||x|| ||y|| / |y^H x| must not exceed the 1e12 limit of
    ``eigendecompose``; a defective eigenvalue has y^H x = 0. Fixed start
    vectors make repeated calls bit-identical. Models with fewer than three
    states, too small for ARPACK, go through ``eigendecompose``.

    Raises
    ------
    DefectiveMatrixError
        If the eigenvalue's condition number exceeds 1e12.
    OracleError
        If ``sigma`` is an eigenvalue (the shift is exactly singular), if two
        eigenvalues are about equally near it, or if ARPACK does not
        converge.
    """
    # imported here, not at module level: loading scipy.sparse.linalg would
    # lengthen every CLI start-up, also for runs that never re-solve a mode
    import scipy.sparse
    import scipy.sparse.linalg as spla

    A = np.asarray(A)
    n = A.shape[0]
    if n < 3:
        lam = eigendecompose(A).eigenvalues
        return complex(lam[np.argmin(np.abs(lam - sigma))])
    shifted = scipy.sparse.csc_matrix(A, dtype=complex) - sigma * scipy.sparse.identity(
        n, dtype=complex, format="csc"
    )
    try:
        lu = spla.splu(shifted)
    except RuntimeError as exc:
        raise OracleError(f"shift {sigma} is an eigenvalue of A: {exc}") from None
    v0 = np.ones(n, dtype=complex)
    # ARPACK's default of 20 Arnoldi vectors doubles the solves; the shift
    # sits near the wanted eigenvalue, so 8 converge within one restart
    ncv = min(n, 8)

    def dominant(trans: str) -> tuple[complex, np.ndarray]:
        op = spla.LinearOperator(
            (n, n), matvec=lambda b: lu.solve(b, trans=trans), dtype=complex
        )
        try:
            mu, vec = spla.eigs(op, k=1, ncv=ncv, v0=v0)
        except spla.ArpackError as exc:
            raise OracleError(f"shift-invert eigensolve at {sigma} failed: {exc}") from None
        return complex(mu[0]), vec[:, 0]

    mu, x = dominant("N")
    mu_y, y = dominant("H")
    lam = sigma + 1.0 / mu
    # |conj(mu_y) - mu| / |mu| is the distance between the two runs'
    # eigenvalues over |lambda_y - sigma|. Rounding keeps it of the order of
    # cond * eps (about 2e-4 at the condition limit); two distinct
    # eigenvalues tied in distance to sigma put it well above 1 %.
    if abs(np.conj(mu_y) - mu) > 1e-2 * abs(mu):
        raise OracleError(
            f"ambiguous nearest eigenvalue: {lam} and {sigma + 1.0 / np.conj(mu_y)} "
            f"are about equally near the shift {sigma}"
        )
    overlap = abs(np.vdot(y, x))
    cond = np.linalg.norm(x) * np.linalg.norm(y) / overlap if overlap else np.inf
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise DefectiveMatrixError(
            f"eigenvalue {lam} has condition number {cond:.3e} exceeding {_COND_LIMIT:.1e}"
        )
    return lam


def _mode_index(eig: EigenStructure, lam: complex) -> int:
    dist = np.abs(eig.eigenvalues - lam)
    i = int(np.argmin(dist))
    if dist[i] > 1e-6 * (1.0 + abs(lam)):
        raise OracleError(f"{lam} is not an eigenvalue (nearest is {eig.eigenvalues[i]})")
    return i


def _require_simple(eig: EigenStructure, i: int, scale: float) -> None:
    others = np.delete(eig.eigenvalues, i)
    if others.size == 0:
        return
    gap = float(np.min(np.abs(others - eig.eigenvalues[i])))
    if gap == 0.0 or gap < 1e-8 * scale:
        raise RepeatedEigenvalueError(
            f"eigenvalue {eig.eigenvalues[i]} is repeated or near-multiple (gap {gap:.3e})"
        )


def participation_matrix(eig: EigenStructure) -> np.ndarray:
    """Participation matrix P with p_ki = phi_ki * psi_ik.

    Column i measures the relative participation of each state in mode i and
    sums to one; p_ki equals the sensitivity of lambda_i to the k-th diagonal
    entry of A.
    """
    return eig.right * eig.left.T


def eigenvalue_sensitivity_matrix(eig: EigenStructure, i: int) -> np.ndarray:
    """Entrywise sensitivity of eigenvalue i to the state matrix:
    entry (k, j) = d lambda_i / d a_kj = psi_ik * phi_ji."""
    psi_i = eig.left[i, :]
    phi_i = eig.right[:, i]
    return psi_i[:, None] * phi_i[None, :]


def resolvent_residue(A: np.ndarray, lam: complex) -> np.ndarray:
    """Residue of (sI - A)^{-1} at a simple eigenvalue: the outer product
    phi_i psi_i. Equals the limit (s - lam)(sI - A)^{-1} as s -> lam."""
    A = np.asarray(A)
    eig = eigendecompose(A)
    i = _mode_index(eig, lam)
    _require_simple(eig, i, np.linalg.norm(A))
    return np.outer(eig.right[:, i], eig.left[i, :])


def parameter_sensitivity_ss(
    eig: EigenStructure,
    i: int,
    dA_drho: np.ndarray,
    delta_rho: float | None = None,
):
    """First-order eigenvalue sensitivity to a scalar parameter of A.

    Returns ``(dlambda/drho, dlambda)`` where the second entry is the
    predicted shift for ``delta_rho`` (None when no step is given). The value
    is tr((phi_i psi_i) . dA/drho), the sign fixed so central finite
    differences over rho agree.
    """
    dA = np.asarray(dA_drho)
    n = eig.n
    if dA.shape != (n, n):
        raise OracleError(f"dA/drho has shape {dA.shape}, expected {(n, n)}")
    # |lambda|_max lower-bounds every operator norm of A and stands in for it
    _require_simple(eig, i, float(np.max(np.abs(eig.eigenvalues))))
    sens = complex(eig.left[i, :] @ dA @ eig.right[:, i])
    return sens, (sens * delta_rho if delta_rho is not None else None)


def transfer_matrix(model: StateSpaceModel, s: complex) -> np.ndarray:
    """Full transfer matrix C (sI - A)^{-1} B + D at one frequency."""
    return state_space_response(model.A, model.B, model.C, model.D, s)


def extract_port_transfer(model: StateSpaceModel, sel: PortSelection, s: complex) -> np.ndarray:
    """Transfer matrix restricted to a port selection: C1 (sI-A)^{-1} B1 + D1.

    With current-injection inputs and voltage outputs over all buses this is
    exactly the whole-system impedance matrix Z(s).
    """
    nu = model.B.shape[1]
    ny = model.C.shape[0]
    for k in sel.inputs:
        if not 0 <= k < nu:
            raise OracleError(f"input index {k} outside [0, {nu})")
    for k in sel.outputs:
        if not 0 <= k < ny:
            raise OracleError(f"output index {k} outside [0, {ny})")
    rows = np.asarray(sel.outputs, dtype=int)
    cols = np.asarray(sel.inputs, dtype=int)
    return state_space_response(
        model.A, model.B[:, cols], model.C[rows, :], model.D[np.ix_(rows, cols)], s
    )
