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

import functools
from dataclasses import dataclass, replace

import numpy as np

from .admittance_assembly import (
    _I2,
    _J,
    ElementRef,
    block_slice,
    frame_rotation,
)
from .network_model import NetworkDescription, StateSpaceRealization

__all__ = [
    "OracleError",
    "UnsupportedForOracleError",
    "DefectiveMatrixError",
    "RepeatedEigenvalueError",
    "EigenStructure",
    "oracle_capable",
    "Interconnection",
    "scaled_element",
    "interconnect",
    "eigendecompose",
    "nearest_eigenvalue",
    "eigenvector_pair",
    "updated_eigenvalues",
    "participation_matrix",
    "eigenvalue_sensitivity_matrix",
    "resolvent_residue",
    "parameter_sensitivity_ss",
]

# largest eigenvector-matrix or eigenvalue condition number accepted
_COND_LIMIT = 1e12
# Newton on the secular equation: iteration cap, and the step, relative to
# the iterate, below which it has converged
_NEWTON_MAX_ITERATIONS = 30
_NEWTON_STEP_TOL = 1e-13
# largest relative backward error accepted from a secular root before the
# dense nearest eigenvalue (nearest_eigenvalue) takes over
_BACKWARD_LIMIT = 1e-12
# bytes of one (modes, updates, states) complex stack of the secular solve:
# Newton and the certificates run over chunks of modes within it
_GRID_BYTES = 1 << 24


class OracleError(Exception):
    """Base class for state-space oracle failures."""


class UnsupportedForOracleError(OracleError):
    """The network contains an element without a state-space realization."""


class DefectiveMatrixError(OracleError):
    """The state matrix is (numerically) defective; no eigenbasis exists."""


class RepeatedEigenvalueError(OracleError):
    """Sensitivity requested for a repeated or near-multiple eigenvalue."""


@dataclass(frozen=True, eq=False)
class EigenStructure:
    """Eigenvalues with right eigenvectors (columns of ``right``) and left
    eigenvectors (rows of ``left``), normalized so that left @ right = I."""

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    norms: tuple[float, float]  # ||right||_2 and ||right^-1||_2, from its SVD

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


def scaled_element(net: NetworkDescription, ref: ElementRef, factor: float):
    """Element ``ref`` of ``net`` with its admittance scaled by ``factor``
    uniformly over s, through the matching physical parameters: series R
    and L down, shunt conductance and capacitance up (inductance down),
    apparatus B and D up."""
    kind, idx = ref
    if kind == "branch":
        b = net.branches[idx]
        return replace(b, R=b.R / factor, L=b.L / factor)
    if kind == "shunt":
        sh = net.shunts[idx]
        value = sh.value * factor if sh.kind == "capacitive" else sh.value / factor
        return replace(sh, value=value)
    if kind == "apparatus":
        app = net.apparatus[idx]
        m = app.model
        if not isinstance(m, StateSpaceRealization):
            raise UnsupportedForOracleError(
                f"apparatus[{idx}] at bus {app.bus} has no state-space realization"
            )
        return replace(app, model=StateSpaceRealization(A=m.A, B=m.B * factor, C=m.C,
                                                        D=m.D * factor))
    raise OracleError(f"unknown element kind '{kind}'")


class Interconnection:
    """The closed-system state-space model of one network, with the
    bookkeeping that rebuilds single rows of its state model.

    Every state row belongs to one block: a bus voltage, a branch current,
    an inductive-shunt current or an apparatus's states; ``state_names``
    names each row, and each block's row slice is recorded once, when the
    states are numbered. ``model`` is what :func:`interconnect` returns, and
    raises what it raises.
    :meth:`element_rows` gives the rows of A and B that replacing one
    element changes, from the same block formulas, so the changed network
    is never rebuilt; :meth:`element_update` gives those of A for a scaled
    element. ``eig`` is the eigenstructure of A, computed on first use.
    """

    def __init__(self, net: NetworkDescription):
        for idx, app in enumerate(net.apparatus):
            if not isinstance(app.model, StateSpaceRealization):
                raise UnsupportedForOracleError(
                    f"apparatus[{idx}] at bus {app.bus} has no state-space realization"
                )
        self.net = net
        n = net.n_buses
        # the shunts, then the apparatus, at each bus: what its totals sum
        self._at_bus: dict[int, list[ElementRef]] = {bus: [] for bus in range(1, n + 1)}
        for si, sh in enumerate(net.shunts):
            self._at_bus[sh.bus].append(("shunt", si))
        for ai, app in enumerate(net.apparatus):
            self._at_bus[app.bus].append(("apparatus", ai))
        self._rot = [frame_rotation(app.theta) for app in net.apparatus]
        totals = {bus: self._bus_totals(bus) for bus in range(1, n + 1)}

        # --- state indexing: the rows of each block ------------------------
        state_names: list[str] = []
        self._slices: dict[tuple[str, int], slice] = {}

        def number(block: tuple[str, int], names: list[str]) -> None:
            if names:
                self._slices[block] = slice(len(state_names), len(state_names) + len(names))
                state_names.extend(names)

        for bus in range(1, n + 1):
            if totals[bus][0] > 0:
                number(("bus", bus), [f"bus{bus}.vd", f"bus{bus}.vq"])
        for bi, b in enumerate(net.branches):
            number(("branch", bi), [f"branch{bi}:{b.from_bus}-{b.to_bus}.id",
                                    f"branch{bi}:{b.from_bus}-{b.to_bus}.iq"])
        for si, sh in enumerate(net.shunts):
            if sh.kind == "inductive":
                number(("shunt", si), [f"shunt{si}:bus{sh.bus}.id", f"shunt{si}:bus{sh.bus}.iq"])
        for ai, app in enumerate(net.apparatus):
            number(("apparatus", ai), [f"apparatus{ai}:bus{app.bus}.x{k}"
                                       for k in range(app.model.n_states)])
        self._nx = nx = len(state_names)
        self._nu = nu = 2 * n

        # --- current drawn from buses by state variables, and the blocks
        # reading each bus's voltage V = P x + Q u -------------------------
        drawn = np.zeros((nu, nx))
        self._readers: dict[int, list[tuple[str, int]]] = {bus: [] for bus in range(1, n + 1)}
        for block, cols in self._slices.items():
            kind, idx = block
            if kind == "bus":
                continue
            el = self._element(block)
            if kind == "branch":
                drawn[block_slice(el.from_bus), cols] += _I2 / el.ratio
                drawn[block_slice(el.to_bus), cols] -= _I2
                self._readers[el.from_bus].append(block)
                self._readers[el.to_bus].append(block)
            else:
                drawn[block_slice(el.bus), cols] += (
                    _I2 if kind == "shunt" else self._rot[idx] @ el.model.C)
                self._readers[el.bus].append(block)
        self._drawn = drawn

        # --- bus voltages: V = P x + Q u ----------------------------------
        self._P = np.zeros((nu, nx))
        self._Q = np.zeros((nu, nu))
        for bus in range(1, n + 1):
            rows = block_slice(bus)
            self._P[rows], self._Q[rows] = self._voltage_map(bus, totals[bus][1])

        # --- state equations, block by block ------------------------------
        A = np.zeros((nx, nx))
        B = np.zeros((nx, nu))
        for block, rows in self._slices.items():
            A[rows], B[rows] = self._block_rows(block, self._P, self._Q, totals)

        self.state_names = tuple(state_names)
        self.model = StateSpaceRealization(A=A, B=B, C=self._P, D=self._Q)
        # the realization holds read-only copies: keep one of each
        self._P, self._Q = self.model.C, self.model.D

    @functools.cached_property
    def eig(self) -> EigenStructure:
        return eigendecompose(self.model.A)

    @functools.cached_property
    def eig_errors(self) -> tuple[np.ndarray, float]:
        """How far ``eig`` is from exact: the column residuals
        ||A X_j - lambda_j X_j|| of the right eigenvectors X, and
        ||X X^-1 - I||_F of the computed inverse."""
        A, X = self.model.A, self.eig.right
        AX = A @ X.real + 1j * (A @ X.imag)  # A is real
        rho = np.linalg.norm(AX - X * self.eig.eigenvalues, axis=0)
        return rho, float(np.linalg.norm(X @ self.eig.left - np.eye(self.eig.n)))

    def _element(self, ref: tuple[str, int]):
        kind, idx = ref
        return {"branch": self.net.branches, "shunt": self.net.shunts,
                "apparatus": self.net.apparatus}[kind][idx]

    def _bus_totals(self, bus: int, ref=None, element=None) -> tuple[float, np.ndarray]:
        """(capacitance, static conductance) at ``bus``, with ``element``
        standing in for element ``ref`` when given."""
        cap, G = 0.0, np.zeros((2, 2))
        for r in self._at_bus[bus]:
            el = element if r == ref else self._element(r)
            if r[0] == "apparatus":
                T = self._rot[r[1]]
                G += T @ el.model.D @ T.T
            elif el.kind == "capacitive":
                cap += el.value
            elif el.kind == "resistive":
                G += _I2 / el.value
        return cap, G

    def _voltage_map(self, bus: int, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of P and Q for one bus: its voltage state if the bus carries
        capacitance, else eliminated through the static conductance G."""
        P = np.zeros((2, self._nx))
        Q = np.zeros((2, self._nu))
        if ("bus", bus) in self._slices:
            P[:, self._slices[("bus", bus)]] = _I2
            return P, Q
        if abs(np.linalg.det(G)) < 1e-12 * max(1.0, np.linalg.norm(G)) ** 2:
            raise UnsupportedForOracleError(
                f"bus {bus} voltage is undefined: no capacitive shunt and "
                "singular static conductance"
            )
        Gi = np.linalg.inv(G)
        P[:] = -Gi @ self._drawn[block_slice(bus)]
        Q[:, block_slice(bus)] = Gi
        return P, Q

    def _block_rows(self, block, P, Q, totals, element=None):
        """Rows of A and B of one block, from the bus voltage map (P, Q),
        the bus totals and ``element`` in place of the block's own."""
        kind, idx = block
        rows = self._slices[block]
        nr = rows.stop - rows.start
        A = np.zeros((nr, self._nx))
        B = np.zeros((nr, self._nu))
        w0 = self.net.omega0

        def voltage_term(coeff: np.ndarray, bus: int) -> None:
            vb = block_slice(bus)
            A[:, :] += coeff @ P[vb, :]
            B[:, :] += coeff @ Q[vb, :]

        if kind == "bus":
            cap, G = totals[idx]
            vb = block_slice(idx)
            # C V' = u - G V - drawn(x) - w0 C J V
            A[:, :] -= self._drawn[vb, :] / cap
            B[:, vb] += _I2 / cap
            voltage_term(-G / cap, idx)
            A[:, rows] += -w0 * _J
            return A, B
        el = element if element is not None else self._element(block)
        if kind == "branch":
            A[:, rows] += -(el.R / el.L) * _I2 - w0 * _J
            voltage_term(_I2 / (el.L * el.ratio), el.from_bus)
            voltage_term(-_I2 / el.L, el.to_bus)
        elif kind == "shunt":  # inductive
            A[:, rows] += -w0 * _J
            voltage_term(_I2 / el.value, el.bus)
        else:
            A[:, rows] += el.model.A
            voltage_term(el.model.B @ self._rot[idx].T, el.bus)
        return A, B

    def element_rows(self, ref: ElementRef, element) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, A_rows, B_rows)``: the state rows R that replacing element
        ``ref`` by ``element`` (of the same kind and state count) can change,
        and those rows of the new network's A and B.

        A series element or an inductive shunt writes its own two rows: no
        other row reads its R, L or value, and the voltage maps C and D do
        not depend on them. A capacitive or resistive shunt and an apparatus
        change their bus's totals: the bus voltage rows, or, at a bus without
        capacitance, every row reading that bus's eliminated voltage (and
        then that bus's rows of C and D as well, which are not returned); an
        apparatus also writes its own rows.

        Raises
        ------
        UnsupportedForOracleError
            If the new element leaves a bus voltage undefined.
        """
        kind, _ = ref
        P, Q = self._P, self._Q
        totals: dict[int, tuple[float, np.ndarray]] = {}
        blocks = []
        if kind == "branch" or (kind == "shunt" and element.kind == "inductive"):
            blocks.append(ref)
        else:
            bus = element.bus
            totals[bus] = self._bus_totals(bus, ref, element)
            if ("bus", bus) in self._slices:
                blocks.append(("bus", bus))
            else:
                P, Q = P.copy(), Q.copy()
                P[block_slice(bus)], Q[block_slice(bus)] = self._voltage_map(bus, totals[bus][1])
                blocks += self._readers[bus]
            if ref in self._slices and ref not in blocks:
                blocks.append(ref)
        parts = [(self._slices[block],
                  self._block_rows(block, P, Q, totals, element if block == ref else None))
                 for block in blocks]
        rows = np.concatenate([np.arange(r.start, r.stop) for r, _ in parts])
        return (rows, np.concatenate([a for _, (a, _) in parts]),
                np.concatenate([b for _, (_, b) in parts]))

    def element_update(self, ref: ElementRef, factor: float) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, A_rows)``: the rows of A that scaling element ``ref``'s
        admittance by ``factor`` (as :func:`scaled_element`) changes, from
        :meth:`element_rows`, so the scaled network is never rebuilt. Rows
        the scaling leaves bit-identical are dropped.

        Raises
        ------
        UnsupportedForOracleError
            If the scaling leaves a bus voltage undefined.
        """
        rows, A_rows, _ = self.element_rows(ref, scaled_element(self.net, ref, factor))
        changed = np.any(A_rows != self.model.A[rows], axis=1)
        return rows[changed], A_rows[changed]


def interconnect(net: NetworkDescription) -> StateSpaceRealization:
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
    return Interconnection(net).model


# ---------------------------------------------------------------------------
# Eigenstructure and sensitivities
# ---------------------------------------------------------------------------


def eigendecompose(A: np.ndarray) -> EigenStructure:
    """Eigenvalues with mutually normalized right/left eigenvectors.

    ``numpy.linalg.eig`` (LAPACK ``geev``, the routine ``scipy.linalg.eig``
    calls too) gives the eigenvalues and right eigenvectors; both are cast
    to complex128, which numpy returns as float64 when every eigenvalue is
    real. Left eigenvectors are the rows of the inverse of the
    right-eigenvector matrix, which enforces left @ right = I up to
    inversion error.

    Raises DefectiveMatrixError when the eigenvector matrix condition number
    exceeds 1e12 (near-defective A).
    """
    lam, Phi = (a.astype(complex, copy=False) for a in np.linalg.eig(np.asarray(A)))
    sv = np.linalg.svd(Phi, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise DefectiveMatrixError(
            f"eigenvector matrix condition number {cond:.3e} exceeds {_COND_LIMIT:.1e}"
        )
    Psi = np.linalg.inv(Phi)
    return EigenStructure(eigenvalues=lam, right=Phi, left=Psi,
                          norms=(float(sv[0]), float(1.0 / sv[-1])))


def nearest_eigenvalue(A: np.ndarray, sigma: complex) -> complex:
    """The eigenvalue of A nearest the shift ``sigma``, with its conditioning
    checked.

    All eigenvalues come from ``numpy.linalg.eigvals`` (LAPACK ``geev``, as
    in :func:`eigendecompose`), cast to complex128. Exactly repeated values
    count as one eigenvalue, so that a Jordan block reaches the conditioning
    check of :func:`eigenvector_pair`.

    Raises
    ------
    DefectiveMatrixError
        If the eigenvalue's condition number exceeds 1e12.
    OracleError
        If two distinct eigenvalues are equally near ``sigma``, to 1e-12
        relative.
    """
    lam = np.linalg.eigvals(np.asarray(A)).astype(complex, copy=False)
    dist = np.abs(lam - sigma)
    k = int(np.argmin(dist))
    tied = (dist <= dist[k] * (1.0 + 1e-12)) & (lam != lam[k])
    if np.any(tied):
        raise OracleError(
            f"ambiguous nearest eigenvalue: {lam[k]} and {lam[tied][0]} "
            f"are equally near the shift {sigma}"
        )
    eigenvector_pair(A, lam[k])
    return complex(lam[k])


def _check_condition(lam: complex, cond: float) -> None:
    """Raise DefectiveMatrixError unless the condition number ``cond`` of
    eigenvalue ``lam`` is within the 1e12 limit of ``eigendecompose``."""
    if not cond <= _COND_LIMIT:
        raise DefectiveMatrixError(
            f"eigenvalue {lam} has condition number {cond:.3e} exceeding {_COND_LIMIT:.1e}"
        )


def eigenvector_pair(A: np.ndarray, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """Right and left eigenvectors ``(x, y_h)`` of A at its eigenvalue
    ``lam``, normalized so that y_h @ x = 1: x y_h is the residue of
    (sI - A)^{-1} at ``lam`` (what :func:`resolvent_residue` gives).

    Two steps of inverse iteration each, from a fixed start vector, on one
    complex LU of A - sigma I, with sigma a few rounding units of ||A|| off
    ``lam``: at ``lam`` itself the LU can have an exactly zero pivot. The
    eigenvalue's condition number ||x|| ||y|| / |y^H x| must not exceed the
    1e12 limit of ``eigendecompose``; a defective eigenvalue has y^H x = 0.

    Raises
    ------
    DefectiveMatrixError
        If the eigenvalue's condition number exceeds 1e12.
    """
    # imported here, not at module level: numpy has no LU to reuse for the
    # conjugate-transposed solves, and an oracle analyze never comes here
    import scipy.linalg

    n = A.shape[0]
    sigma = lam + 16 * np.finfo(float).eps * (np.linalg.norm(A) or 1.0)
    lu = scipy.linalg.lu_factor(A - sigma * np.eye(n), check_finite=False)
    x = y = np.random.default_rng(0).standard_normal(n).astype(complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(2):
            x = scipy.linalg.lu_solve(lu, x, check_finite=False)
            y = scipy.linalg.lu_solve(lu, y, trans=2, check_finite=False)
            x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        overlap = np.vdot(y, x)
        _check_condition(lam, 1.0 / abs(overlap))
    return x, y.conj() / overlap


def _solve_each(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.linalg.solve(A, B) over a stack; where A is exactly singular the
    solution is infinite, and that matrix holds up no other."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full(B.shape, np.inf, dtype=complex)
        return np.concatenate([_solve_each(A[m:m + 1], B[m:m + 1]) for m in range(len(A))])


class _SecularGrid:
    """The secular equations of a network's state matrix A under each of
    several row ``updates`` (see :func:`updated_eigenvalues`), on a grid
    laid out (update, eigenvalue): V^T, W = V^T X and Z^T, which do not
    depend on the eigenvalue, are formed once; :meth:`select` takes the
    eigenvalues of the grid's columns. Methods take a rectangle ``ae`` x
    ``am`` of the grid (index arrays) and its iterates ``mu``."""

    def __init__(self, system: Interconnection, updates):
        A, eig = system.model.A, system.eig
        self.system, self.lam = system, eig.eigenvalues
        n_up, n = len(updates), A.shape[0]
        self.k = k = max(1, max(len(rows) for rows, _ in updates))
        self.rows = np.zeros((n_up, k), dtype=int)
        self.Vt = np.zeros((n_up, k, n))
        for e, (r, a) in enumerate(updates):
            self.rows[e, :len(r)] = r
            self.Vt[e, :len(r)] = a - A[r]
        padded = np.arange(k)[None, :] >= np.array([len(r) for r, _ in updates])[:, None]
        self.W = np.empty((n_up, k, n), dtype=complex)
        for e in range(n_up):  # each row of V^T reads a few states only
            cols = np.flatnonzero(self.Vt[e].any(axis=0))
            self.W[e] = self.Vt[e][:, cols] @ eig.right[cols]
        self.Zt = eig.left.T[self.rows]
        self.Zt[padded] = 0.0
        self.a_norm = np.linalg.norm(A) + np.linalg.norm(self.Vt, axis=(1, 2))

    def select(self, indices) -> "_SecularGrid":
        """Make eigenvalues ``indices`` the grid's columns: the poles, with
        w_i and z_i (column i of W and of Z^T) per update and ||X_i||."""
        self.pole = np.asarray(indices, dtype=int)
        self.w_i = self.W[:, :, self.pole].swapaxes(1, 2)
        self.z_i = self.Zt[:, :, self.pole].swapaxes(1, 2)
        self.x_i = np.linalg.norm(self.system.eig.right[:, self.pole], axis=0)
        return self

    def deflated(self, ae, am, mu):
        """D's diagonal d without the pole i, W D, a = M0^-1 w_i,
        b = M0^-T z_i and g(mu) at the iterates ``mu``."""
        k = self.k
        d = 1.0 / (self.lam - mu[..., None])
        d[:, np.arange(am.size), self.pole[am]] = 0.0
        WD = self.W[ae][:, None] * d[:, :, None, :]
        M0 = np.eye(k) + WD @ self.Zt[ae].swapaxes(1, 2)[:, None]
        w_i, z_i = self.w_i[ae][:, am], self.z_i[ae][:, am]
        a, b = (_solve_each(M.reshape(-1, k, k), v.reshape(-1, k, 1)).reshape(v.shape)
                for M, v in ((M0, w_i), (M0.swapaxes(-1, -2), z_i)))
        return d, WD, a, b, self.lam[self.pole[am]] - mu + np.sum(z_i * a, axis=-1)

    def newton(self, anchors: np.ndarray):
        """Newton on g from ``anchors``: the iterates, and which converged.
        Each iteration takes the rectangle that still has iterates moving."""
        mu = anchors.copy()
        converged = np.zeros(mu.shape, dtype=bool)
        active = np.ones(mu.shape, dtype=bool)
        for _ in range(_NEWTON_MAX_ITERATIONS):
            ae, am = np.flatnonzero(active.any(axis=1)), np.flatnonzero(active.any(axis=0))
            if ae.size == 0:
                break
            box = np.ix_(ae, am)
            d, WD, a, b, g = self.deflated(ae, am, mu[box])
            WD *= d[:, :, None, :]
            dM = WD @ self.Zt[ae].swapaxes(1, 2)[:, None]  # M0'(mu) = W D^2 Z
            step = g / (-1.0 - np.einsum("emk,emkl,eml->em", b, dM, a))
            live = active[box]
            moved = np.where(live, mu[box] - step, mu[box])
            finite = np.isfinite(moved)
            done = live & finite & (np.abs(step) <= _NEWTON_STEP_TOL * np.abs(moved))
            mu[box] = moved
            converged[box] |= done
            active[box] = live & finite & ~done
        return mu, converged

    def certificate(self, ae, am, mu):
        """Upper bounds on the backward errors and condition numbers of the
        roots ``mu``, and their coordinates c and r, in O(kN) per root from
        the errors of the eigenbasis: A'x - mu x = U(a + W c) + (X X^-1 - I) U a
        - g(mu) X_i + (A X - X Lambda) c, ||x|| >= ||c|| / ||X^-1||, and |y^H x|
        >= |r c| - ||X^-1 X - I|| ||r|| ||c|| with X^-1 X - I = X^-1 (X X^-1 - I) X."""
        d, WD, a, b, g = self.deflated(ae, am, mu)
        del WD  # only Newton needs it
        W, at = self.W[ae], (slice(None), np.arange(am.size), self.pole[am])
        c, r = d * (a @ self.Zt[ae]), d * (b @ W)
        c[at] = r[at] = -1.0
        rho, delta = self.system.eig_errors
        x_norm, x_inv_norm = self.system.eig.norms
        kappa = x_norm * x_inv_norm
        c_norm, r_norm = np.linalg.norm(c, axis=-1), np.linalg.norm(r, axis=-1)
        residual = (np.linalg.norm(a + c @ W.swapaxes(1, 2), axis=-1)
                    + delta * np.linalg.norm(a, axis=-1) + np.abs(g) * self.x_i[am]
                    + np.abs(c) @ rho)
        backward = residual * x_inv_norm / (self.a_norm[ae, None] * c_norm)
        overlap = np.abs(np.sum(r * c, axis=-1)) - kappa * delta * r_norm * c_norm
        cond = np.where(overlap > 0, kappa * (1.0 + delta) * c_norm * r_norm / overlap, np.inf)
        return backward, cond, c, r

    def exact(self, e, mu, c, r):
        """Backward errors and condition numbers of roots ``mu`` of updates
        ``e``, from x = X c and y^H = r X^-1."""
        A, eig = self.system.model.A, self.system.eig
        x = c @ eig.right.T
        y_h = r @ eig.left
        # A x as two real products: A is real
        residual = x.real @ A.T + 1j * (x.imag @ A.T) - mu[:, None] * x
        np.add.at(residual, (np.arange(e.size)[:, None], self.rows[e]),
                  np.einsum("ekn,en->ek", self.Vt[e], x))
        x_norm = np.linalg.norm(x, axis=1)
        backward = np.linalg.norm(residual, axis=1) / (self.a_norm[e] * x_norm)
        cond = x_norm * np.linalg.norm(y_h, axis=1) / np.abs(np.sum(y_h * x, axis=1))
        return backward, cond

    def checked(self, mu, converged):
        """Which converged roots pass the backward-error limit, and their condition
        numbers: only roots that :meth:`certificate` leaves in doubt get :meth:`exact`."""
        backward, cond, c, r = self.certificate(*map(np.arange, mu.shape), mu)
        doubt = converged & ~((backward <= _BACKWARD_LIMIT) & (cond <= _COND_LIMIT))
        if doubt.any():
            backward[doubt], cond[doubt] = self.exact(np.nonzero(doubt)[0], mu[doubt], c[doubt],
                                                      r[doubt])
        return converged & (backward <= _BACKWARD_LIMIT), cond


def updated_eigenvalues(system: Interconnection, indices, updates, anchors) -> list:
    """Where each eigenvalue ``indices[m]`` of the network's state matrix A
    moves under each of several row updates, from the eigenbasis of A
    alone, in one solve over the grid of eigenvalues and updates: W and Z
    (below) are formed once per call, and Newton and the certificates run
    over chunks of eigenvalues whose (eigenvalues, updates, states) complex
    stack fits in ``_GRID_BYTES``.

    ``updates`` holds ``(rows, A_rows)`` pairs as from
    :meth:`Interconnection.element_update`: A' = A + U V^T with U = I[:, R]
    and V^T = A_rows - A[R]. The eigenvalues of A' are the roots of the
    secular equation det M(mu) = 0 with
    M(mu) = I + V^T X diag(1 / (lambda - mu)) X^-1 U = I + W D(mu) Z,
    where X holds the eigenvectors of A and lambda its eigenvalues (Golub,
    SIAM Review 1973). Updates of fewer rows are padded with zero rows of
    V^T and zero columns of U, which leave det M unchanged, so that Newton
    runs for the whole grid at once, entry (m, e) from ``anchors[m][e]``.

    The pole at lambda_i is divided out: M = M0 + w_i z_i^T / (lambda_i - mu)
    with M0 the sum without term i, so (lambda_i - mu) det M = det M0 g,
    g(mu) = lambda_i - mu + z_i^T M0^-1 w_i. Newton runs on g, which is
    regular at lambda_i: an anchor on lambda_i itself (a zero predicted
    shift) is a valid start, and at first order g's root is
    lambda_i + z_i^T w_i, the state-space prediction. At the root,
    a = M0^-1 w_i and b^T = z_i^T M0^-1 are the null vectors of M, so the
    eigenvectors are x = X c and y^H = r X^-1, with c = D Z a and
    r = b^T W D off index i and -1 at it.

    Of a converged root and its conjugate (A' is real), the one nearer the
    anchor is taken. A root that is not finite (an iterate on another pole
    of M), has not converged within the iteration cap, or whose backward error
    ||A'x - mu x|| / (||A'|| ||x||) exceeds 1e-12 is replaced by the
    eigenvalue of A' nearest its anchor, from a dense solve
    (:func:`nearest_eigenvalue`). The backward error and the condition
    number ||x|| ||y|| / |y^H x| are bounded from c, r and
    :attr:`Interconnection.eig_errors`; x and y are formed only where a
    bound misses its limit.

    Returns one list per index with, per update, the eigenvalue or the
    ``OracleError`` its solve raised: ``DefectiveMatrixError`` when the
    condition number exceeds 1e12.
    """
    indices = np.asarray(indices, dtype=int)
    if not updates or not indices.size:
        return [[] for _ in indices]
    grid = _SecularGrid(system, updates)
    anchors = np.asarray(anchors, dtype=complex).reshape(indices.size, len(updates)).T
    mu, good = np.empty_like(anchors), np.empty(anchors.shape, dtype=bool)
    cond = np.empty(anchors.shape)
    step = max(1, _GRID_BYTES // (16 * len(updates) * system.eig.n))
    for at in (slice(k, k + step) for k in range(0, indices.size, step)):
        grid.select(indices[at])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mu[:, at], converged = grid.newton(anchors[:, at])
            good[:, at], cond[:, at] = grid.checked(mu[:, at], converged)

    # A' is real, so the conjugate of a root is a root too: from an anchor
    # near the real axis Newton may reach either of a pair
    conj = np.abs(np.conj(mu) - anchors) < np.abs(mu - anchors)
    mu[conj] = np.conj(mu[conj])
    out = mu.T.tolist()
    for e, m in zip(*np.nonzero(~(good & (cond <= _COND_LIMIT)))):
        try:
            if good[e, m]:  # the condition number exceeds the limit: raises
                _check_condition(out[m][e], cond[e, m])
            rows, A_rows = updates[e]
            perturbed = system.model.A.copy()
            perturbed[rows] = A_rows
            out[m][e] = nearest_eigenvalue(perturbed, complex(anchors[e, m]))
        except OracleError as exc:
            out[m][e] = exc
    return out


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


def parameter_sensitivity_ss(eig: EigenStructure, i: int, dA_drho: np.ndarray) -> complex:
    """First-order eigenvalue sensitivity dlambda/drho to a scalar parameter
    of A: tr((phi_i psi_i) . dA/drho), the sign fixed so central finite
    differences over rho agree."""
    dA = np.asarray(dA_drho)
    n = eig.n
    if dA.shape != (n, n):
        raise OracleError(f"dA/drho has shape {dA.shape}, expected {(n, n)}")
    # |lambda|_max lower-bounds every operator norm of A and stands in for it
    _require_simple(eig, i, float(np.max(np.abs(eig.eigenvalues))))
    return complex(eig.left[i, :] @ dA @ eig.right[:, i])
