"""State-space ground truth: interconnection, eigenstructure, sensitivities.

When every apparatus carries a state-space realization, the whole network
can be assembled into one linear model with per-bus dq current injections
as inputs and per-bus dq voltage deviations as outputs. Its transfer
matrix equals the whole-system impedance Z(s), which makes this module the
oracle against which the impedance-side analysis is checked: eigenvalues
of A are the modes, and the resolvent residue phi*psi carries the
sensitivities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .admittance_assembly import (
    _I2,
    _J,
    ElementRef,
    block_slice,
    frame_rotation,
)
from .network_model import (
    ApparatusAttachment,
    NetworkDescription,
    SeriesBranch,
    ShuntElement,
    StateSpaceRealization,
)

__all__ = [
    "OracleError",
    "UnsupportedForOracleError",
    "DefectiveMatrixError",
    "EigenStructure",
    "oracle_capable",
    "Interconnection",
    "scaled_element",
    "interconnect",
    "eigendecompose",
    "nearest_eigenvalue",
    "eigenvector_pair",
    "updated_eigenvalues",
    "swept_eigenvalues",
    "swept_eigenvector_pair",
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
# the secular function sums the _NEAR poles nearest lambda_i exactly and the
# others as _MOMENTS terms of their Taylor series about lambda_i, which
# holds while an iterate is within _REACH x the distance to the nearest of
# them; an iterate beyond that sums every pole exactly
_NEAR = 16
_MOMENTS = 12
_REACH = 0.1
# bytes of one chunk of modes' moments and near-pole terms, a complex
# (modes, _MOMENTS + _NEAR, updates, k x k) stack, and of any per-entry
# stack of the secular solve
_GRID_BYTES = 1 << 24


class OracleError(Exception):
    """Base class for state-space oracle failures."""


class UnsupportedForOracleError(OracleError):
    """The network contains an element without a state-space realization."""


class DefectiveMatrixError(OracleError):
    """The state matrix is (numerically) defective; no eigenbasis exists."""


@dataclass(frozen=True, eq=False)
class EigenStructure:
    """Eigenvalues with right eigenvectors (columns of ``right``) and left
    eigenvectors (rows of ``left``), normalized so that left @ right = I.

    Of a real matrix, as LAPACK's ``dgeev`` gives them: a complex pair is
    two adjacent columns, the eigenvalue of positive imaginary part first,
    with x_j = a + ib and x_{j+1} = a - ib exactly. So X = Xr D U, with the
    real Xr = [.. a b ..] (:meth:`real_right`), D = sqrt(2) on each pair's
    two columns and 1 elsewhere, and U unitary; and the left rows of a pair
    are (r_j -+ i r_{j+1}) / 2 exactly, with r the rows of Xr^-1
    (:meth:`real_left`)."""

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    # ||right||_2 and ||right^-1||_2: the extreme singular values of Xr D,
    # which are those of X, since U is unitary
    norms: tuple[float, float]

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def pairs(self) -> np.ndarray:
        """The first column j of each complex pair; j + 1 is its conjugate."""
        return np.flatnonzero(self.eigenvalues.imag > 0)

    def real_right(self) -> np.ndarray:
        """Xr, read off ``right`` exactly: Re x_j and Re x_{j+1} = a, and
        -Im x_{j+1} = b of each pair; Re x of a real eigenvalue."""
        return _real_columns(self.eigenvalues, self.right)

    def real_left(self) -> np.ndarray:
        """Xr^-1, read off ``left`` exactly: 2 Re y_j = r_j and
        2 Im y_{j+1} = r_{j+1} of each pair; Re y of a real eigenvalue."""
        lam = self.eigenvalues
        Ri = np.where((lam.imag < 0)[:, None], self.left.imag, self.left.real)
        Ri *= np.where(lam.imag != 0, 2.0, 1.0)[:, None]
        return Ri

    def complex_columns(self, M: np.ndarray) -> np.ndarray:
        """N X from the real M = N Xr: column j + i column j + 1 and its
        conjugate for each pair, as complex128."""
        j = self.pairs
        out = M.astype(complex)
        out.imag[..., j] = M[..., j + 1]
        out.imag[..., j + 1] = -M[..., j + 1]
        out.real[..., j + 1] = M[..., j]
        return out


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
        return SeriesBranch(kind=b.kind, from_bus=b.from_bus, to_bus=b.to_bus, R=b.R / factor,
                            L=b.L / factor, ratio=b.ratio)
    if kind == "shunt":
        sh = net.shunts[idx]
        value = sh.value * factor if sh.kind == "capacitive" else sh.value / factor
        return ShuntElement(bus=sh.bus, kind=sh.kind, value=value)
    if kind == "apparatus":
        app = net.apparatus[idx]
        m = app.model
        if not isinstance(m, StateSpaceRealization):
            raise UnsupportedForOracleError(
                f"apparatus[{idx}] at bus {app.bus} has no state-space realization"
            )
        model = StateSpaceRealization(A=m.A, B=m.B * factor, C=m.C, D=m.D * factor)
        return ApparatusAttachment(bus=app.bus, model=model, theta=app.theta)
    raise OracleError(f"unknown element kind '{kind}'")


class Interconnection:
    """The closed-system state-space model of one network, with the
    bookkeeping that rebuilds single rows of its state model.

    Every state row belongs to one block: a bus voltage, a branch current,
    an inductive-shunt current or an apparatus's states; ``state_names``
    names each row, and each block's row slice is recorded once, when the
    states are numbered. ``model`` is what :func:`interconnect` returns, and
    raises what it raises. :meth:`element_rows`, the one builder of row
    updates, gives the rows of A and B that replacing elements changes, from
    the same block formulas, so no changed network is rebuilt;
    :meth:`element_updates` filters those of A for elements scaled by
    :func:`scaled_element`. ``eig`` is the eigenstructure of A, computed on
    first use."""

    def __init__(self, net: NetworkDescription):
        for idx, app in enumerate(net.apparatus):
            if not isinstance(app.model, StateSpaceRealization):
                raise UnsupportedForOracleError(
                    f"apparatus[{idx}] at bus {app.bus} has no state-space realization"
                )
        self.net = net
        self._kinds = {"branch": net.branches, "shunt": net.shunts, "apparatus": net.apparatus}
        n = net.n_buses
        # the shunts, then the apparatus, at each bus: what its totals sum
        self._at_bus: dict[int, list[ElementRef]] = {bus: [] for bus in range(1, n + 1)}
        for si, sh in enumerate(net.shunts):
            self._at_bus[sh.bus].append(("shunt", si))
        for ai, app in enumerate(net.apparatus):
            self._at_bus[app.bus].append(("apparatus", ai))
        self._rot = [frame_rotation(app.theta) for app in net.apparatus]
        totals = dict(enumerate(zip(*self._totals([(bus, None) for bus in range(1, n + 1)])), 1))

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
        self._P, self._Q = np.zeros((nu, nx)), np.zeros((nu, nu))
        for bus in range(1, n + 1):
            self._voltage_map(bus, totals[bus][1], self._P, self._Q)

        # --- state equations, block by block ------------------------------
        A = np.zeros((nx, nx))
        B = np.zeros((nx, nu))
        blocks = list(self._slices)
        for block, rows in zip(blocks, self._rows(blocks, self._P, self._Q,
                                                  [totals.get(idx) for _, idx in blocks])):
            A[self._slices[block]], B[self._slices[block]] = rows

        self.state_names = tuple(state_names)
        self.model = StateSpaceRealization(A=A, B=B, C=self._P, D=self._Q)
        # the realization holds read-only copies: keep one of each
        self._P, self._Q = self.model.C, self.model.D

    @functools.cached_property
    def eig(self) -> EigenStructure:
        return eigendecompose(self.model.A)

    @functools.cached_property
    def a_norm(self) -> float:
        """||A||_F of the state matrix."""
        return float(np.linalg.norm(self.model.A))

    @functools.cached_property
    def eig_errors(self) -> tuple[np.ndarray, float]:
        """How far ``eig`` is from exact: the column residuals
        ||A X_j - lambda_j X_j|| of the right eigenvectors X, and
        ||X X^-1 - I||_F of the computed inverse, both in real arithmetic
        on the real columns Xr of X: one product A Xr and one Xr Xr^-1,
        which equals X X^-1 (see :class:`EigenStructure`)."""
        eig = self.eig
        lam, j, Xr = eig.eigenvalues, eig.pairs, eig.real_right()
        # A x - lambda x = (A a - alpha a + beta b) + i (A b - alpha b - beta a)
        # for x = a + ib and lambda = alpha + i beta; its conjugate's is the
        # conjugate
        E = self.model.A @ Xr
        E -= Xr * lam.real
        rho = np.linalg.norm(E, axis=0)
        rho[j] = rho[j + 1] = np.hypot(
            np.linalg.norm(E[:, j] + Xr[:, j + 1] * lam.imag[j], axis=0),
            np.linalg.norm(E[:, j + 1] - Xr[:, j] * lam.imag[j], axis=0))
        del E
        # X X^-1 = Xr D U U^H D^-1 Xr^-1 = Xr Xr^-1
        P = Xr @ eig.real_left()
        P.flat[::eig.n + 1] -= 1.0
        return rho, float(np.linalg.norm(P))

    def _element(self, ref: tuple[str, int]):
        return self._kinds[ref[0]][ref[1]]

    def _totals(self, pairs, elements=None):
        """Capacitance and static conductance at the bus of each pair (bus,
        ref): the terms of its shunts and apparatus summed in their order,
        with element ``ref`` (unless None) replaced by ``elements[k]``."""
        at_bus = [self._at_bus[bus] for bus, _ in pairs]
        index = {r: k for k, r in enumerate(dict.fromkeys(r for rs in at_bus for r in rs))}
        replaced = [k for k, (_, ref) in enumerate(pairs) if ref is not None]
        refs = [*index, *(pairs[k][1] for k in replaced)]
        els = [self._element(r) for r in index] + [elements[k] for k in replaced]
        kind = np.array([getattr(el, "kind", "apparatus") for el in els])
        value = np.array([getattr(el, "value", 0.0) for el in els])
        caps = np.append(np.where(kind == "capacitive", value, 0.0), 0.0)
        G = np.zeros((len(els) + 1, 2, 2))  # the last term is zero
        res = np.flatnonzero(kind == "resistive")
        G[res] = _I2 / value[res][:, None, None]
        app = np.flatnonzero(kind == "apparatus")
        if app.size:
            T = np.array([self._rot[refs[k][1]] for k in app])
            D = np.array([els[k].model.D for k in app])
            G[app] = T @ D @ T.swapaxes(1, 2)
        pick, s = np.full((len(pairs), max(map(len, at_bus), default=0)), -1), len(index)
        for e, ((_, ref), rs) in enumerate(zip(pairs, at_bus)):
            pick[e, :len(rs)] = [s if r == ref else index[r] for r in rs]
            s += ref is not None
        cap, total = np.zeros(len(pairs)), np.zeros((len(pairs), 2, 2))
        for k in pick.T:
            cap, total = cap + caps[k], total + G[k]
        return cap, total

    def _voltage_map(self, bus: int, G: np.ndarray, P: np.ndarray, Q: np.ndarray) -> None:
        """Write a bus's rows of P and Q (zeros or an eliminated voltage before):
        its voltage state with capacitance, else eliminated through static G."""
        rows = block_slice(bus)
        if ("bus", bus) in self._slices:
            P[rows, self._slices[("bus", bus)]] = _I2
            return
        if abs(np.linalg.det(G)) < 1e-12 * max(1.0, np.linalg.norm(G)) ** 2:
            raise UnsupportedForOracleError(
                f"bus {bus} voltage is undefined: no capacitive shunt and "
                "singular static conductance"
            )
        Gi = np.linalg.inv(G)
        P[rows] = -Gi @ self._drawn[rows]
        Q[rows, rows] = Gi

    def _rows(self, blocks, P, Q, totals, elements=None) -> list:
        """``(A_rows, B_rows)`` of each block of ``blocks`` (repeats
        allowed), from the bus voltage map (P, Q), ``totals[k]`` (capacitance,
        static conductance) of a bus block k, and ``elements[k]``, unless
        None, in place of any other block k's own element. Each kind is one
        stacked pass in the operations and order of a single block's
        formulas, so every row is the same bit for bit, whatever is stacked
        with it."""
        nx, nu, w0 = self._nx, self._nu, self.net.omega0
        P3, Q3 = P.reshape(-1, 2, nx), Q.reshape(-1, 2, nu)  # bus b's rows are [b - 1]
        out: list = [None] * len(blocks)
        by_kind: dict[str, list] = {"bus": [], "series": []}
        for k, block in enumerate(blocks):
            kind, idx = block
            if kind == "bus":  # C V' = u - G V - drawn(x) - w0 C J V
                by_kind["bus"].append((k, idx, *totals[k]))
                continue
            el = self._element(block) if elements is None or elements[k] is None else elements[k]
            if kind == "branch":
                by_kind["series"].append((k, el.R / el.L, el.from_bus, 1.0 / (el.L * el.ratio),
                                          el.to_bus, -1.0 / el.L))
            elif kind == "shunt":  # inductive: a branch without resistance
                by_kind["series"].append((k, 0.0, el.bus, 1.0 / el.value, el.bus, 0.0))
            else:
                coeff = el.model.B @ self._rot[idx].T
                A, B = np.zeros((el.model.n_states, nx)), np.zeros((el.model.n_states, nu))
                A[:, self._slices[block]] += el.model.A
                A += coeff @ P[block_slice(el.bus)]
                B += coeff @ Q[block_slice(el.bus)]
                out[k] = A, B
        for kind, stack in by_kind.items():
            if not stack:
                continue
            at, *columns = map(np.array, zip(*stack))
            n = len(at)
            A, B = np.zeros((n, 2, nx)), np.zeros((n, 2, nu))
            rows = np.array([self._slices[blocks[k]].start for k in at])[:, None] + np.arange(2)
            own = (np.arange(n)[:, None, None], np.arange(2)[:, None], rows[:, None])
            if kind == "bus":  # P of a bus with capacitance is I at its voltage states
                bus, cap, G = columns[0], columns[1][:, None, None], columns[2]
                A -= self._drawn.reshape(-1, 2, nx)[bus - 1] / cap
                B[(*own[:2], (2 * bus - 2)[:, None, None] + np.arange(2))] += _I2 / cap
                A[own] += -G / cap
                A[own] += -w0 * _J
            else:
                ratio, b1, s1, b2, s2 = columns
                A[own] += -ratio[:, None, None] * _I2 - w0 * _J
                for bus, s in ((b1, s1), (b2, s2)):
                    A += s[:, None, None] * P3[bus - 1]
                    B += s[:, None, None] * Q3[bus - 1]
            for k, a, b in zip(at, A, B):
                out[k] = a, b
        return out

    def element_rows(self, changes) -> list:
        """Per pair ``(ref, element)`` of ``changes``: the state rows that
        replacing element ``ref`` by ``element`` (of the same kind and state
        count) can change, and those rows of the new network's A and B, as
        ``(rows, A_rows, B_rows)``; or the ``UnsupportedForOracleError`` of
        a replacement that leaves a bus voltage undefined.

        A branch or an inductive shunt writes its own rows: no other row
        reads its R, L or value, and the voltage maps C and D do not depend
        on them. A capacitive or resistive shunt and an apparatus change
        their bus's totals (:meth:`_totals`): at a bus with capacitance they
        write its voltage rows, and an apparatus with states its own rows;
        at a bus without capacitance, every row reading its eliminated
        voltage, the apparatus's own among them (and its rows of C and D,
        which are not returned). The changes that keep the voltage maps are
        one stacked pass of the block formulas (:meth:`_rows`); one at a bus
        without capacitance is a pass of its own, on a copy of the maps."""
        out: list = [None] * len(changes)
        node = [p for p, (ref, el) in enumerate(changes)
                if ref[0] != "branch" and getattr(el, "kind", None) != "inductive"]
        cap, G = self._totals([(changes[p][1].bus, changes[p][0]) for p in node],
                              elements=[changes[p][1] for p in node])
        totals = dict(zip(node, zip(cap, G)))
        # per pass: a voltage map, blocks with their totals and elements, and
        # each change's first and last block
        passes = [(self._P, self._Q, [], [], [], [])]
        for p, (ref, el) in enumerate(changes):
            total, stage = totals.get(p), passes[0]
            if total is None:
                picked = [ref]
            elif ("bus", el.bus) in self._slices:
                picked = [("bus", el.bus), ref] if ref in self._slices else [("bus", el.bus)]
            else:  # an apparatus with states is one of the bus's readers
                stage = (self._P.copy(), self._Q.copy(), [], [], [], [])
                try:
                    self._voltage_map(el.bus, total[1], *stage[:2])
                except UnsupportedForOracleError as exc:
                    out[p] = exc
                    continue
                passes.append(stage)
                picked = self._readers[el.bus]
            blocks, given_totals, given, bounds = stage[2:]
            bounds.append((p, len(blocks), len(blocks) + len(picked)))
            blocks += picked
            given_totals += [total] * len(picked)
            given += [el if block == ref else None for block in picked]
        for P, Q, blocks, given_totals, given, bounds in passes:
            parts = self._rows(blocks, P, Q, given_totals, given)
            rows = np.array([r for b in blocks for r in range(self._slices[b].start,
                                                              self._slices[b].stop)], dtype=int)
            A_rows = np.concatenate([np.zeros((0, self._nx)), *(a for a, _ in parts)])
            B_rows = np.concatenate([np.zeros((0, self._nu)), *(b for _, b in parts)])
            ends = np.cumsum([0, *(len(a) for a, _ in parts)]).tolist()
            for p, first, last in bounds:
                lo, hi = ends[first], ends[last]
                out[p] = rows[lo:hi], A_rows[lo:hi], B_rows[lo:hi]
        return out

    def element_updates(self, refs, factor: float) -> list:
        """Per element of ``refs``, ``(rows, A_rows)``: the rows of A that
        scaling its admittance by ``factor`` (:func:`scaled_element`)
        changes, from :meth:`element_rows`, less those it leaves
        bit-identical; or the ``UnsupportedForOracleError`` of a scaling
        that leaves a bus voltage undefined."""
        out = self.element_rows([(ref, scaled_element(self.net, ref, factor)) for ref in refs])
        live = [p for p, update in enumerate(out) if not isinstance(update, Exception)]
        if not live:
            return out
        rows = np.concatenate([out[p][0] for p in live])
        A_rows = np.concatenate([out[p][1] for p in live])
        kept = np.any(A_rows != self.model.A[rows], axis=1)
        starts = np.cumsum([0, *(len(out[p][0]) for p in live)])
        ends = np.append(0, np.cumsum(kept))[starts].tolist()
        rows, A_rows = rows[kept], A_rows[kept]
        for p, lo, hi in zip(live, ends, ends[1:]):
            out[p] = rows[lo:hi], A_rows[lo:hi]
        return out


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


def _real_columns(lam: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Xr of :class:`EigenStructure` from eigenvalues ``lam`` and their
    complex right eigenvectors."""
    return np.where(lam.imag < 0, -right.imag, right.real)


def eigendecompose(A: np.ndarray) -> EigenStructure:
    """Eigenvalues with mutually normalized right/left eigenvectors of a
    real matrix A.

    ``numpy.linalg.eig`` (LAPACK ``geev``) gives the eigenvalues and right
    eigenvectors X; both are cast to complex128, which numpy returns as
    float64 when every eigenvalue is real. The rest is real arithmetic on the real columns Xr
    of X (see :class:`EigenStructure`): the singular values of X are those
    of Xr D, from one real SVD, and the left eigenvectors, the rows of
    X^-1 = U^H D^-1 Xr^-1, come from one real inverse, which enforces
    left @ right = I up to inversion error.

    Raises DefectiveMatrixError when the eigenvector matrix condition number
    exceeds 1e12 (near-defective A).
    """
    A = np.asarray(A)
    if not np.isrealobj(A):
        raise OracleError("eigendecompose needs a real matrix")
    lam, right = (a.astype(complex, copy=False) for a in np.linalg.eig(A))
    Xr = _real_columns(lam, right)
    sv = np.linalg.svd(Xr * np.where(lam.imag != 0, np.sqrt(2.0), 1.0), compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise DefectiveMatrixError(
            f"eigenvector matrix condition number {cond:.3e} exceeds {_COND_LIMIT:.1e}"
        )
    Ri = np.linalg.inv(Xr)
    del Xr
    # (r_j - i r_{j+1}) / 2 and its conjugate for each pair; r_j at a real
    # eigenvalue
    j = np.flatnonzero(lam.imag > 0)
    Ri *= np.where(lam.imag != 0, 0.5, 1.0)[:, None]
    left = Ri.astype(complex)
    left.imag[j] = -Ri[j + 1]
    left.imag[j + 1] = Ri[j + 1]
    left.real[j + 1] = Ri[j]
    return EigenStructure(eigenvalues=lam, right=right, left=left,
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
    (sI - A)^{-1} at ``lam``.

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
    # conjugate-transposed solves, and no impedance-route run, oracle
    # analyze or sweep whose steps are all certified comes here
    from scipy.linalg.lapack import get_lapack_funcs

    n = A.shape[0]
    sigma = lam + 16 * np.finfo(float).eps * (np.linalg.norm(A) or 1.0)
    M = A - sigma * np.eye(n)
    x = y = np.random.default_rng(0).standard_normal(n).astype(complex)
    # LAPACK's LU (real at a real sigma) and its complex solves, as scipy's
    # lu_factor and lu_solve call them, without their per-call checks
    (getrf,), (getrs,) = get_lapack_funcs(("getrf",), (M,)), get_lapack_funcs(("getrs",), (M, x))
    lu, piv, _ = getrf(M, overwrite_a=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(2):
            x, y = getrs(lu, piv, x)[0], getrs(lu, piv, y, trans=2)[0]
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
    laid out (update, eigenvalue), its entries given as index arrays ``e``
    and ``m``. V^T, W = V^T X, Z^T and T, which stacks w_j z_j^T over the
    updates in one row per state j, are formed once; :meth:`select` takes
    the eigenvalues of the grid's columns and forms their moments. A caller
    that builds many grids on one eigenbasis passes its Xr
    (:meth:`EigenStructure.real_right`) as ``real_right``."""

    def __init__(self, system: Interconnection, updates, real_right=None):
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
        Xr = eig.real_right() if real_right is None else real_right
        self.W = eig.complex_columns(self.Vt.reshape(-1, n) @ Xr).reshape(n_up, k, n)
        self.Zt = eig.left.T[self.rows]
        self.Zt[padded] = 0.0
        self.T = (self.W[:, :, None] * self.Zt[:, None]).transpose(3, 0, 1, 2).reshape(n, -1)
        w, z = np.linalg.norm(self.W, axis=1), np.linalg.norm(self.Zt, axis=1)
        # ||z_j||^2, ||w_j||^2, ||z_j|| rho_j and ||w_j z_j^T||, per update and state
        self.norms = np.stack([z * z, w * w, z * system.eig_errors[0], w * z])
        self.a_norm = system.a_norm + np.linalg.norm(self.Vt, axis=(1, 2))

    def select(self, indices, far: bool = True) -> "_SecularGrid":
        """Make eigenvalues ``indices`` the grid's columns: the poles i, with
        w_i and z_i per update, the _NEAR poles nearest each, the distance R
        to the others (the far poles), their moments sum_j (R C_j)^(p+1) T_j
        for p < _MOMENTS, with C_j = 1 / (lambda_j - lambda_i), and their
        sums that bound what the moments leave out, per update. Without
        ``far`` no pole is far: every entry sums every pole exactly, and the
        moments' remainder eta is 0."""
        self.pole = pole = np.asarray(indices, dtype=int)
        self.w_i, self.z_i = (v[:, :, pole].swapaxes(1, 2) for v in (self.W, self.Zt))
        if not far:
            self.moments, self.radius = None, np.full(pole.size, np.inf)
            self.far_sums = np.zeros((4, len(self.W), pole.size))
            return self
        gap = self.lam - self.lam[pole, None]
        dist = np.abs(gap)
        dist[np.arange(pole.size), pole] = -1.0
        order = np.argsort(dist, axis=1)[:, 1:]
        self.near = order[:, :_NEAR]
        far = np.zeros(gap.shape, dtype=bool)
        np.put_along_axis(far, order[:, _NEAR:], True, axis=1)
        self.radius = np.min(dist, axis=1, where=far, initial=np.inf)
        scaled = np.divide(self.radius[:, None], gap, out=np.zeros_like(gap), where=far)
        powers = np.cumprod(np.repeat(scaled[:, None], _MOMENTS, axis=1), axis=1)
        self.moments = np.ascontiguousarray((powers.reshape(-1, gap.shape[1]) @ self.T).reshape(
            pole.size, _MOMENTS, len(self.W), -1).swapaxes(1, 2))
        r = np.abs(scaled)
        weights = np.stack([r * r, r * r, r, r * np.abs(powers[:, -1])])
        self.far_sums = (weights @ self.norms.swapaxes(1, 2)).swapaxes(1, 2)
        return self

    def _batches(self, e, m, inside):
        """``(at, near, moments)`` per batch of entries within ``_GRID_BYTES``:
        those ``inside`` with their pole's _NEAR nearest others and the
        moments, the others, one update's at a time, with every other pole
        (``near`` None)."""
        outside = np.flatnonzero(~inside)
        groups = [(np.flatnonzero(inside), True)] + [
            (outside[e[outside] == u], False) for u in sorted(set(e[outside].tolist()))]
        for group, moments in groups:
            if not group.size:
                continue
            width = self.near.shape[1] if moments else self.lam.size
            size = max(1, _GRID_BYTES // (16 * self.k * self.k * (width + _MOMENTS)))
            for at in (group[s:s + size] for s in range(0, group.size, size)):
                yield at, self.near[m[at]] if moments else None, moments

    def _cauchy(self, m, mu):
        """The Cauchy matrix C = 1 / (lambda_j - mu) of entries ``m`` at
        ``mu`` over every pole, 0 at each entry's own, stacked on its
        elementwise square: (2, entries, n)."""
        C = np.empty((2, mu.size, self.lam.size), dtype=complex)
        np.subtract(self.lam, mu[:, None], out=C[0])
        np.divide(1.0, C[0], out=C[0])
        C[0, np.arange(mu.size), self.pole[m]] = 0.0
        np.multiply(C[0], C[0], out=C[1])
        return C

    def evaluate(self, e, m, mu, near, moments: bool):
        """At the iterates ``mu``, with the poles ``near`` (a row per entry,
        or None: every other pole, entries of one update) summed exactly and,
        if ``moments``, the far ones from their moments: a = M0^-1 w_i,
        b = M0^-T z_i, g(mu), h = b^T M0' a and ||M0 a - w_i||."""
        n, k = mu.size, self.k
        T = self.T.reshape(len(self.T), len(self.W), -1)
        if near is None:  # M0 - I = C T and M0' = C^2 T: one Cauchy-matrix product
            S = (self._cauchy(m, mu).reshape(2 * n, -1) @ T[:, e[0]]).reshape(2, n, -1)
            S = S.swapaxes(0, 1)
        else:
            d = 1.0 / (self.lam[near] - mu[:, None])
            S = np.stack([d, d * d], 1) @ T[near, e[:, None]]  # M0 - I and M0', flattened
        if moments:  # Taylor series of the far poles' 1/(lambda_j - mu) and its derivative
            R = self.radius[m][:, None]
            powers = np.ones((n, _MOMENTS), dtype=complex)
            np.cumprod(np.repeat((mu - self.lam[self.pole[m]])[:, None] / R, _MOMENTS - 1, axis=1),
                       axis=1, out=powers[:, 1:])
            coef = np.zeros((n, 2, _MOMENTS), dtype=complex)
            coef[:, 0] = powers / R
            coef[:, 1, 1:] = np.arange(1, _MOMENTS) * powers[:, :-1] / (R * R)
            S += coef @ self.moments[m, e]
        S = S.reshape(n, 2, k, k)
        M0 = S[:, 0] + np.eye(k)
        w_i, z_i = self.w_i[e, m], self.z_i[e, m]
        a, b = _solve_each(np.concatenate([M0, M0.swapaxes(1, 2)]),
                           np.concatenate([w_i, z_i])[..., None])[..., 0].reshape(2, n, k)
        g = self.lam[self.pole[m]] - mu + np.sum(z_i * a, axis=-1)
        h = np.einsum("nk,nkl,nl->n", b, S[:, 1], a)
        return a, b, g, h, np.linalg.norm((M0 @ a[..., None])[..., 0] - w_i, axis=-1)

    def newton(self, anchors: np.ndarray):
        """Newton on g from ``anchors`` (updates x columns): the iterates,
        which converged, and of each converged root mu = x - step what
        Newton's last evaluation, at x, gave. An iterate beyond _REACH x R
        from its pole sums every pole exactly."""
        mu = anchors.copy()
        converged = np.zeros(mu.shape, dtype=bool)
        last: dict[str, np.ndarray] = {}
        e, m = (i.ravel() for i in np.indices(mu.shape))
        for _ in range(_NEWTON_MAX_ITERATIONS):
            if e.size == 0:
                break
            x = mu[e, m]
            inside = np.abs(x - self.lam[self.pole[m]]) <= _REACH * self.radius[m]
            inside &= self.moments is not None  # else no pole is far
            values = None
            for at, near, moments in self._batches(e, m, inside):
                got = self.evaluate(e[at], m[at], x[at], near, moments)
                values = values or [np.empty((x.size,) + v.shape[1:], v.dtype) for v in got]
                for out, v in zip(values, got):
                    out[at] = v
            step = values[2] / (-1.0 - values[3])
            mu[e, m] = moved = x - step
            finite = np.isfinite(moved)
            done = finite & (np.abs(step) <= _NEWTON_STEP_TOL * np.abs(moved))
            for name, v in zip(("x", "step", "inside", "a", "b", "g", "h", "residual"),
                               (x, step, inside, *values)):
                if name not in last:
                    last[name] = np.zeros(mu.shape + v.shape[1:], v.dtype)
                last[name][e[done], m[done]] = v[done]
            converged[e[done], m[done]] = True
            e, m = e[finite & ~done], m[finite & ~done]
        return mu, converged, last

    def certificate(self, e, m, last):
        """Upper bounds on the backward errors and condition numbers of the
        roots mu = x - step of entries (e, m), from Newton's last evaluation
        at x (``last``), in O(k^2) per root beyond the near poles. With
        x = X c, A'x - mu x = U(M0 a - w_i) + (X X^-1 - I) U a
        + (A X - X Lambda) c + X (step c - g e_i), where g = -step (1 + h)
        and the moments miss M0 by at most eta (M0' by eta');
        ||x|| >= ||c|| / ||X^-1|| >= 1 / ||X^-1||;
        |c_j| <= |d_j| ||z_j|| ||a|| and |r_j| <= |d_j| ||w_j|| ||b|| off i;
        and |y^H x| >= |r c| - ||X^-1 X - I|| ||r|| ||c||, r c = 1 + h."""
        rho, delta = self.system.eig_errors
        x_norm, x_inv_norm = self.system.eig.norms
        kappa = x_norm * x_inv_norm
        x, inside, h = last["x"][e, m], last["inside"][e, m], last["h"][e, m]
        # near-pole sums of |d_j|^2 ||z_j||^2, |d_j|^2 ||w_j||^2 and |d_j| ||z_j|| rho_j
        near = np.empty((3, e.size))
        for at, poles, _ in self._batches(e, m, inside):
            if poles is None:  # every other pole, entries of one update
                size, norms = np.abs(self._cauchy(m[at], x[at])[0]), self.norms[:3, e[at[0]]]
                near[:2, at] = norms[:2] @ (size * size).T
                near[2, at] = size @ norms[2]
                continue
            size = np.abs(1.0 / (self.lam[poles] - x[at, None]))
            near[:, at] = np.sum(np.stack([size * size, size * size, size])
                                 * self.norms[:3, e[at, None], poles], axis=-1)
        t = np.where(inside, np.abs(x - self.lam[self.pole[m]]) / self.radius[m], 0.0)
        far = np.where(inside, 1.0 / self.radius[m], 0.0)  # 1/R, or 0: no far poles
        q = 1.0 / (1.0 - t)  # |d_j| <= q |C_j| at a far pole
        z2, w2, z_rho, wz = self.far_sums[:, e, m]
        a, b = (np.linalg.norm(last[v][e, m], axis=-1) for v in "ab")
        c_off = a * a * (near[0] + (q * far) ** 2 * z2)  # bounds sum_(j != i) |c_j|^2
        cr = np.sqrt((1.0 + c_off) * (1.0 + b * b * (near[1] + (q * far) ** 2 * w2)))
        eta = t ** _MOMENTS * q * far * wz
        eta_prime = t ** (_MOMENTS - 1) * (_MOMENTS * q + t * q * q) * far * far * wz
        residual = (last["residual"][e, m] + (eta + delta) * a + rho[self.pole[m]]
                    + a * (near[2] + q * far * z_rho)
                    + x_norm * np.abs(last["step"][e, m]) * np.sqrt(np.abs(h) ** 2 + c_off))
        overlap = np.abs(1.0 + h) - eta_prime * a * b - kappa * delta * cr
        return (residual * x_inv_norm / self.a_norm[e],
                np.where(overlap > 0, kappa * (1.0 + delta) * cr / overlap, np.inf))

    def vectors(self, e, m, at, a, b):
        """The eigenvectors x = X c and y^H = r X^-1 of entries (e, m) from
        a = M0^-1 w_i and b^T = z_i^T M0^-1 at ``at``: c = D Z a and
        r = b^T W D, with D = diag(1 / (lambda - at)), off the pole and -1
        at it. O(n^2) per entry."""
        d = 1.0 / (self.lam - at[:, None])
        c = d * (a[:, None] @ self.Zt[e])[:, 0]
        r = d * (b[:, None] @ self.W[e])[:, 0]
        c[np.arange(e.size), self.pole[m]] = r[np.arange(e.size), self.pole[m]] = -1.0
        return c @ self.system.eig.right.T, r @ self.system.eig.left

    def exact(self, e, m, mu, last):
        """Backward errors and condition numbers of roots ``mu`` of entries
        (e, m), from their :meth:`vectors` at Newton's last iterates."""
        A = self.system.model.A
        x, y_h = self.vectors(e, m, last["x"][e, m], last["a"][e, m], last["b"][e, m])
        # A x as two real products: A is real
        residual = x.real @ A.T + 1j * (x.imag @ A.T) - mu[:, None] * x
        np.add.at(residual, (np.arange(e.size)[:, None], self.rows[e]),
                  np.einsum("ekn,en->ek", self.Vt[e], x))
        x_norm = np.linalg.norm(x, axis=1)
        backward = np.linalg.norm(residual, axis=1) / (self.a_norm[e] * x_norm)
        cond = x_norm * np.linalg.norm(y_h, axis=1) / np.abs(np.sum(y_h * x, axis=1))
        return backward, cond

    def checked(self, mu, converged, last):
        """Which converged roots pass the backward-error limit, and their
        condition numbers: only roots that :meth:`certificate` leaves in
        doubt get :meth:`exact`."""
        e, m = np.nonzero(converged)
        backward, cond = self.certificate(e, m, last)
        doubt = np.flatnonzero(~((backward <= _BACKWARD_LIMIT) & (cond <= _COND_LIMIT)))
        size = max(1, _GRID_BYTES // (64 * self.lam.size))
        for at in (doubt[s:s + size] for s in range(0, doubt.size, size)):
            backward[at], cond[at] = self.exact(e[at], m[at], mu[e[at], m[at]], last)
        good, full = np.zeros(mu.shape, dtype=bool), np.full(mu.shape, np.inf)
        good[e, m], full[e, m] = backward <= _BACKWARD_LIMIT, cond
        return good, full


def updated_eigenvalues(system: Interconnection, indices, updates, anchors):
    """Where each eigenvalue ``indices[m]`` of the network's state matrix A
    moves under each of several row updates, from the eigenbasis of A
    alone, in one solve over the grid of eigenvalues and updates.

    ``updates`` holds ``(rows, A_rows)`` pairs as from
    :meth:`Interconnection.element_updates`: A' = A + U V^T with
    U = I[:, R] and V^T = A_rows - A[R]. The eigenvalues of A' are the roots
    of the secular equation det M(mu) = 0 with
    M(mu) = I + V^T X diag(1 / (lambda - mu)) X^-1 U = I + W D(mu) Z,
    where X holds the eigenvectors of A and lambda its eigenvalues (Golub,
    SIAM Review 1973); updates of fewer rows are padded with zero rows of
    V^T and zero columns of U. The pole at lambda_i is divided out:
    (lambda_i - mu) det M = det M0 g with M0 the sum without term i and
    g(mu) = lambda_i - mu + z_i^T M0^-1 w_i, regular at lambda_i, so that
    an anchor on lambda_i (a zero predicted shift) is a valid start. At
    the root, a = M0^-1 w_i and b^T = z_i^T M0^-1 give the eigenvectors
    x = X c and y^H = r X^-1, with c = D Z a and r = b^T W D off index i
    and -1 at it.

    Newton runs on g for the whole grid, entry (m, e) from
    ``anchors[m][e]``, in chunks of eigenvalues whose moments fit in
    ``_GRID_BYTES``. M0 - I = sum_j T_j / (lambda_j - mu), T_j = w_j z_j^T:
    the _NEAR poles nearest lambda_i are summed per entry, the others, at
    least R from lambda_i, as the first _MOMENTS terms of their Taylor
    series in delta = mu - lambda_i, whose coefficients sum_j C_j^(p+1) T_j,
    C_j = 1 / (lambda_j - lambda_i), are one matrix product per chunk for
    every update; an iterate beyond R / 10 sums every pole per entry. A
    Newton step thus costs O(k^2) per entry, whatever the number of states.

    Of a converged root and its conjugate (A' is real), the one nearer the
    anchor is taken. A root that is not finite (an iterate on another pole
    of M), has not converged within the iteration cap, or whose backward
    error ||A'x - mu x|| / (||A'|| ||x||) exceeds 1e-12 is replaced by the
    eigenvalue of A' nearest its anchor, from a dense solve
    (:func:`nearest_eigenvalue`). The backward error and the condition
    number ||x|| ||y|| / |y^H x| are bounded from Newton's last evaluation,
    with the series' remainder, and :attr:`Interconnection.eig_errors`; x
    and y are formed only where a bound misses its limit.

    Returns ``(roots, failures)``: the eigenvalues, an array of one row
    per index and one column per update, and a dict that maps (row,
    column) to the ``OracleError`` its solve raised instead
    (``DefectiveMatrixError`` when the condition number exceeds 1e12);
    such an entry of ``roots`` is nan.
    """
    indices = np.asarray(indices, dtype=int)
    if not updates or not indices.size:
        return np.empty((indices.size, len(updates)), dtype=complex), {}
    grid = _SecularGrid(system, updates)
    anchors = np.asarray(anchors, dtype=complex).reshape(indices.size, len(updates)).T
    mu, good = np.empty_like(anchors), np.empty(anchors.shape, dtype=bool)
    cond = np.empty(anchors.shape)
    step = max(1, _GRID_BYTES // (16 * (_NEAR + _MOMENTS) * grid.T.shape[1]))
    for at in (slice(k, k + step) for k in range(0, indices.size, step)):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            grid.select(indices[at])
            mu[:, at], converged, last = grid.newton(anchors[:, at])
            good[:, at], cond[:, at] = grid.checked(mu[:, at], converged, last)

    # A' is real, so the conjugate of a root is a root too: from an anchor
    # near the real axis Newton may reach either of a pair
    conj = np.abs(np.conj(mu) - anchors) < np.abs(mu - anchors)
    mu[conj] = np.conj(mu[conj])
    roots, failures = mu.T.copy(), {}
    for e, m in zip(*np.nonzero(~(good & (cond <= _COND_LIMIT)))):
        try:
            if good[e, m]:  # the condition number exceeds the limit: raises
                _check_condition(complex(roots[m, e]), cond[e, m])
            rows, A_rows = updates[e]
            perturbed = system.model.A.copy()
            perturbed[rows] = A_rows
            roots[m, e] = nearest_eigenvalue(perturbed, complex(anchors[e, m]))
        except OracleError as exc:
            roots[m, e], failures[m, e] = np.nan, exc
    return roots, failures


def _apart(mu: np.ndarray, radius: np.ndarray, others: np.ndarray, reach: np.ndarray) -> bool:
    """Whether every root mu_i lies farther than radius_i + reach_j from
    every point others_j but itself (``others`` starts with ``mu``). Only
    points whose real parts lie within r_i + max(reach) of mu_i's can be
    that close; those within twice that (a margin over the rounding of the
    window's bounds) are found by bisection of the points sorted by real
    part, and only they are compared, each pair by the test of every pair."""
    order = np.argsort(others.real, kind="stable")
    x = others.real[order]
    window = 2.0 * (radius + reach.max(initial=0.0))
    lo = np.searchsorted(x, mu.real - window, side="left")
    count = np.searchsorted(x, mu.real + window, side="right") - lo
    i = np.repeat(np.arange(mu.size), count)
    j = order[np.arange(i.size) + np.repeat(lo - np.cumsum(count) + count, count)]
    i, j = i[i != j], j[i != j]
    return bool(np.all(np.abs(mu[i] - others[j]) > radius[i] + reach[j]))


def swept_eigenvalues(system: Interconnection, rows, A_rows, anchors, real_right):
    """Every eigenvalue of A' = A + U V^T, the network's state matrix A with
    rows ``rows`` replaced by ``A_rows``, from the eigenbasis of A alone,
    with the secular equations they solve, for
    :func:`swept_eigenvector_pair`; or None when the roots found are not
    certified to be the whole spectrum.

    Root m is that of the secular function g of pole m (see
    :func:`updated_eigenvalues`). A' is real, so its roots come in
    conjugate pairs: only the poles of Im >= 0 are solved, by Newton from
    ``anchors[m]``, with every pole summed exactly: M0 - I = C T, one
    Cauchy-matrix product per iteration, O(n^2 k^2). Newton's last
    evaluation bounds each root's backward error and condition number (as
    in :func:`updated_eigenvalues`, without far poles), and their product
    with ||A'|| its error radius, to first order. Each complex pair's
    second root is the conjugate of its first, with the same radius. The
    roots are the spectrum of A' when all solved ones have converged within
    the 1e-12 and 1e12 limits, no two of the n lie within the sum of their
    radii (so they are n distinct eigenvalues: the solved roots against
    each other and against the conjugates of the complex poles' roots,
    each its own included), and the root of each real pole lies within its
    radius of the real axis. It is then made exactly real, as LAPACK gives
    it: ``(eigenvalues, grid)``, the grid's columns the poles of Im >= 0.
    ``real_right`` is Xr of A's eigenbasis (:meth:`EigenStructure.real_right`),
    which a sweep reads once for all its steps.
    """
    eig = system.eig
    upper = np.flatnonzero(eig.eigenvalues.imag >= 0)
    grid = _SecularGrid(system, [(rows, A_rows)], real_right).select(upper, far=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu, converged, last = grid.newton(np.asarray(anchors, dtype=complex)[None, upper])
        if not converged.all():
            return None
        backward, cond = grid.certificate(*np.nonzero(converged), last)
        mu = mu[0]
        radius = cond * backward * grid.a_norm[0]
        if not np.all((backward <= _BACKWARD_LIMIT) & (cond <= _COND_LIMIT)):
            return None
        real = eig.eigenvalues.imag[upper] == 0
        if np.any(np.abs(mu.imag[real]) > radius[real]):
            return None
        # the n roots are mu and the conjugates of the complex poles' roots
        others, reach = np.concatenate([mu, mu[~real].conj()]), np.append(radius, radius[~real])
        if not _apart(mu, radius, others, reach):
            return None
    mu.imag[real] = 0.0
    out = np.empty(eig.n, dtype=complex)
    out[upper] = mu
    out[eig.pairs + 1] = out[eig.pairs].conj()
    return out, grid


def swept_eigenvector_pair(grid: _SecularGrid, m: int, mu: complex):
    """Right and left eigenvectors ``(x, y_h)`` of root ``m``, ``mu``, of
    :func:`swept_eigenvalues`, normalized so that y_h @ x = 1, in O(n^2):
    x = X c and y^H = r X^-1 (see :func:`updated_eigenvalues`) from one
    evaluation at ``mu`` of the secular equations ``grid`` that
    :func:`swept_eigenvalues` returned with it, every pole summed exactly.
    None where they are not finite (``mu`` on another pole, or M0(mu)
    singular), and for a pole that is not a column of ``grid`` (Im < 0).
    Their condition number is left unchecked: a certified root's is within
    1e12.
    """
    column = int(np.searchsorted(grid.pole, m))
    if column == grid.pole.size or grid.pole[column] != m:
        return None
    at, first, pole = np.array([mu], dtype=complex), np.zeros(1, dtype=int), np.array([column])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b, *_ = grid.evaluate(first, pole, at, None, moments=False)
        (x,), (y_h,) = grid.vectors(first, pole, at, a, b)
        y_h = y_h / (y_h @ x)
    return (x, y_h) if np.isfinite(x).all() and np.isfinite(y_h).all() else None
