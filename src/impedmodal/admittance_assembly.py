"""dq-frame admittance stamps and whole-system matrix assembly.

Every element maps to a 2x2 complex dq block; the network matrices are
2n x 2n with bus-major ordering: block (i, j) occupies rows 2(i-1)..2i-1
and columns 2(j-1)..2j-1 (0-based slices, 1-based bus numbering).

The whole-system admittance is Y(s) = Y_G(s) + Y_N(s), where Y_G is the
block-diagonal apparatus admittance and Y_N the passive nodal admittance;
the whole-system impedance is Z(s) = Y(s)^{-1}. A network's
:class:`StampTable` is the one source of an element's own admittance y(s)
and of its bus pair and transformer ratio: it evaluates every element once
per call, in one stacked pass per element kind (per group of apparatus),
names the first element that cannot be evaluated, and adds the elements'
bus blocks into Y from one table; an overlay that scales one element per
point scales it in that stack before the one stamp.

Every evaluator takes a scalar s or a 1-D array of M values of s (a
frequency grid); an array gives the matrices stacked as (M, ..., ...), each
equal bit for bit to its value at that s alone.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .network_model import (
    NetworkDescription,
    RationalMatrix,
    RationalModel,
    SampledResponse,
    StateSpaceRealization,
)

__all__ = [
    "AssemblyError",
    "EvaluationError",
    "SingularSystemError",
    "block_slice",
    "frame_rotation",
    "omega_block",
    "inv2_masked",
    "inv2",
    "dq_series_impedance",
    "transformer_stamp",
    "shunt_admittances",
    "state_space_response",
    "StampTable",
    "WholeSystemModel",
    "PerturbedModel",
    "ElementRef",
    "network_elements",
    "element_label",
    "overlay_admittance",
]

_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_I2 = np.eye(2)
# largest condition number of Y(s) that Z(s) = Y(s)^{-1} is formed at
_Y_COND_LIMIT = 1e13


class AssemblyError(Exception):
    """Base class for admittance-assembly failures."""


class EvaluationError(AssemblyError):
    """An element model cannot be evaluated at the requested s."""


class SingularSystemError(AssemblyError):
    """Y(s) is numerically singular: s sits (almost) exactly on a mode."""

    def __init__(self, s: complex, cond: float):
        super().__init__(f"whole-system admittance is singular at s = {s} (cond = {cond:.3e})")
        self.s = s
        self.cond = cond


def _first(s, bad) -> complex:
    """The first s, in grid order, at which ``bad`` (shaped like s) holds."""
    return complex(np.reshape(s, -1)[np.argmax(np.reshape(bad, -1))])


def block_slice(bus: int) -> slice:
    """Row/column slice of the 2x2 dq block belonging to 1-based bus index."""
    return slice(2 * (bus - 1), 2 * bus)


def frame_rotation(theta: float) -> np.ndarray:
    """Rotation T(theta) aligning a local dq frame to the global frame."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def omega_block(s, omega0: float) -> np.ndarray:
    """The dq block sI + w0 J of d/dt in a frame rotating at w0; stacked
    (M, 2, 2) over an array of s."""
    s = np.asarray(s, dtype=complex)
    out = np.empty(s.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = s
    out[..., 0, 1] = -omega0
    out[..., 1, 0] = omega0
    return out


def inv2_masked(M: np.ndarray):
    """Inverses of 2x2 blocks, stacked (..., 2, 2), by the adjugate, and a
    mask that is False where the determinant is zero or not finite (those
    blocks are left undivided and mean nothing)."""
    # [()] makes the entries of a single block numpy scalars (cheap per
    # call). The complex products are written out because numpy's complex
    # array loops may round them differently from scalar code: a block
    # must invert to the same bits alone and stacked, or modes that tie
    # in frequency can swap places between two otherwise equal runs.
    a, b, c, d = M[..., 0, 0][()], M[..., 0, 1][()], M[..., 1, 0][()], M[..., 1, 1][()]
    ar, ai, br, bi, cr, ci, dr, di = a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
    det = (ar * dr - ai * di) - (br * cr - bi * ci) + 1j * ((ar * di + ai * dr) - (br * ci + bi * cr))
    ok = (det != 0) & np.isfinite(det)
    adj = np.empty(M.shape, dtype=complex)
    adj[..., 0, 0] = d
    adj[..., 0, 1] = -b
    adj[..., 1, 0] = -c
    adj[..., 1, 1] = a
    return np.divide(adj, det[..., None, None], out=adj, where=ok[..., None, None]), ok


def inv2(M: np.ndarray, singular: Callable[[], Exception]) -> np.ndarray:
    """Inverse of a 2x2 block (or of stacked blocks) by the adjugate; raises
    ``singular()`` when a determinant is zero or not finite."""
    inv, ok = inv2_masked(M)
    if not ok.all():
        raise singular()
    return inv


def dq_series_impedance(R, L, omega0: float, s: complex) -> np.ndarray:
    """dq impedance block of a series RL element: [[R+sL, -w0 L], [w0 L, R+sL]];
    stacked (..., 2, 2) when R or L is an array."""
    # [()] keeps scalar R and L numpy scalars, which are much cheaper than
    # 0-d arrays per call
    R, L = np.asarray(R, dtype=float)[()], np.asarray(L, dtype=float)[()]
    diag = R + s * L
    z = np.empty(np.shape(diag) + (2, 2), dtype=complex)
    z[..., 0, 0] = z[..., 1, 1] = diag
    z[..., 0, 1] = -omega0 * L
    z[..., 1, 0] = omega0 * L
    return z


def transformer_stamp(y: np.ndarray, k: float):
    """Four nodal blocks (ii, ij, ji, jj) of a branch with series admittance y
    behind an ideal k:1 transformer on the i side.

    A line is the k = 1 case, which reduces to the symmetric (y, -y, -y, y)
    stamp. Stacked branches take an array of ratios that broadcasts with y.
    """
    if np.any(k == 0):
        raise AssemblyError("degenerate transformer ratio k = 0")
    y = np.asarray(y, dtype=complex)
    return y / k**2, -y / k, -y / k, y.copy()


def shunt_admittances(kind: str, value, omega0: float, s: complex):
    """dq admittance blocks of passive shunts of one kind, stacked over
    ``value`` and s (..., 2, 2), and a mask that is False where an inductive
    shunt is singular at s (plain True for the other kinds)."""
    value = np.asarray(value, dtype=float)[..., None, None]
    if kind == "resistive":
        y = _I2.astype(complex) / value
        return np.broadcast_to(y, np.broadcast_shapes(np.shape(s) + (1, 1), y.shape)).copy(), True
    if kind == "capacitive":
        return value * omega_block(s, omega0), True
    if kind == "inductive":
        return inv2_masked(value * omega_block(s, omega0))
    raise AssemblyError(f"unknown shunt kind '{kind}'")


def _evaluate_rational(coefficients, s: np.ndarray) -> np.ndarray:
    """K rational 2x2 models over s, stacked (..., K, 2, 2), from their
    numerator and denominator coefficient stacks (degree+1, K, 2, 2)."""
    num, den = np.zeros((2,) + s.shape + coefficients[0].shape[1:], dtype=complex)
    z = s[..., None, None, None]
    for y, stack in zip((num, den), coefficients):
        for c in stack:  # Horner in np.polyval's order: y = y s + c
            y *= z
            y += c
    if np.count_nonzero(den) < den.size:
        k, _, p, q = np.argwhere(den.reshape((-1,) + den.shape[-3:]) == 0)[0]
        raise EvaluationError(
            f"rational model entry ({p},{q}) has a pole at s = {complex(np.reshape(s, -1)[k])}"
        )
    return num / den


def _evaluate_sampled(model: SampledResponse, s: np.ndarray) -> np.ndarray:
    # Only evaluable on the imaginary axis; analytic continuation of measured
    # data comes from the rational-fit module instead.
    off_axis = np.abs(s.real) > 1e-12 * (1.0 + np.abs(s))
    if np.any(off_axis):
        raise EvaluationError(
            "sampled apparatus response is only defined on the imaginary axis; "
            "fit a rational surrogate for complex s"
        )
    w = s.imag
    f = model.frequencies
    outside = (w < f[0]) | (w > f[-1])
    if np.any(outside):
        raise EvaluationError(
            f"frequency {_first(w, outside).real:g} rad/s outside sampled range "
            f"[{f[0]:g}, {f[-1]:g}]"
        )
    hi = np.searchsorted(f, w)
    lo = np.maximum(hi - 1, 0)
    exact = f[hi] == w
    t = np.divide(w - f[lo], f[hi] - f[lo], out=np.zeros(w.shape), where=~exact)
    t = t[..., None, None]
    y = (1.0 - t) * model.blocks[lo] + t * model.blocks[hi]
    return np.where(exact[..., None, None], model.blocks[hi], y)


def state_space_response(A, B, C, D, s) -> np.ndarray:
    """Transfer matrix C (sI - A)^{-1} B + D at s; stacked (M, p, m) over an
    array of s, one LU solve per s. Models of one state count given as
    stacks (K, n, n), (K, n, m), (K, p, n), (K, p, m) give (..., K, p, m).

    Raises ``np.linalg.LinAlgError`` when sI - A is singular at some s.
    """
    s = np.asarray(s, dtype=complex)
    n = A.shape[-1]
    if n == 0:
        return np.broadcast_to(D, s.shape + D.shape).astype(complex)
    X = np.linalg.solve(s[(...,) + (None,) * A.ndim] * np.eye(n) - A, B.astype(complex))
    return C @ X + D


def _evaluate_state_space(A, B, C, D, s: np.ndarray) -> np.ndarray:
    try:
        return state_space_response(A, B, C, D, s)
    except np.linalg.LinAlgError:
        # name the first s of the grid at which the solve fails
        for x in np.reshape(s, -1):
            try:
                state_space_response(A, B, C, D, x)
            except np.linalg.LinAlgError:
                raise EvaluationError(
                    f"(sI - A) is singular at s = {complex(x)}: apparatus resonance"
                ) from None
        raise


class _ApparatusGroup:
    """Apparatus models that one pass evaluates: every ``RationalMatrix`` of
    a network (one Horner pass over their coefficient stacks, zero-padded at
    the top to one degree), its state-space models of one state count (one
    stacked solve), or one model of another kind. ``thetas`` are their
    frame angles; the rotations of those at theta != 0 are stacked."""

    def __init__(self, models, thetas):
        self.models = tuple(models)
        thetas = np.asarray(thetas, dtype=float)
        self.rotated = np.flatnonzero(thetas != 0.0)
        self.T = np.array([frame_rotation(t) for t in thetas[self.rotated]]).reshape(-1, 2, 2)
        first = self.models[0]
        if isinstance(first, RationalMatrix):
            # numerators, denominators: (degree+1, K, 2, 2); at finite s a
            # Horner step with c = +0.0 leaves y at +0, so padding keeps the bits
            self.coefficients = []
            for stacks in zip(*(m.coefficient_stacks for m in self.models)):
                depth = max(c.shape[0] for c in stacks)
                self.coefficients.append(np.stack(
                    [np.concatenate([np.zeros((depth - c.shape[0], 2, 2)), c]) for c in stacks],
                    axis=1))
        elif isinstance(first, StateSpaceRealization):
            self.matrices = [np.stack([getattr(m, name) for m in self.models])
                             for name in ("A", "B", "C", "D")]

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        """The models' admittances at s (complex), rotated into the global
        frame: T(theta) Y_local T(theta)^T; stacked (..., K, 2, 2)."""
        model = self.models[0]
        if isinstance(model, RationalMatrix):
            y = _evaluate_rational(self.coefficients, s)
        elif isinstance(model, StateSpaceRealization):
            y = _evaluate_state_space(*self.matrices, s)
        elif isinstance(model, RationalModel):
            y = model.evaluate(s)[..., None, :, :]
        elif isinstance(model, SampledResponse):
            y = _evaluate_sampled(model, s)[..., None, :, :]
        else:
            raise AssemblyError(f"unknown apparatus model type {type(model)!r}")
        if self.rotated.size:  # T^{-1} = T^T for a rotation
            rot = self.rotated
            y[..., rot, :, :] = self.T @ y[..., rot, :, :] @ self.T.swapaxes(1, 2)
        return y


# ---------------------------------------------------------------------------
# Element enumeration (shared by the sensitivity layers and reporting)
# ---------------------------------------------------------------------------

# An element reference is ("branch" | "shunt" | "apparatus", index into the
# corresponding NetworkDescription tuple).
ElementRef = tuple[str, int]


def network_elements(net: NetworkDescription) -> list[ElementRef]:
    """Stable enumeration of all stampable elements of the network."""
    groups = (("branch", net.branches), ("shunt", net.shunts), ("apparatus", net.apparatus))
    return [(kind, i) for kind, items in groups for i in range(len(items))]


def element_label(net: NetworkDescription, ref: ElementRef) -> str:
    kind, idx = ref
    if kind == "branch":
        b = net.branches[idx]
        return f"{b.kind}:{b.from_bus}-{b.to_bus}#{idx}"
    if kind == "shunt":
        s = net.shunts[idx]
        return f"shunt-{s.kind}:{s.bus}#{idx}"
    if kind == "apparatus":
        return f"apparatus:{net.apparatus[idx].bus}"
    raise AssemblyError(f"unknown element kind '{kind}'")


class StampTable:
    """Every element of one network, in :func:`network_elements` order:
    their admittances from one stacked evaluation, and the table of the bus
    blocks they add to Y(s). Built once per network.

    ``i``/``j`` hold each element's bus pair (j = 0, ground, for a shunt or
    an apparatus) and ``ratio`` its transformer ratio (1 for lines and node
    elements). Branches come first, with their ``R`` and ``L``; ``shunts``
    maps a shunt kind to the positions and values of its shunts. The table
    lists the four blocks (ii, ij, ji, jj) of each branch, from
    :func:`transformer_stamp`, then the (bus, bus) block y of each shunt and
    each apparatus: the order in which Y adds them up. ``groups`` holds the
    apparatus as one group of every ``RationalMatrix``, one per state count
    of the state-space models and one per model of another kind.
    """

    def __init__(self, net: NetworkDescription):
        self.net = net
        self.refs = network_elements(net)
        self.index = {ref: e for e, ref in enumerate(self.refs)}
        nb = self.n_branches = len(net.branches)
        nodes = [sh.bus for sh in net.shunts] + [app.bus for app in net.apparatus]
        self.i = np.array([b.from_bus for b in net.branches] + nodes, dtype=int)
        self.j = np.array([b.to_bus for b in net.branches] + [0] * len(nodes), dtype=int)
        self.ratio = np.array([b.ratio for b in net.branches] + [1.0] * len(nodes), dtype=float)
        self.R = np.array([b.R for b in net.branches], dtype=float)
        self.L = np.array([b.L for b in net.branches], dtype=float)
        kinds: dict = {}
        for e, sh in enumerate(net.shunts, start=nb):
            kinds.setdefault(sh.kind, []).append(e)
        self.shunts = {
            kind: (np.array(pos, dtype=int),
                   np.array([net.shunts[e - nb].value for e in pos], dtype=float))
            for kind, pos in kinds.items()
        }

    @functools.cached_property
    def groups(self) -> list:
        """(positions in the element stack, group) per group of apparatus,
        built at the first evaluation: a table read for its bus pairs and
        ratios alone stacks no apparatus model."""
        net, groups = self.net, {}
        for a, app in enumerate(net.apparatus):
            if isinstance(app.model, RationalMatrix):
                key = "rational"
            elif isinstance(app.model, StateSpaceRealization):
                key = app.model.n_states
            else:
                key = ("alone", a)
            groups.setdefault(key, []).append(a)
        return [(len(self.refs) - len(net.apparatus) + np.array(members),
                 _ApparatusGroup([net.apparatus[a].model for a in members],
                                 [net.apparatus[a].theta for a in members]))
                for members in groups.values()]

    @functools.cached_property
    def _transformers(self) -> np.ndarray:
        """The branches of ratio other than 1: only their blocks are formed
        by :func:`transformer_stamp`."""
        return np.flatnonzero(self.ratio[:self.n_branches] != 1.0)

    @functools.cached_property
    def _picks(self) -> tuple[np.ndarray, list]:
        """The cells of the flattened Y that the table adds to, and per pass
        k the entry of the flattened source stack of :meth:`stamp` that
        each cell with more than k contributions takes as its k-th, in
        table order; the cells are sorted by their count of contributions,
        largest first, so pass k covers a prefix of them."""
        nb, dim, n = self.n_branches, 2 * self.net.n_buses, len(self.refs)
        bi, bj = self.i[:nb], self.j[:nb]
        # the source block of each table block: y of every element, then -y
        # of every branch, then y/k^2 and -y/k of each transformer
        b = np.arange(nb)
        ii, ij = b.copy(), n + b
        tr = self._transformers
        ii[tr] = n + nb + np.arange(tr.size)
        ij[tr] = n + nb + tr.size + np.arange(tr.size)
        source = np.concatenate([np.stack([ii, ij, ij, b], axis=-1).reshape(-1),
                                 np.arange(nb, n)])
        rows = np.concatenate([np.stack([bi, bi, bj, bj], axis=-1).reshape(-1), self.i[nb:]])
        cols = np.concatenate([np.stack([bi, bj, bi, bj], axis=-1).reshape(-1), self.i[nb:]])
        # entry (a, b) of block t lands at (2 rows[t] - 2 + a, 2 cols[t] - 2 + b)
        cell = ((2 * rows[:, None, None] - 2 + np.array([[0, 0], [1, 1]])) * dim
                + 2 * cols[:, None, None] - 2 + np.array([[0, 1], [0, 1]])).reshape(-1)
        order = np.argsort(cell, kind="stable")  # by cell, in table order within a cell
        cells, first, counts = np.unique(cell[order], return_index=True, return_counts=True)
        by_count = np.argsort(-counts, kind="stable")
        entry = (4 * source[:, None] + np.arange(4)).reshape(-1)
        passes = [entry[order[first[by_count[:np.count_nonzero(counts > k)]] + k]]
                  for k in range(counts.max(initial=0))]
        return cells[by_count], passes

    def _named(self, e: int, exc: AssemblyError) -> AssemblyError:
        """``exc`` named as Y names element e: ``branch i-j (kind): ``,
        ``shunt at bus k (kind): `` or ``apparatus at bus k: `` before its
        own message."""
        kind, idx = self.refs[e]
        if kind == "branch":
            b = self.net.branches[idx]
            name = f"branch {b.from_bus}-{b.to_bus} ({b.kind})"
        elif kind == "shunt":
            name = f"shunt at bus {self.net.shunts[idx].bus} ({self.net.shunts[idx].kind})"
        else:
            name = f"apparatus at bus {self.net.apparatus[idx].bus}"
        return type(exc)(f"{name}: {exc}")

    def evaluate(self, s) -> np.ndarray:
        """Every element's 2x2 admittance y(s), stacked (..., N, 2, 2) in
        element order: all branches in one pass, the shunts in one pass per
        kind, the apparatus in one pass per group, each over all of s. Where
        an element cannot be evaluated or stamped, raises the error of the
        first such element at its first such s, named as by Y: a passive
        one read off its pass's mask, an apparatus evaluated alone."""
        s = np.asarray(s, dtype=complex)
        net, nb = self.net, self.n_branches
        y = np.empty(s.shape + (len(self.refs), 2, 2), dtype=complex)
        ok = np.ones(y.shape[:-2], dtype=bool)
        z = dq_series_impedance(self.R, self.L, net.omega0, s[..., None])
        y[..., :nb, :, :], series = inv2_masked(z)
        ok[..., :nb] = series & (self.ratio[:nb] != 0)
        unknown = {}
        for kind, (pos, value) in self.shunts.items():
            try:
                y[..., pos, :, :], ok[..., pos] = shunt_admittances(kind, value, net.omega0,
                                                                   s[..., None])
            except AssemblyError as exc:  # a kind without a formula
                ok[..., pos], unknown[kind] = False, exc
        if not ok.all():
            e = int(np.argmin(ok.reshape(-1, ok.shape[-1]).all(axis=0)))
            kind, idx = self.refs[e]
            if kind == "shunt":
                sh = net.shunts[idx]
                exc = unknown.get(sh.kind) or EvaluationError(
                    f"inductive shunt at bus {sh.bus} is singular at s = {_first(s, ~ok[..., e])}")
            elif series[..., e].all():
                exc = AssemblyError("degenerate transformer ratio k = 0")
            else:
                b = net.branches[idx]
                exc = EvaluationError(f"branch {b.from_bus}-{b.to_bus} series impedance singular"
                                      f" at s = {_first(s, ~series[..., e])}")
            raise self._named(e, exc)
        for pos, group in self.groups:
            try:
                y[..., pos, :, :] = group.evaluate(s)
            except Exception:  # re-raised as the first apparatus that fails alone raises it
                for e, app in enumerate(net.apparatus, start=len(self.refs) - len(net.apparatus)):
                    try:
                        _ApparatusGroup([app.model], [app.theta]).evaluate(s)
                    except AssemblyError as exc:
                        raise self._named(e, exc) from exc
                raise
        return y

    def stamp(self, y: np.ndarray) -> np.ndarray:
        """Y from the element stack ``y`` of :meth:`evaluate`: every block of
        the table added into a zero 2n x 2n matrix in table order. A line
        stamps y, -y, -y, y, gathered from y and -y; only a transformer's
        y/k^2 and -y/k are formed, and at k = 1 they would be y and -y bit
        for bit. Pass k adds each cell's k-th contribution, starting from
        +0.0, so values and signs of zero are those of ``np.add.at`` over
        the table."""
        nb, dim, lead = self.n_branches, 2 * self.net.n_buses, y.shape[:-3]
        tr = self._transformers
        ii, ij, _, _ = transformer_stamp(y[..., tr, :, :], self.ratio[tr, None, None])
        entries = np.concatenate(  # the source blocks, flattened; no other copy stays alive
            [y, -y[..., :nb, :, :], ii, ij], axis=-3).reshape(lead + (-1,))
        cells, passes = self._picks
        total = np.zeros(lead + cells.shape, dtype=complex)
        for picks in passes:
            total[..., :picks.size] += entries[..., picks]
        Y = np.zeros(lead + (dim * dim,), dtype=complex)
        Y[..., cells] = total
        return Y.reshape(lead + (dim, dim))


class WholeSystemModel:
    """Evaluator for Y(s) = Y_G(s) + Y_N(s) and Z(s) over one network, stamped
    from its :class:`StampTable`.

    Pure functions of s (a scalar, or a 1-D array for the stacked (M, 2n, 2n)
    matrices over a grid); safe for concurrent evaluation. A sampled
    (measured) apparatus is evaluable on the imaginary axis only; replace it
    by its fitted ``RationalModel`` surrogate to evaluate at complex s.
    """

    def __init__(self, net: NetworkDescription):
        self.net = net
        self.table = StampTable(net)

    @property
    def dim(self) -> int:
        return 2 * self.net.n_buses

    def admittance(self, s) -> np.ndarray:
        return self.table.stamp(self.table.evaluate(s))

    def impedance(self, s) -> np.ndarray:
        Y = self.admittance(s)
        cond = np.linalg.cond(Y)
        singular = ~np.isfinite(cond) | (cond > _Y_COND_LIMIT)
        if np.any(singular):
            k = np.argmax(np.reshape(singular, -1))
            raise SingularSystemError(_first(s, singular), float(np.reshape(cond, -1)[k]))
        return np.linalg.inv(Y)


class PerturbedModel(WholeSystemModel):
    """Whole-system model with one element's admittance scaled by a factor.

    Y'(s) is stamped with the element's admittance y(s) replaced by
    ``factor * y(s)``; the scaling is uniform over s, so it corresponds to
    a physical parameter scaling of the element (conductance/capacitance
    up, or series impedance down).
    """

    def __init__(self, net, element: ElementRef, factor: float):
        super().__init__(net)
        self.element = element
        self.factor = factor

    def admittance(self, s) -> np.ndarray:
        return overlay_admittance(self, [self.element], self.factor, s,
                                  np.zeros(np.shape(s), dtype=int))


def overlay_admittance(model: WholeSystemModel, refs, factor: float, s, rows) -> np.ndarray:
    """Y at each point ``s[m]`` with element ``refs[rows[m]]`` scaled by
    ``factor``, stacked (M, 2n, 2n) (one matrix at a scalar s): one
    evaluation of every element of ``model``'s network over all the points,
    point m's element scaled by ``factor`` in that stack, and one stamp of
    the table. Point m equals ``PerturbedModel(model.net, refs[rows[m]],
    factor).admittance(s[m])`` bit for bit."""
    table = model.table
    positions = np.array([table.index[tuple(ref)] for ref in refs], dtype=int)
    y = table.evaluate(s)
    at = positions[np.asarray(rows)]  # point m's element, shaped like s
    y[(*np.indices(at.shape), at)] *= factor
    return table.stamp(y)
