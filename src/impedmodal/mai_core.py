"""Three-layer impedance-model participation analysis.

From the residue matrix of the whole-system impedance at a mode, this
module derives per-element admittance sensitivities (with the transformer
ratio correction), the three participation layers, per-parameter
sensitivities from the derivative of each element's own admittance,
first-order mode-shift predictions, and sweep/validation bookkeeping
against re-solved modes. The paper's branch splitting (closed-form
virtual-node impedances and residues) is a reference in the tests: it
gives the same branch parameter sensitivities, and the tests check that.

Layer semantics: layer 1 bounds/estimates an element's total participation
in a mode, layer 2 resolves it into damping (real) and frequency
(imaginary) effects, layer 3 projects it onto individual parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import admittance_assembly as assembly
from . import mass_oracle, rational_fit
from .admittance_assembly import _I2, ElementRef, WholeSystemModel, block_slice, omega_block
from .network_model import NetworkDescription

__all__ = [
    "AnalysisError",
    "TrackingError",
    "Location",
    "ModeRecord",
    "ValidationRecord",
    "SweepStep",
    "frobenius_inner",
    "admittance_sensitivity",
    "predict_mode_shift",
    "layer1_cauchy",
    "layer2",
    "enhanced_layer1",
    "layer3",
    "validate_prediction",
    "element_location",
    "element_layer_report",
    "LAYER3_PARAMS",
    "ModeLayers",
    "mode_layers",
    "branch_parameter_sensitivity",
    "oracle_system",
    "solve_modes",
    "track_mode",
    "validate_element_prediction",
    "validate_mode_predictions",
    "parameter_sweep",
]

class AnalysisError(Exception):
    """Base class for participation-analysis failures."""


class TrackingError(AnalysisError):
    """Mode continuation lost its branch (two modes collided)."""


@dataclass(frozen=True)
class Location:
    """Where an element sits: a node, a branch, or a transformer branch.

    Bus index 0 denotes ground; its impedance blocks are zero, which makes
    the branch formula degenerate gracefully to the node formula.
    """

    kind: str  # "node" | "branch" | "transformer"
    i: int
    j: int = 0
    ratio: float = 1.0


@dataclass(frozen=True, eq=False)
class ModeRecord:
    """One oscillatory mode with its whole-system impedance residue, kept as
    its rank-one factors (O(n) per mode): Res = outer(left, right), divided
    by ``denom`` where one is given; :attr:`residue` forms the matrix.

    ``provenance`` names the path that found the mode: "state-space" (an
    eigenvalue of the interconnected state matrix) or "newton-refined" (a
    zero of det Y refined from impedance data).
    """

    lam: complex
    left: np.ndarray  # (2n,): C x on the state-space route, u on the impedance route
    right: np.ndarray  # (2n,): y^H B on the state-space route, v on the impedance route
    provenance: str
    denom: Optional[complex] = None  # v^T Y'(lambda) u on the impedance route

    @property
    def residue(self) -> np.ndarray:  # the dense (2n, 2n) matrix
        res = np.outer(self.left, self.right)
        return res if self.denom is None else res / self.denom


@dataclass(frozen=True)
class ValidationRecord:
    """Predicted vs re-solved mode change with the relative error
    |predicted - actual| / |predicted|."""

    predicted: complex
    actual: complex
    error: float


@dataclass(frozen=True)
class SweepStep:
    """One step of a parameter sweep: prediction made at ``rho_before``,
    actual mode re-solved at ``rho_after``."""

    step: int
    rho_before: float
    rho_after: float
    lam_before: complex
    predicted: complex
    actual: complex
    error: float


# ---------------------------------------------------------------------------
# Core sensitivity algebra
# ---------------------------------------------------------------------------


def _scalar(x):
    """A 0-d result as a Python number; stacked results stay arrays."""
    return x.item() if np.ndim(x) == 0 else x


def _conj_t(d: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a 2x2 block or of stacked blocks (..., 2, 2)."""
    return np.conj(d).swapaxes(-1, -2)


def frobenius_inner(X: np.ndarray, Y: np.ndarray) -> complex:
    """Frobenius inner product with conjugation on the first argument; one
    product per block for stacked (..., 2, 2) arguments."""
    return _scalar(np.sum(np.conj(X) * Y, axis=(-2, -1)))


def _ratio_sensitivity(ii, jj, ij, ji, k) -> np.ndarray:
    """dlambda/dy = -(Res_ii/k^2 + Res_jj - Res_ij/k - Res_ji/k) of a branch
    behind an ideal k:1 transformer on the i side, from its four residue
    blocks (single or stacked). k = 1 is a line, and zero j blocks make it
    the node formula -Res_ii."""
    return -(ii / k**2 + jj - ij / k - ji / k)


def admittance_sensitivity(res: np.ndarray, location: Location) -> np.ndarray:
    """The sensitivity factor s of an element admittance, from the residue
    matrix: the 2x2 block that pairs with an admittance change through the
    Frobenius inner product, delta_lambda = <s, delta_y>, so dlambda/dy = s^H.

    Node element at bus i:   dlambda/dy = -Res_ii
    Branch between i and j:  dlambda/dy = -(Res_ii + Res_jj - Res_ij - Res_ji)
    Transformer, an ideal k:1 ratio on the i side (``Location("transformer",
    i, j, k)``): dlambda/dy = -(Res_ii/k^2 + Res_jj - Res_ij/k - Res_ji/k),
    the branch formula at k = 1.
    """
    kind, i, j = location.kind, location.i, location.j  # j = 0 (ground) for a node
    if kind not in ("node", "branch", "transformer"):
        raise AnalysisError(f"unknown location kind '{kind}'")
    k = location.ratio if kind == "transformer" else 1.0
    if k == 0:
        raise AnalysisError("degenerate transformer ratio k = 0")
    res = np.asarray(res, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)  # a block of ground
    d = _ratio_sensitivity(*(res[block_slice(p), block_slice(q)] if p and q else zero
                             for p, q in ((i, i), (j, j), (i, j), (j, i))), k)
    return _conj_t(d)


def predict_mode_shift(s_factor: np.ndarray, delta_y: np.ndarray) -> complex:
    """First-order mode shift for an element admittance change:
    delta_lambda = <s_factor, delta_y>."""
    return frobenius_inner(s_factor, delta_y)


def layer1_cauchy(s_factor: np.ndarray, y_at_lambda: np.ndarray) -> float:
    """Cauchy-Schwarz participation index ||s|| * ||y|| (one per block when
    stacked): eps times it bounds the shift for a relative admittance
    change of size eps."""
    return _scalar(
        np.linalg.norm(s_factor, axis=(-2, -1)) * np.linalg.norm(y_at_lambda, axis=(-2, -1))
    )


def layer2(s_factor: np.ndarray, y_at_lambda: np.ndarray) -> complex:
    """Signed participation sigma2 + j omega2 = <s, y>: the real part is the
    damping effect, the imaginary part the frequency effect of growing the
    element admittance."""
    return frobenius_inner(s_factor, y_at_lambda)


def enhanced_layer1(sigma2: float, omega2: float) -> float:
    """Enhanced total-participation index |sigma2 + j omega2|: the magnitude
    of layer 2, replacing the loose Cauchy bound."""
    return _scalar(np.hypot(sigma2, omega2))


def layer3(s_factor: np.ndarray, dy_drho: np.ndarray) -> complex:
    """Parameter sensitivity s_{lambda,rho} = <s, dy/drho>; the predicted
    shift for a step delta_rho is s_{lambda,rho} * delta_rho."""
    return frobenius_inner(s_factor, dy_drho)


def _dy_dL(y: np.ndarray, lam: complex, omega0: float) -> np.ndarray:
    """dy/dL = -y (sI + w0 J) y of an admittance y = z^-1 whose impedance
    holds L (sI + w0 J); single or stacked blocks."""
    return -y @ omega_block(lam, omega0) @ y


def _dy_dR(y: np.ndarray) -> np.ndarray:
    """dy/dR = -y y of an admittance y = z^-1 whose impedance holds R I."""
    return -y @ y


def validate_prediction(predicted: complex, actual: complex) -> ValidationRecord:
    """Relative estimation error |predicted - actual| / |predicted|."""
    if predicted == 0:
        raise AnalysisError("predicted shift is zero: relative error undefined")
    err = abs(predicted - actual) / abs(predicted)
    return ValidationRecord(predicted=complex(predicted), actual=complex(actual), error=float(err))


# ---------------------------------------------------------------------------
# Elements of a network
# ---------------------------------------------------------------------------


def element_location(net: NetworkDescription, ref: ElementRef) -> Location:
    kind, idx = ref
    if kind == "branch":
        b = net.branches[idx]
        if b.ratio != 1.0:
            return Location(kind="transformer", i=b.from_bus, j=b.to_bus, ratio=b.ratio)
        return Location(kind="branch", i=b.from_bus, j=b.to_bus)
    if kind == "shunt":
        return Location(kind="node", i=net.shunts[idx].bus)
    if kind == "apparatus":
        return Location(kind="node", i=net.apparatus[idx].bus)
    raise AnalysisError(f"unknown element kind '{kind}'")


def branch_parameter_sensitivity(
    net: NetworkDescription,
    branch_index: int,
    res: np.ndarray,
    lam: complex,
    param: str,
) -> complex:
    """Parameter sensitivity s_{lambda,rho} of a series branch, rho in {L, R}:
    <s, dy/drho> of the unsplit series admittance y, the same value as the
    branch's layer 3 in :func:`mode_layers`.

    The paper reaches it by splitting the branch at a virtual node
    (:func:`split_branch`, :func:`split_node_residues`,
    :func:`split_parameter_derivatives`); that route is equal to first
    order, but it subtracts nearly equal residue blocks when R is small
    against the inductive part, and it does not exist for R = 0.
    Transformers need no special case: the parameter sits in y, behind the
    ideal-ratio stamp that the sensitivity factor s already carries.
    """
    if param not in ("L", "R"):
        raise AnalysisError(f"branch parameter must be 'L' or 'R', got '{param}'")
    ref = ("branch", branch_index)
    s = admittance_sensitivity(res, element_location(net, ref))
    y = assembly.element_admittance(net, ref, lam)
    s_L, s_R = _direct_layer3(s, y, lam, net.omega0)
    return s_L if param == "L" else s_R


# ---------------------------------------------------------------------------
# All elements of one mode in one batched pass
# ---------------------------------------------------------------------------


def _direct_layer3(s: np.ndarray, y: np.ndarray, lam: complex, omega0: float):
    """Layer 3 (L, R) of branches, single or stacked, from the unsplit
    series admittance y."""
    return layer3(s, _dy_dL(y, lam, omega0)), layer3(s, _dy_dR(y))


def _shunt_value_derivative(kind: str, value, y: np.ndarray, lam: complex,
                            omega0: float) -> np.ndarray:
    """dy/dvalue of shunts of one kind with admittances y (single or stacked)."""
    if kind == "resistive":
        return -_I2.astype(complex) / np.asarray(value)[..., None, None] ** 2
    if kind == "capacitive":
        return np.broadcast_to(omega_block(lam, omega0), y.shape)
    return _dy_dL(y, lam, omega0)  # inductive, y = (value (sI + w0 J))^-1


# the parameters of each element kind's layer 3, in the order of the columns
# of ModeLayers.layer3
LAYER3_PARAMS = {"branch": ("L", "R"), "shunt": ("value",), "apparatus": ()}


@dataclass(frozen=True, eq=False)
class ModeLayers:
    """All three participation layers of every element of a network at one
    mode, in :func:`admittance_assembly.network_elements` order.

    ``layer1_cauchy`` is the epsilon-free index ||s|| * ||y||, directly
    comparable with ``layer1_enhanced`` = |layer2|; the worst-case shift for
    a relative admittance change eps is eps * layer1_cauchy. Cauchy-Schwarz
    guarantees layer1_enhanced <= layer1_cauchy.
    """

    layer1_cauchy: np.ndarray  # (N,) ||s|| * ||y||
    layer2: np.ndarray  # (N,) complex sigma2 + j omega2
    layer1_enhanced: np.ndarray  # (N,) |layer2|
    layer3: np.ndarray  # (N, 2) complex, one column per name in LAYER3_PARAMS[kind]


def _mode_stack(table: assembly.StampTable, modes: Sequence[ModeRecord]):
    """Every element's sensitivity factor s and admittance y(lambda) at
    every mode, stacked (M, N, 2, 2) in ``table`` order: what the layers
    and the predicted shifts are formed from. Each element's four residue
    bus blocks are gathered from its mode's residue factors, entry by entry
    the dense residue's product, divided by every mode's ``denom`` (1 where
    there is none) in one operation, ground's blocks zero: O(N) per mode.
    y is one :meth:`admittance_assembly.StampTable.evaluate` over all the
    modes. Where some element cannot be evaluated, raises what
    :func:`admittance_assembly.element_admittance` raises at the first such
    mode alone, for the first such element."""
    lam = np.array([mode.lam for mode in modes], dtype=complex)
    try:
        y = table.evaluate(lam)
    except Exception:  # whatever failed, re-raised as the first failing mode alone raises
        for x in lam.tolist():
            for ref in table.refs:
                assembly.element_admittance(table.net, ref, x)
        raise
    i, j = table.i, table.j
    rows, cols = np.array([[i, j, i, j], [i, j, j, i]])  # ii, jj, ij, ji
    # (M, n, 2) bus 2-vectors of the factors; ground (bus 0) reads bus n, masked below
    left = np.array([mode.left for mode in modes], dtype=complex).reshape(len(modes), -1, 2)
    right = np.array([mode.right for mode in modes], dtype=complex).reshape(len(modes), -1, 2)
    blocks = left[:, rows - 1, :, None] * right[:, cols - 1, None, :]  # (M, 4, N, 2, 2)
    blocks /= np.array([1.0 if mode.denom is None else mode.denom
                        for mode in modes])[:, None, None, None, None]
    blocks[:, (rows == 0) | (cols == 0)] = 0
    return _conj_t(_ratio_sensitivity(*blocks.swapaxes(0, 1), table.ratio[:, None, None])), y


# bytes of one (M, N, 2, 2) complex stack of a chunk of modes: a few such
# arrays live at once, so this bounds the stacked pass's working set
_CHUNK_BYTES = 1 << 17


def _chunks(modes: list, budget: int, mode_bytes: int) -> list:
    """``modes`` in consecutive chunks of at most ``budget`` bytes (or one mode)."""
    step = max(1, budget // max(1, mode_bytes))
    return [modes[k:k + step] for k in range(0, len(modes), step)]


def mode_layers(net: NetworkDescription, modes: Sequence[ModeRecord]) -> Iterator[ModeLayers]:
    """The layers of every element of ``net`` at each of ``modes``, in
    turn, from one stacked pass per chunk of modes over (M, N, 2, 2)
    arrays of all the network's elements: dlambda/dy by the
    transformer-ratio formula on the residue's bus blocks, y(lambda) and
    layer 3 in closed form, each apparatus evaluated once per chunk through
    its own model (a sampled one only on the imaginary axis; give a network
    its fitted surrogates). Every branch, line or transformer, takes layer
    3 (L, R) as <s, dy/drho> of its unsplit series admittance (see
    :func:`branch_parameter_sensitivity`), shunts their ``value``
    derivative; apparatus get no layer 3 (converter internals are not
    modeled here). Where an element cannot be evaluated, raises the error
    of the first such mode, as that mode alone would.
    """
    w0, table = net.omega0, assembly.StampTable(net)
    br = slice(0, table.n_branches)
    for chunk in _chunks(modes, _CHUNK_BYTES, 64 * len(table.refs)):
        s, y = _mode_stack(table, chunk)
        lam = np.array([mode.lam for mode in chunk])[:, None]
        l2 = layer2(s, y)
        l1 = layer1_cauchy(s, y)
        l3 = np.zeros(l2.shape + (2,), dtype=complex)
        l3[:, br, 0], l3[:, br, 1] = _direct_layer3(s[:, br], y[:, br], lam, w0)
        for kind, (at, value) in table.shunts.items():
            dy = _shunt_value_derivative(kind, value, y[:, at], lam, w0)
            l3[:, at, 0] = layer3(s[:, at], dy)
        l1e = enhanced_layer1(l2.real, l2.imag)
        for m in range(len(chunk)):
            yield ModeLayers(layer1_cauchy=l1[m], layer2=l2[m], layer1_enhanced=l1e[m],
                             layer3=l3[m])


def element_layer_report(
    net: NetworkDescription,
    ref: ElementRef,
    mode: ModeRecord,
    epsilon: float = 0.05,
) -> ModeLayers:
    """Element ``ref``'s row of :func:`mode_layers` at ``mode``: a
    :class:`ModeLayers` whose arrays have length 1. ``epsilon`` is unused
    (the layers are epsilon-free); it is kept for callers that pass it.
    """
    e = assembly.network_elements(net).index(tuple(ref))
    layers, at = next(mode_layers(net, [mode])), slice(e, e + 1)
    return ModeLayers(layer1_cauchy=layers.layer1_cauchy[at], layer2=layers.layer2[at],
                      layer1_enhanced=layers.layer1_enhanced[at], layer3=layers.layer3[at])


# ---------------------------------------------------------------------------
# Mode solving, tracking and validation
# ---------------------------------------------------------------------------


def _in_band(eigenvalues: np.ndarray, band) -> np.ndarray:
    """Indices of the eigenvalues a run reports as modes, in the order it
    reports them: Im >= 0 (a conjugate partner carries the same
    information), |Im| within ``band`` when one is given, in
    :func:`rational_fit.frequency_order`."""
    lam = eigenvalues
    keep = lam.imag >= 0
    if band is not None:
        keep &= (band[0] <= np.abs(lam.imag)) & (np.abs(lam.imag) <= band[1])
    idx = np.flatnonzero(keep)
    return idx[rational_fit.frequency_order(lam[idx])]


def _solve_modes_state_space(system: mass_oracle.Interconnection, band):
    eig = system.eig
    idx = _in_band(eig.eigenvalues, band)
    # every mode's factors in two products, C X and Psi B over the modes' eigenvectors
    left = (system.model.C @ eig.right[:, idx]).T.copy()
    right = eig.left[idx, :] @ system.model.B
    return [ModeRecord(lam=complex(eig.eigenvalues[i]), left=left[m], right=right[m],
                       provenance="state-space") for m, i in enumerate(idx)]


def _solve_modes_impedance(model, band):
    if band is None:
        raise AnalysisError("impedance-path mode search needs an explicit band")
    w_lo, w_hi = band
    poles, _ = rational_fit.loewner_poles(model, band)
    seeds = [p for p in poles if p.imag >= 0 and w_lo * 0.5 <= abs(p.imag) <= w_hi * 1.5]
    modes = np.array(rational_fit.find_modes(model, seeds), dtype=complex)
    # Y has real coefficients: a root below the real axis stands for its conjugate
    modes = np.where(modes.imag < 0, modes.conj(), modes)
    for p in seeds:  # census: each realized pole in the band must end in a refined mode
        if w_lo <= p.imag <= w_hi and all(abs(p - lam) > rational_fit.MERGE_TOL * (1.0 + abs(lam))
                                          for lam in modes):
            raise AnalysisError(f"realized pole {p} in the band refined to no mode")
    lams = [complex(lam) for lam in modes[_in_band(modes, band)]]
    residues = rational_fit.admittance_residues(model.admittance, lams, model.dim)
    return [ModeRecord(lam=lam, left=u, right=v, provenance="newton-refined", denom=denom)
            for lam, (u, v, denom) in zip(lams, residues)]


def oracle_system(net: NetworkDescription) -> Optional[mass_oracle.Interconnection]:
    """The :class:`mass_oracle.Interconnection` of ``net`` when its modes are
    solved and validated on the oracle route (as in :func:`solve_modes`),
    else None. Built once, it serves :func:`solve_modes` and
    :func:`validate_mode_predictions` of one run through their ``system``
    keyword, so A is assembled and eigendecomposed once.

    Raises
    ------
    UnsupportedForOracleError
        As :func:`mass_oracle.interconnect`, if a bus voltage is undefined.
    """
    return mass_oracle.Interconnection(net) if mass_oracle.oracle_capable(net) else None


def _system_of(net: NetworkDescription, system) -> mass_oracle.Interconnection:
    """``system`` if given (it must be built from ``net`` itself), else a new
    Interconnection of ``net``."""
    if system is None:
        return mass_oracle.Interconnection(net)
    if system.net is not net:
        raise AnalysisError("the given Interconnection was built from another network")
    return system


def solve_modes(
    net: NetworkDescription,
    band: Optional[tuple[float, float]] = None,
    order: Optional[int] = None,
    method: str = "auto",
    system: Optional[mass_oracle.Interconnection] = None,
) -> list[ModeRecord]:
    """Find the system's oscillatory modes with their impedance residues,
    each kept as its rank-one factors (:class:`ModeRecord`), O(n) per mode.

    ``method="state_space"`` uses the interconnected oracle (requires every
    apparatus in state-space form); ``"impedance"`` Newton-refines the poles of
    a Loewner realization of Z over ``band`` to zeros of det Y by Newton on
    log det Y (AnalysisError if one in the band ends in no mode), and takes
    all residues from one stacked evaluation of Y around the modes. ``"auto"``
    prefers the state-space path when available; ``order`` is ignored. The
    state-space path takes A and its eigenstructure from ``system`` (see
    :func:`oracle_system`) when given.
    """
    if method == "auto":
        method = "state_space" if mass_oracle.oracle_capable(net) else "impedance"
    if method == "state_space":
        return _solve_modes_state_space(_system_of(net, system), band)
    if method == "impedance":
        return _solve_modes_impedance(WholeSystemModel(net), band)
    raise AnalysisError(f"unknown mode-solving method '{method}'")


# the tracking gate: a match may lie at most this share of the spacing away
_GATE_FACTOR = 0.3


def track_mode(lam_ref: complex, candidates: Sequence[complex], spacing: float) -> complex:
    """Nearest-mode matching: the candidate closest to ``lam_ref``; raises
    TrackingError when the jump exceeds 0.3 times ``spacing`` (the mode
    branch was lost), never when ``spacing`` is infinite."""
    if not len(candidates):
        raise TrackingError("no candidate modes to match against")
    cands = np.asarray([complex(c) for c in candidates])
    dist = np.abs(cands - lam_ref)
    k = int(np.argmin(dist))
    if np.isfinite(spacing) and dist[k] > _GATE_FACTOR * spacing:
        raise TrackingError(
            f"nearest mode {cands[k]} is {dist[k]:.3e} away from {lam_ref}, "
            f"beyond {_GATE_FACTOR} x spacing {spacing:.3e}"
        )
    return complex(cands[k])


def _nearest_other_distance(eigenvalues: np.ndarray, i: int) -> float:
    """Distance from eigenvalue ``i`` to the nearest other one (inf when
    there is none): the scale of the tracking gate."""
    others = np.delete(np.asarray(eigenvalues), i)
    return float(np.min(np.abs(others - eigenvalues[i]))) if others.size else np.inf


# the failures one element's validation can end in; each stays with its element
_VALIDATION_ERRORS = (AnalysisError, rational_fit.RefinementError, mass_oracle.OracleError,
                      assembly.AssemblyError)


def _gated_outcome(mode, predicted: complex, anchor: complex, root, gap: float):
    """One element's validation from its re-solved ``root`` near ``anchor``:
    the error the re-solve ended in, a TrackingError when the root lies
    beyond 0.3 x ``gap`` from the anchor, or its ValidationRecord."""
    if isinstance(root, Exception):
        if not isinstance(root, _VALIDATION_ERRORS):
            raise root
        return root
    try:
        if abs(root - anchor) > _GATE_FACTOR * gap:
            track_mode(anchor, [root], spacing=gap)  # raises its TrackingError
        return validate_prediction(predicted, root - mode.lam)
    except AnalysisError as exc:
        return exc


def validate_mode_predictions(
    net: NetworkDescription,
    modes: Sequence[ModeRecord],
    refs: Sequence[ElementRef],
    epsilon: float = 0.05,
    reference_modes: Optional[Sequence[complex]] = None,
    system: Optional[mass_oracle.Interconnection] = None,
) -> list[list]:
    """Predict each mode's shift for a (1 + eps) scaling of each element and
    compare it against the re-solved mode of the perturbed system.

    Returns one list per mode with one entry per element: its
    ``ValidationRecord``, or the error (``AnalysisError``,
    ``RefinementError``, ``OracleError`` or ``AssemblyError``) its
    validation ended in; a mode where an element's admittance cannot be
    evaluated gives every element that error. Each re-solve is anchored at
    lambda + its predicted shift and gated at 0.3 x the distance from
    lambda to its nearest other mode: among the eigenvalues of the state
    matrix on the oracle route (as in :func:`solve_modes`; built from
    ``system`` when given), else among ``reference_modes`` (the run's
    modes; by default the lambdas of ``modes``) and their conjugates.
    """
    model = WholeSystemModel(net)
    table = model.table
    at = [table.index[tuple(ref)] for ref in refs]
    oracle = None
    if mass_oracle.oracle_capable(net):
        oracle = _system_of(net, system)
        updates = oracle.element_updates(refs, 1.0 + epsilon)
        spectrum = oracle.eig.eigenvalues
    else:
        reference = np.asarray([mode.lam for mode in modes] if reference_modes is None
                               else reference_modes, dtype=complex)
        # the conjugates are zeros of det Y too; a mode given twice is one mode
        spectrum = np.unique(np.concatenate([reference, reference.conj()]))

    def shifts(chunk):
        try:
            s, y = _mode_stack(table, chunk)
        except _VALIDATION_ERRORS as exc:  # mode by mode, to give each failing mode its error
            return [exc] if len(chunk) == 1 else [p for mode in chunk for p in shifts([mode])]
        return predict_mode_shift(s[:, at], epsilon * y[:, at]).tolist()

    predictions = [p for chunk in _chunks(modes, _CHUNK_BYTES, 64 * len(table.refs))
                   for p in shifts(chunk)]
    live = [m for m, p in enumerate(predictions) if not isinstance(p, Exception)]
    anchors = [[modes[m].lam + shift for shift in predictions[m]] for m in live]
    nearest = [int(np.argmin(np.abs(spectrum - modes[m].lam))) for m in live]
    if oracle is not None:
        solved = [e for e, u in enumerate(updates) if not isinstance(u, Exception)]
        found = mass_oracle.updated_eigenvalues(oracle, nearest, [updates[e] for e in solved],
                                                [[row[e] for e in solved] for row in anchors])
        roots = [[u if isinstance(u, Exception) else next(values) for u in updates]
                 for values in map(iter, found)]
    else:
        # seed m E + e re-solves mode m with element e scaled
        flat = rational_fit.refine_modes(
            lambda s, rows: assembly.overlay_admittance(model, refs, 1.0 + epsilon, s,
                                                        rows % len(refs)),
            [anchor for row in anchors for anchor in row], model.dim,
        )
        roots = [flat[k * len(refs):(k + 1) * len(refs)] for k in range(len(live))]
    results = [[p] * len(refs) if isinstance(p, Exception) else None for p in predictions]
    for m, i, row, row_roots in zip(live, nearest, anchors, roots):
        gap = _nearest_other_distance(spectrum, i)
        results[m] = [_gated_outcome(modes[m], shift, anchor, root, gap)
                      for shift, anchor, root in zip(predictions[m], row, row_roots)]
    return results


def validate_element_prediction(
    net: NetworkDescription,
    ref: ElementRef,
    mode: ModeRecord,
    epsilon: float = 0.05,
    reference_modes: Optional[Sequence[complex]] = None,
) -> ValidationRecord:
    """The one-element case of :func:`validate_mode_predictions`, raising
    the error its validation ends in: ``TrackingError`` beyond the gate,
    ``OracleError`` (``DefectiveMatrixError`` for an ill-conditioned
    eigenvalue), ``RefinementError`` or ``AssemblyError`` when the re-solve
    fails. ``reference_modes`` (the run's modes; by default the mode alone)
    and their conjugates set the gate on the impedance route; the oracle
    route's gate takes every eigenvalue of the state matrix.
    """
    outcome = validate_mode_predictions(net, [mode], [ref], epsilon, reference_modes)[0][0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# a residue at most this share of its scale is rounding: the mode is
# unobservable or uncontrollable at the buses, and a prediction from it noise
_RESIDUE_FLOOR = 1e-12


class _ResolvedSweep:
    """How a sweep gets its modes on the impedance route: ``modes`` gives a
    step's modes from a whole :func:`solve_modes`, ``residue(k)`` the
    impedance residue of the k-th of them, or None when its norm is at
    most 1e-12 x the largest of the step's."""

    def __init__(self, band):
        self.band = band

    def modes(self, net: NetworkDescription) -> np.ndarray:
        self.records = solve_modes(net, band=self.band)
        return np.array([r.lam for r in self.records], dtype=complex)

    def residue(self, k: int) -> Optional[np.ndarray]:
        sizes = [np.linalg.norm(r.left) * np.linalg.norm(r.right)
                 / (1.0 if r.denom is None else abs(r.denom)) for r in self.records]
        return self.records[k].residue if sizes[k] > _RESIDUE_FLOOR * max(sizes) else None

    def check(self, k: int) -> None:
        """Nothing to check: a residue is read from its step's records."""


class _OracleSweep:
    """How a sweep gets its modes on the oracle route, with the interface of
    :class:`_ResolvedSweep`. The network is assembled once, into working
    copies of A and B, and its A eigendecomposed once; every later network
    differs in the swept branch alone, whose rows are written into them.
    Its eigenvalues are then the roots of the secular function of those
    rows' update from the first A, on that A's eigenbasis
    (:func:`mass_oracle.swept_eigenvalues`). Root m is anchored at the m-th
    root of the last step that had them plus its change over that step: a
    secant predictor, since a root anchored where it was can be drawn onto
    a neighbour that the swept mode passes. Where the roots are not
    certified to be the whole spectrum, or the first A has no eigenbasis
    (``DefectiveMatrixError``), the step takes the eigenvalues of the
    working A from a dense solve: such a step is ``dense``. The modes are
    filtered as in :func:`solve_modes`."""

    def __init__(self, net: NetworkDescription, branch_index: int, band):
        self.system = mass_oracle.Interconnection(net)
        self.ref = ("branch", branch_index)
        self.band = band
        self.A, self.B = self.system.model.A.copy(), self.system.model.B.copy()
        try:
            self.roots, self.motion = self.system.eig.eigenvalues, 0.0
        except mass_oracle.DefectiveMatrixError:
            self.roots = None

    def modes(self, net: NetworkDescription) -> np.ndarray:
        lam, self.update = self.roots, None
        if net is not self.system.net:
            [(rows, A_rows, B_rows)] = self.system.element_rows(
                [(self.ref, net.branches[self.ref[1]])])
            self.A[rows], self.B[rows] = A_rows, B_rows
            self.update = (rows, A_rows)
            if lam is not None:
                lam = mass_oracle.swept_eigenvalues(self.system, rows, A_rows,
                                                    self.roots + self.motion)
        self.dense = lam is None
        if self.dense:
            lam = np.linalg.eigvals(self.A).astype(complex, copy=False)
        else:
            self.roots, self.motion = lam, lam - self.roots
        self.index = _in_band(lam, self.band)
        self.lams = lam[self.index]
        return self.lams

    def residue(self, k: int) -> Optional[np.ndarray]:
        """The impedance residue C x y_h B of mode k; None when
        ||C x|| ||y_h B|| is at most 1e-12 ||C|| ||B|| ||x|| ||y_h||. Its
        eigenvectors are the first A's at the first step, the secular
        equation's at a certified step (O(n^2)), and from one LU near it,
        with its conditioning check, at a dense step or where the secular
        ones are not finite."""
        m, lam = self.index[k], self.lams[k]
        if self.dense:
            pair = None
        elif self.update is None:
            pair = self.system.eig.right[:, m], self.system.eig.left[m]
        else:
            pair = mass_oracle.swept_eigenvector_pair(self.system, *self.update, m, lam)
        x, y_h = pair or mass_oracle.eigenvector_pair(self.A, lam)
        left, right, C = self.system.model.C @ x, y_h @ self.B, self.system.model.C
        if (np.linalg.norm(left) * np.linalg.norm(right) <= _RESIDUE_FLOOR * np.linalg.norm(C)
                * np.linalg.norm(self.B) * np.linalg.norm(x) * np.linalg.norm(y_h)):
            return None
        return np.outer(left, right)

    def check(self, k: int) -> None:
        """The conditioning check of mode k without its residue: a dense
        step's needs one LU."""
        if self.dense:
            mass_oracle.eigenvector_pair(self.A, self.lams[k])


def parameter_sweep(
    net: NetworkDescription,
    branch_index: int,
    param: str,
    factor: float,
    n_steps: int,
    mode_seed: Optional[complex] = None,
    band: Optional[tuple[float, float]] = None,
) -> list[SweepStep]:
    """Repeatedly scale one branch parameter and confront the layer-3
    prediction with the re-solved mode at every step.

    The tracked mode starts at ``mode_seed`` (nearest match) or, by default,
    at the least-damped oscillatory mode (of real parts within 1e-9
    relative, the lowest frequency). Each prediction is first-order from
    the previous operating point. The actual mode is the nearest of
    the modified network's modes to lambda + the predicted shift, gated at
    0.3 x the distance from the tracked mode to its nearest other mode of
    the previous step (TrackingError beyond it). Where the tracked mode's
    residue is rounding (the mode is unobservable or uncontrollable at the
    buses), the next step predicts nothing: its ``predicted`` and ``error``
    are nan, and the actual mode is the one nearest lambda.

    On the oracle route (as in :func:`solve_modes`) the network is
    assembled and eigendecomposed once. Each later step writes the swept
    branch's rows into working copies of A and B, takes all eigenvalues as
    certified roots of the secular function of its rows' update on that one
    eigenbasis, or from a dense solve where they are not certified (see
    :class:`_OracleSweep`), and the tracked mode's residue, where a next
    step reads it, from the secular equation's eigenvectors in O(n^2), or
    from one LU at a dense step. The conditioning check
    (DefectiveMatrixError beyond 1e12) covers the tracked eigenvalue at
    every step: the certificate's bound, or the LU's check at a dense
    step, the last included. Otherwise every step re-solves all modes
    through :func:`solve_modes`.
    """
    if param not in ("L", "R"):
        raise AnalysisError(f"sweep parameter must be 'L' or 'R', got '{param}'")
    if n_steps < 0:
        raise AnalysisError("n_steps must be >= 0")
    route = (_OracleSweep(net, branch_index, band) if mass_oracle.oracle_capable(net)
             else _ResolvedSweep(band))
    lams = route.modes(net)
    if not lams.size:
        raise AnalysisError("no modes found to track")
    if mode_seed is not None:
        k = int(np.argmin(np.abs(lams - mode_seed)))
    else:
        oscillatory = np.flatnonzero(lams.imag > 0)
        if not oscillatory.size:
            oscillatory = np.arange(lams.size)
        # real parts within rounding (the mirror pair lambda, lambda + 2j w0) tie
        top = lams[oscillatory].real.max()
        tied = oscillatory[lams[oscillatory].real >= top - 1e-9 * (1.0 + abs(top))]
        k = int(tied[np.argmin(np.abs(lams[tied].imag))])
    lam = complex(lams[k])

    steps: list[SweepStep] = []
    current_net = net
    for step in range(1, n_steps + 1):
        residue = route.residue(k)
        rho = getattr(current_net.branches[branch_index], param)
        if residue is None:  # a rounding residue: no prediction, and nan error
            predicted = complex(np.nan, np.nan)
        else:
            s_rho = branch_parameter_sensitivity(current_net, branch_index, residue, lam, param)
            predicted = s_rho * (rho * (factor - 1.0))
        current_net = current_net.with_branch(branch_index, **{param: rho * factor})
        new_lams = route.modes(current_net)
        # predictor-anchored continuation: large parameter steps can move a
        # mode further than the inter-mode spacing, but the first-order
        # prediction lands close to the continued branch
        lam_new = track_mode(lam if residue is None else lam + predicted, new_lams,
                             spacing=_nearest_other_distance(lams, k))
        actual = lam_new - lam
        err = abs(predicted - actual) / abs(predicted) if predicted != 0 else np.inf
        steps.append(
            SweepStep(
                step=step,
                rho_before=rho,
                rho_after=rho * factor,
                lam_before=lam,
                predicted=lam + predicted,
                actual=lam_new,
                error=float(err),
            )
        )
        lams, k, lam = new_lams, int(np.argmin(np.abs(new_lams - lam_new))), lam_new
    route.check(k)  # the last tracked mode's residue is read by no step
    return steps
