"""Mode location and residue extraction from frequency-domain data.

The poles of a tangential Loewner realization of Z = Y^-1 seed one stacked
Newton iteration on log det Y(s), the same that re-solves perturbed modes
for validation; residues come from one stacked evaluation of Y around the
modes, a rational model or a state-space realization. Vector fitting
serves sampled responses (apparatus surrogates, the ``fit`` command).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .admittance_assembly import EvaluationError, SingularSystemError, WholeSystemModel, _solve_each
from .network_model import RationalModel, SampledResponse

__all__ = [
    "FitError",
    "ConditioningError",
    "RefinementError",
    "ResidueError",
    "RationalModel",
    "CriticalMode",
    "sample_response",
    "frequency_grid",
    "initial_poles",
    "vector_fit",
    "fit_residues",
    "refine_mode",
    "refine_modes",
    "find_modes",
    "frequency_order",
    "loewner_poles",
    "critical_resonance_mode",
    "admittance_residue",
    "admittance_residues",
    "fit_apparatus_surrogate",
]

# largest condition number of the column-scaled residue least squares
_FIT_COND_LIMIT = 1e13
# largest relative deviation over the grid a fit may keep without a warning
_FIT_REL_TOL = 1e-4
# bytes of one batch of relocation blocks [A_sigma | b] (2M x (N+1) floats per
# response) or of Y at Loewner, Newton or residue points, reduced before the
# next batch is formed
_BATCH_BYTES = 4 * 2**20
MERGE_TOL = 1e-6  # a Newton root this near a known mode, relative to 1 + |root|, is it
# Newton on log det Y: converged once a step is this small relative to
# 1 + |s|, and given up after this many iterations
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITERATIONS = 50
_LOEWNER_RANK_TOL = 1e-11  # relative singular value of the Loewner pencil counted as zero
_LOEWNER_POINTS = (50, 100, 200, 400, 800, 1600)  # sizes of the Loewner pencil, tried in turn
_SURROGATE_ITERATIONS = 12  # pole relocations of an apparatus surrogate's vector fit
# modes whose imaginary parts agree to this relative level tie in frequency
_FREQ_TIE = 1e-9
# eigenvalue magnitudes within this fraction of max(1, ||Y||_F) of the
# smallest one are ties of the critical resonance mode
_TIE_TOL = 1e-9


class FitError(Exception):
    """Vector-fitting failure (bad inputs, degenerate data)."""


class ConditioningError(FitError):
    """The least-squares system is too ill-conditioned to trust."""


class RefinementError(Exception):
    """Newton mode refinement diverged or stalled."""


class ResidueError(Exception):
    """Requested residue at a value that is not a pole of the source."""


@dataclass(frozen=True, eq=False)
class CriticalMode:
    """Smallest-magnitude eigenpair of Y at (or near) a mode; ``ties`` lists
    further eigenpairs whose magnitudes are indistinguishable from the
    minimum, surfacing the ambiguity instead of hiding it."""

    eigenvalue: complex
    eigenvector: np.ndarray
    ties: tuple = ()


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def frequency_grid(omega_min: float, omega_max: float, n_points: int = 400) -> np.ndarray:
    """Logarithmically spaced frequency grid over [omega_min, omega_max]."""
    if not (0 < omega_min < omega_max):
        raise FitError(f"invalid band [{omega_min}, {omega_max}]")
    return np.geomspace(omega_min, omega_max, n_points)


def sample_response(model: WholeSystemModel, grid: Sequence[float]) -> SampledResponse:
    """Evaluate Z(j omega) over a strictly increasing grid of frequencies:
    ``model.impedance`` once over the whole grid. A singular system at a
    grid point propagates with the first offending frequency in the
    message.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise FitError("frequency grid must be a nonempty 1-D sequence")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise FitError("frequency grid must be strictly increasing")
    return SampledResponse(frequencies=grid, blocks=model.impedance(1j * grid))


# ---------------------------------------------------------------------------
# Vector fitting
# ---------------------------------------------------------------------------


def initial_poles(omega_min: float, omega_max: float, order: int) -> np.ndarray:
    """Starting poles: log-spaced complex pairs spanning the band with
    imaginary/real ratio 100; one extra real pole when the order is odd."""
    if order < 1:
        raise FitError("fit order must be >= 1")
    n_pairs, n_real = divmod(order, 2)
    lo = omega_min if omega_min > 0 else omega_max * 1e-4
    poles: list[complex] = []
    if n_pairs:
        for w in np.geomspace(lo, omega_max, n_pairs):
            poles.append(complex(-w / 100.0, w))
            poles.append(complex(-w / 100.0, -w))
    if n_real:
        poles.append(complex(-np.sqrt(lo * omega_max), 0.0))
    return np.array(poles, dtype=complex)


def _canonical_poles(poles: np.ndarray) -> np.ndarray:
    """Order poles as [real..., (p, conj p)...]: the real poles first, each
    with an imaginary part of exactly 0, then the pairs, Im p > 0 first.

    Relocated poles come from the eigenvalues of a real matrix, so complex
    ones arrive in exact conjugate pairs; any stray unpaired pole is demoted
    to a real pole rather than fabricating a partner.
    """
    poles = np.asarray(poles, dtype=complex)
    tiny = 1e-12 * (1.0 + np.abs(poles))
    real = [p.real for p in poles[np.abs(poles.imag) <= tiny]]
    upper = sorted(poles[poles.imag > tiny], key=lambda p: (p.imag, p.real))
    lower = sorted(poles[poles.imag < -tiny], key=lambda p: (-p.imag, p.real))
    n_pairs = min(len(upper), len(lower))
    real.extend(p.real for p in upper[n_pairs:])
    real.extend(p.real for p in lower[n_pairs:])
    out = [complex(r, 0.0) for r in sorted(real)]
    for p in upper[:n_pairs]:
        out.extend([p, np.conj(p)])
    return np.array(out, dtype=complex)


def _n_real(poles: np.ndarray) -> int:
    """The number of real poles that lead a canonical pole set."""
    return int(np.count_nonzero(poles.imag == 0))


def _basis(s: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Real-coefficient partial-fraction basis of canonical poles,
    complex-valued (M, N): 1/(s - p) for a real pole, then, per pair,
    1/(s - p) + 1/(s - conj p) and j/(s - p) - j/(s - conj p)."""
    r = _n_real(poles)
    x, p = s[:, None], poles[None, r::2]
    Dk = np.empty((s.size, poles.size), dtype=complex)
    Dk[:, :r] = 1.0 / (x - poles[None, :r])
    Dk[:, r::2] = 1.0 / (x - p) + 1.0 / (x - np.conj(p))
    Dk[:, r + 1::2] = 1j / (x - p) - 1j / (x - np.conj(p))
    return Dk


def _design_matrix(s: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Basis columns of the rational model followed by the constant and
    linear terms, complex (M, N + 2)."""
    return np.column_stack([_basis(s, poles), np.ones_like(s), s])


def _stack_real(A: np.ndarray) -> np.ndarray:
    return np.vstack([A.real, A.imag])


def _relocate_poles(s: np.ndarray, F: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """One pole-relocation step: returns the zeros of the fitted scaling
    function sigma(s) = 1 + sum c_k phi_k(s), which become the new poles.

    The per-response coefficients share one basis block, so they are
    eliminated by projecting every response's block [A_sigma | b] against
    that block's orthonormal basis Q1. Each projected 2M x (N+1) block is
    then compressed to its (N+1) x (N+1) R factor (fast vector fitting:
    Deschrijver, Mrozowski, Dhaene & De Zutter, IEEE MWCL 2008), which keeps
    its least-squares content, and the sigma coefficients are solved from
    the stacked R factors. Memory grows with n_resp (N+1)^2, not n_resp M N.
    """
    M, n_resp = F.shape
    N = poles.size
    r = _n_real(poles)
    A_local = _design_matrix(s, poles)
    Dk = A_local[:, :N]
    Q1, _ = np.linalg.qr(_stack_real(A_local), mode="reduced")

    # blocks are built transposed, (batch, N+1, 2M), so that one stacked
    # product projects a batch block by block (one flat product over all its
    # rows would change the last bits with the batch size) and each block is
    # a Fortran-ordered 2M x (N+1) matrix for its QR
    neg_DkT = np.ascontiguousarray(-Dk.T)
    R = np.empty((n_resp, N + 1, N + 1))
    batch = max(1, _BATCH_BYTES // (2 * M * (N + 1) * 8))
    for start in range(0, n_resp, batch):
        Ft = np.ascontiguousarray(F[:, start:start + batch].T)  # (b, M)
        A_sigma = neg_DkT * Ft[:, None, :]  # (b, N, M)
        block = np.empty((Ft.shape[0], N + 1, 2 * M))
        block[:, :N, :M], block[:, :N, M:] = A_sigma.real, A_sigma.imag
        block[:, N, :M], block[:, N, M:] = Ft.real, Ft.imag
        block -= (block @ Q1) @ Q1.T
        R[start:start + batch] = np.linalg.qr(block.transpose(0, 2, 1), mode="r")

    # the stacked R blocks have the column norms and singular values of the
    # uncompressed stack, so the scaling and the rank threshold (numpy's
    # implicit eps * rows for that stack) carry over unchanged
    RA = R[:, :, :N].reshape(-1, N)
    scale = np.linalg.norm(RA, axis=0)
    scale[scale == 0] = 1.0
    rcond = np.finfo(float).eps * (2 * M * n_resp)
    x, *_ = np.linalg.lstsq(RA / scale, R[:, :, N].reshape(-1), rcond=rcond)
    c_sigma = x / scale

    # companion of sigma in the real pair basis
    H = np.diag(poles.real)
    pair = np.arange(r, N, 2)
    H[pair, pair + 1] = poles[r::2].imag
    H[pair + 1, pair] = -poles[r::2].imag
    bvec = np.zeros(N)
    bvec[:r], bvec[r::2] = 1.0, 2.0
    H -= np.outer(bvec, c_sigma)
    return _canonical_poles(np.linalg.eigvals(H))


def fit_residues(samples: SampledResponse, poles: np.ndarray):
    """Least-squares residue matrices for fixed poles.

    Returns ``(residues, const, linear, rms_rel_error, max_rel_deviation)``.
    Raises ConditioningError when the (column-scaled) design matrix is
    numerically rank-deficient.
    """
    poles = _canonical_poles(poles)
    s = 1j * samples.frequencies
    dim = samples.dim
    M = s.size
    N = poles.size
    r = _n_real(poles)
    Ac = _design_matrix(s, poles)
    A_r = _stack_real(Ac)
    scale = np.linalg.norm(A_r, axis=0)
    scale[scale == 0] = 1.0
    A_s = A_r / scale
    F = samples.blocks.reshape(M, dim * dim)
    B_r = np.vstack([F.real, F.imag])
    X, _, _, sv = np.linalg.lstsq(A_s, B_r, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if not cond <= _FIT_COND_LIMIT:
        raise ConditioningError(
            f"residue least-squares matrix condition number {cond:.3e} "
            f"exceeds {_FIT_COND_LIMIT:.1e}"
        )
    X = X / scale[:, None]

    residues = np.zeros((N, dim * dim), dtype=complex)
    residues[:r] = X[:r]
    residues[r:N:2] = X[r:N:2] + 1j * X[r + 1:N:2]
    residues[r + 1:N:2] = X[r:N:2] - 1j * X[r + 1:N:2]
    const = X[N].astype(complex)
    linear = X[N + 1].astype(complex)

    fit = Ac @ X  # real coefficients against the complex design matrix
    err = fit - F
    denom = np.linalg.norm(F)
    rms_rel = float(np.linalg.norm(err) / denom) if denom > 0 else float(np.linalg.norm(err))
    row_norm = np.linalg.norm(F, axis=1)
    row_norm[row_norm == 0] = 1.0
    max_rel = float(np.max(np.linalg.norm(err, axis=1) / row_norm))
    return (
        residues.reshape(N, dim, dim),
        const.reshape(dim, dim),
        linear.reshape(dim, dim),
        rms_rel,
        max_rel,
    )


def vector_fit(samples: SampledResponse, order: int, n_iterations: int = 10) -> RationalModel:
    """Fit a common-pole rational model to a sampled matrix response.

    Iterative pole relocation from :func:`initial_poles` over the sampled
    band, with a relaxed-free (unit) scaling constant, followed by a linear
    residue solve for all matrix entries at once. Complex poles/residues
    come out in exact conjugate pairs because the solve runs in the real
    pair basis.

    A model whose maximum relative deviation over the grid exceeds 1e-4, or
    whose poles were still moving at the last iteration, carries a
    ``warning`` (underfit / non-convergence) instead of raising.
    """
    w = samples.frequencies
    M = w.size
    if M < 2 * order:
        raise FitError(f"need at least {2 * order} samples for order {order}, got {M}")
    s = 1j * w
    F = samples.blocks.reshape(M, samples.dim ** 2)
    poles = _canonical_poles(initial_poles(w[0], w[-1], order))

    drift = np.inf
    iterations_run = 0
    for it in range(n_iterations):
        new_poles = _relocate_poles(s, F, poles)
        old_sorted = np.sort_complex(poles)
        drift = float(np.max(np.abs(np.sort_complex(new_poles) - old_sorted)
                             / (1.0 + np.abs(old_sorted))))
        poles = new_poles
        iterations_run = it + 1
        if drift < 1e-12:
            break

    residues, const, linear, rms_rel, max_rel = fit_residues(samples, poles)
    # a tight fit counts as converged even if a spurious (near-zero-residue)
    # pole is still wandering
    converged = drift < 1e-6 or max_rel <= _FIT_REL_TOL
    warning = None
    if max_rel > _FIT_REL_TOL:
        warning = (
            f"fit deviation {max_rel:.3e} above tolerance {_FIT_REL_TOL:.1e}: "
            "order too low for the sampled dynamics"
        )
        if drift >= 1e-6:
            warning += f"; poles still drifting ({drift:.3e}) after {iterations_run} iterations"
    return RationalModel(
        poles=poles,
        residues=residues,
        const=const,
        linear=linear,
        rms_rel_error=rms_rel,
        max_rel_deviation=max_rel,
        n_iterations_run=iterations_run,
        converged=converged,
        warning=warning,
    )


def fit_apparatus_surrogate(response: SampledResponse, order: int) -> RationalModel:
    """Rational surrogate of ``order`` for a measured apparatus response, so
    that networks with sampled models stay evaluable at complex s."""
    return vector_fit(response, order=order, n_iterations=_SURROGATE_ITERATIONS)


# ---------------------------------------------------------------------------
# Mode refinement
# ---------------------------------------------------------------------------


def _newton_step(Yfun, s: np.ndarray, seeds: np.ndarray, rows: np.ndarray, outcomes: list):
    """One Newton iteration on log det Y of the seeds ``rows``: moves their
    iterates in ``s`` by 1/tr(Y^-1 Y'), records in ``outcomes`` the root of
    each seed whose step fell within tolerance (the iterate less that step)
    and the error of each that failed, and returns the rows still moving."""
    x = s[rows]
    h = 1e-6 * (1.0 + np.abs(x))
    try:
        Y = np.asarray(Yfun(np.concatenate([x, x + h, x - h]), np.tile(rows, 3)), dtype=complex)
    except Exception as exc:
        # a batch is evaluated again row by row, so each row keeps its own error
        if rows.size > 1:
            return np.concatenate([_newton_step(Yfun, s, seeds, rows[m:m + 1], outcomes)
                                   for m in range(rows.size)])
        outcomes[rows[0]] = exc
        return rows[:0]
    k = rows.size
    finite = np.isfinite(Y[:k]).all(axis=(1, 2))
    for m in np.flatnonzero(~finite):
        outcomes[rows[m]] = RefinementError(f"admittance not finite at s = {complex(x[m])}")
    live = np.flatnonzero(finite)
    dY = (Y[k + live] - Y[2 * k + live]) / (2 * h[live])[:, None, None]
    # the step is 0 where Y is exactly singular: that iterate is its seed's root
    with np.errstate(divide="ignore", invalid="ignore"):
        step = 1.0 / _solve_each(Y[live], dY).diagonal(axis1=1, axis2=2).sum(axis=1)
    x, rows = x[live], rows[live]
    xn = x - step
    # |z| as np.hypot takes it, which rounds as abs() of one complex does
    flat = ~np.isfinite(step)
    done = ~flat & (np.hypot(step.real, step.imag)
                    <= _NEWTON_TOL * (1.0 + np.hypot(x.real, x.imag)))
    diverged = ~(flat | done) & (~np.isfinite(xn) | (np.hypot(xn.real, xn.imag) > 1e12))
    for m in np.flatnonzero(flat):
        outcomes[rows[m]] = RefinementError(f"flat log-determinant at s = {complex(x[m])}")
    for m in np.flatnonzero(done):
        outcomes[rows[m]] = complex(xn[m])
    for m in np.flatnonzero(diverged):
        outcomes[rows[m]] = RefinementError(f"Newton iteration diverged from seed {seeds[rows[m]]}")
    moving = ~(flat | done | diverged)
    s[rows[moving]] = xn[moving]
    return rows[moving]


def refine_modes(Yfun: Callable[[np.ndarray, np.ndarray], np.ndarray], seeds: Sequence[complex],
                 dim: int) -> list:
    """Newton-refine many seeds at once to zeros of det Y(s) by Newton on
    log det Y, whose step is 1/tr(Y^-1 Y') (Jacobi's formula; Ruhe, SIAM J.
    Numer. Anal. 1973): no eigenvalue branch of Y is chosen.

    ``Yfun(s, rows)`` returns Y at the points of the 1-D array ``s``,
    stacked (len(s), dim, dim); point m is evaluated for seed ``rows[m]``,
    so each seed may see its own Y (an overlaid element, say). An iteration
    evaluates s and s +- h of every seed still moving in one call, holding
    at most ``_BATCH_BYTES`` of Y (of ``dim`` x ``dim`` each), and runs
    one stacked solve of Y against the central difference. A seed stops
    once its step is within ``_NEWTON_TOL`` (1 + |s|) and returns the
    iterate less that step. Returns, per seed, its root or the exception it
    ended in: a RefinementError (non-finite Y, flat log det Y, divergence,
    no convergence), or what ``Yfun`` raised at its points; a call that
    raises is repeated seed by seed, and the others keep their values.
    """
    seeds = np.array(seeds, dtype=complex).reshape(-1)
    s = seeds.copy()
    outcomes: list = [None] * s.size
    batch = max(1, _BATCH_BYTES // (48 * dim**2))
    active = np.arange(s.size)
    for _ in range(_NEWTON_MAX_ITERATIONS):
        if not active.size:
            break
        active = np.concatenate([_newton_step(Yfun, s, seeds, active[k:k + batch], outcomes)
                                 for k in range(0, active.size, batch)])
    for r in active:
        outcomes[r] = RefinementError(
            f"no convergence from seed {seeds[r]} after {_NEWTON_MAX_ITERATIONS} iterations"
        )
    return outcomes


def refine_mode(model: WholeSystemModel, seed: complex) -> complex:
    """Newton-refine a zero of det Y(s) from one seed: the one-seed case of
    :func:`refine_modes` on ``model.admittance``.

    Raises what the refinement ended in: RefinementError on divergence, or
    what ``model.admittance`` raised.
    """
    (lam,) = refine_modes(lambda s, rows: model.admittance(s), [seed], model.dim)
    if isinstance(lam, Exception):
        raise lam
    return lam


def find_modes(model: WholeSystemModel, seeds: Iterable[complex]) -> list[complex]:
    """Refine many seeds in one :func:`refine_modes` and merge them in seed
    order: a root within the merge tolerance of an earlier one is dropped,
    and seeds whose refinement fails are skipped (any other error
    propagates, the first in seed order).

    ``model.admittance`` is evaluated stacked. Returned modes are in
    :func:`frequency_order`.
    """
    outcomes = refine_modes(lambda s, rows: model.admittance(s), list(seeds), model.dim)
    modes: list[complex] = []
    for lam in outcomes:
        if isinstance(lam, RefinementError):
            continue
        if isinstance(lam, Exception):
            raise lam
        if all(abs(lam - known) > MERGE_TOL * (1.0 + abs(lam)) for known in modes):
            modes.append(lam)
    return [modes[k] for k in frequency_order(modes)]


def frequency_order(lams) -> np.ndarray:
    """Indices that sort ``lams`` by imaginary part; imaginary parts that
    agree to 1e-9 relative (two modes at one frequency, which the roots
    leave ordered by rounding noise alone) tie and are sorted by real part."""
    lams = np.asarray(lams, dtype=complex)
    idx = np.lexsort((lams.real, lams.imag))
    im = lams.imag[idx]
    # a tie run goes on while each step in Im stays within the tolerance
    run = np.cumsum(np.diff(im, prepend=im[:1]) > _FREQ_TIE * (1.0 + np.abs(im)))
    return idx[np.lexsort((lams.real[idx], run))]


def loewner_poles(model: WholeSystemModel, band: tuple[float, float]) -> tuple[np.ndarray, int]:
    """Poles of Z = Y^-1 (canonical order) and its order, from a tangential
    Loewner realization (Mayo & Antoulas, LAA 2007) on log-spaced points over
    ``band``: alternately right and left data, with their conjugates and one
    fixed-seed random real direction d each (x = Z d from Y x = d; d^T Z from Y^T).
    The order is the rank of x0 E - A ((E, A) the real Loewner pencil, x0 the
    band's centre). The pencil starts at 50 points and doubles, up to 1600,
    until the rank fills at most half of them: the smallest pencil the
    network's rank allows. The poles are the finite eigenvalues of the pencil
    (A_r, E_r) projected on the rank's singular vectors, from a standard
    eigenproblem shift-inverted at x0: x0 E_r - A_r is diag(sv_r) to rounding,
    so nonsingular, and A_r v = lam E_r v exactly when
    (x0 E_r - A_r)^-1 E_r v = v / (x0 - lam), so lam = x0 - 1/nu for the
    eigenvalues nu of (x0 E_r - A_r)^-1 E_r. A nu that is 0 to rounding is an
    infinite pole (Z's direct term, Z(inf) != 0) and is dropped, as the QZ
    algorithm drops a generalized eigenvalue of beta = 0. A sample point
    where Y is exactly singular raises SingularSystemError at that s, and
    the first where Y is not finite EvaluationError naming that s."""
    w_lo, w_hi = band
    x0 = np.sqrt(w_lo * w_hi)
    model.admittance(x0)  # Newton needs Y off the axis: a model without it fails here
    batch = 2 * max(1, _BATCH_BYTES // (32 * model.dim ** 2))  # even: keeps parity
    for n_points in _LOEWNER_POINTS:
        s = 1j * frequency_grid(w_lo, w_hi, n_points)
        d = np.random.default_rng(0).standard_normal((n_points, model.dim))
        x = np.empty(d.shape, dtype=complex)
        for k in range(0, n_points, batch):  # solve with Y at even points, Y^T at odd
            Y = model.admittance(s[k:k + batch])
            if not np.isfinite(Y).all():
                bad = complex(s[k + np.argmin(np.isfinite(Y).all(axis=(1, 2)))])
                raise EvaluationError(f"whole-system admittance is not finite at s = {bad}")
            Y[1::2] = np.swapaxes(Y[1::2], 1, 2).copy()
            x[k:k + batch] = _solve_each(Y, d[k:k + batch, :, None])[..., 0]
        singular = np.isinf(x).all(axis=1)  # _solve_each's mark of an exactly singular Y
        if singular.any():
            raise SingularSystemError(complex(s[np.argmax(singular)]), np.inf)
        # l_j^T Z r_i at lam_i and at mu_j; the (shifted) Loewner blocks at
        # (mu, lam) and (mu, conj lam); those at conj mu are their conjugates
        lam, mu, LW, VR = s[None, 0::2], s[1::2, None], d[1::2] @ x[0::2].T, x[1::2] @ d[0::2].T
        pairs = [((VR - H) / (mu - z), (mu * VR - z * H) / (mu - z))
                 for z, H in ((lam, LW), (lam.conj(), LW.conj()))]
        E, A = [np.block([[(X + Y).real, (X - Y).imag], [-(X + Y).imag, (X - Y).real]])
                for X, Y in zip(*pairs)]
        U, sv, Vt = np.linalg.svd(x0 * E - A)
        rank = int(np.count_nonzero(sv > _LOEWNER_RANK_TOL * sv[0]))
        if 2 * rank <= n_points:
            break
    else:
        raise FitError(f"Loewner rank {rank} fills more than half of {n_points} points")
    A_r, E_r = (U[:, :rank].T @ M @ Vt[:rank].T for M in (A, E))
    nu = np.linalg.eigvals(np.linalg.solve(x0 * E_r - A_r, E_r))
    # x0 E_r - A_r is diag(sv) to rounding, so row i of the solve carries an
    # error of about eps ||E_r|| / sv_i; a nu within rank times the largest
    # such error of 0 is an infinite pole
    finite = np.abs(nu) > rank * np.finfo(float).eps * np.linalg.norm(E_r) / sv[rank - 1]
    return _canonical_poles(x0 - 1.0 / nu[finite]), rank


def critical_resonance_mode(Y: np.ndarray) -> CriticalMode:
    """Eigenpair of Y with minimal |eigenvalue| (the critical resonance mode).

    Eigenvalues whose magnitude is within 1e-9 * max(1, ||Y||_F) of the
    minimum are reported as ties.
    """
    Y = np.asarray(Y, dtype=complex)
    mu, V = np.linalg.eig(Y)
    order = np.argsort(np.abs(mu))
    k = order[0]
    level = _TIE_TOL * max(1.0, float(np.linalg.norm(Y)))
    ties = tuple(
        (mu[j], V[:, j]) for j in order[1:] if abs(mu[j]) - abs(mu[k]) <= level
    )
    return CriticalMode(eigenvalue=mu[k], eigenvector=V[:, k], ties=ties)


# ---------------------------------------------------------------------------
# Residues
# ---------------------------------------------------------------------------


def admittance_residues(model: WholeSystemModel, lams: Sequence[complex]) -> list[tuple]:
    """Residues of Z = Y^{-1} at simple zeros ``lams`` of det Y, from Y
    around them alone, each as the factors (u, v, v^T Y'(lam) u) of Res =
    u v^T / (v^T Y'(lam) u), O(dim) per mode: u and v the right and left
    null vectors of Y(lam) (one inverse-iteration solve each, with Y
    and Y^T against a fixed-seed real vector; the SVD where Y(lam) is exactly
    singular) and Y' the fourth-order central difference at h = 1e-6 (1 +
    |lam|). ``model.admittance`` evaluates the five points of every mode
    over ``_BATCH_BYTES`` of Y at a time. Works for any evaluable system,
    fitted or analytic.
    """
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    batch = max(1, _BATCH_BYTES // (80 * model.dim**2))
    residues = []
    for k in range(0, lams.size, batch):
        lam = lams[k:k + batch]
        h = 1e-6 * (1.0 + np.abs(lam))
        Y = model.admittance((lam + np.outer([0, 1, -1, 2, -2], h)).ravel())
        Y = Y.reshape(5, lam.size, *Y.shape[1:])
        dY = (8.0 * (Y[1] - Y[2]) - (Y[3] - Y[4])) / (12.0 * h)[:, None, None]
        b = np.tile(np.random.default_rng(0).standard_normal((Y.shape[-1], 1)), (lam.size, 1, 1))
        u, v = (_solve_each(A, b)[..., 0] for A in (Y[0], Y[0].swapaxes(1, 2)))
        bad = ~(np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1))
        if bad.any():
            U, _, Vh = np.linalg.svd(Y[0][bad])
            u[bad], v[bad] = Vh[:, -1].conj(), U[:, :, -1].conj()
        for m, denom in enumerate(np.einsum("ki,kij,kj->k", v, dY, u)):
            if denom == 0:
                raise ResidueError(f"degenerate null vectors at {lam[m]}: not a simple mode")
            residues.append((u[m], v[m], denom))
    return residues


def admittance_residue(model: WholeSystemModel, lam: complex) -> np.ndarray:
    """The one-mode case of :func:`admittance_residues`, as the dense matrix
    u v^T / (v^T Y' u)."""
    u, v, denom = admittance_residues(model, [lam])[0]
    return np.outer(u, v) / denom
