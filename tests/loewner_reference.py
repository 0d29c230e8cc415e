"""Reference Loewner realization for the impedance route's mode search.

``loewner_poles`` is ``rational_fit.loewner_poles`` as it was before it
took the projected pencil's poles from a standard eigenproblem
shift-inverted at the pencil's shift: the same pencil, its finite
eigenvalues from the QZ algorithm (``scipy.linalg.eigvals(A_r, E_r)``;
Moler & Stewart, SIAM J. Numer. Anal. 1973). The numpy-only solve is
checked against it.
"""

import numpy as np
import scipy.linalg

from impedmodal.rational_fit import (
    _BATCH_BYTES,
    _LOEWNER_POINTS,
    _LOEWNER_RANK_TOL,
    FitError,
    _canonical_poles,
    frequency_grid,
)


def loewner_poles(model, band):
    """Poles of Z = Y^-1 (canonical order) and the pencil's rank, with the
    finite generalized eigenvalues of the projected pencil (A_r, E_r) from
    QZ."""
    w_lo, w_hi = band
    x0 = np.sqrt(w_lo * w_hi)
    model.admittance(x0)
    batch = 2 * max(1, _BATCH_BYTES // (32 * model.dim ** 2))
    for n_points in _LOEWNER_POINTS:
        s = 1j * frequency_grid(w_lo, w_hi, n_points)
        d = np.random.default_rng(0).standard_normal((n_points, model.dim))
        x = np.empty(d.shape, dtype=complex)
        for k in range(0, n_points, batch):
            Y = model.admittance(s[k:k + batch])
            Y[1::2] = np.swapaxes(Y[1::2], 1, 2).copy()
            x[k:k + batch] = np.linalg.solve(Y, d[k:k + batch, :, None])[..., 0]
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
    poles = scipy.linalg.eigvals(*(U[:, :rank].T @ M @ Vt[:rank].T for M in (A, E)))
    return _canonical_poles(poles[np.isfinite(poles)]), rank
