"""Reference secular Newton for the oracle's validation re-solves and sweeps.

The per-entry deflated secular function that ``mass_oracle.updated_eigenvalues``
evaluated before it summed the far poles as Cauchy-matrix moments: every
Newton iteration forms M0(mu) = I + W D(mu) Z over all N states for every
(update, eigenvalue) entry. The product form is checked against it.

``all_swept_roots`` is ``mass_oracle.swept_eigenvalues`` as it was before it
solved one root per conjugate pair: Newton and the certificate on all n
roots, then the set checked closed under conjugation and each pair averaged.
"""

import numpy as np

from impedmodal.admittance_assembly import _solve_each
from impedmodal.mass_oracle import (
    _BACKWARD_LIMIT,
    _COND_LIMIT,
    _NEWTON_MAX_ITERATIONS,
    _NEWTON_STEP_TOL,
    _SecularGrid,
)


class DeflatedSecular:
    """The secular equations of a network's state matrix A under each of
    several row ``updates``, on a grid laid out (update, eigenvalue)."""

    def __init__(self, system, updates):
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

    def select(self, indices) -> "DeflatedSecular":
        self.pole = np.asarray(indices, dtype=int)
        self.w_i = self.W[:, :, self.pole].swapaxes(1, 2)
        self.z_i = self.Zt[:, :, self.pole].swapaxes(1, 2)
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
        """Newton on g from ``anchors`` (updates x eigenvalues): the
        iterates, and which converged."""
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


def reference_roots(system, indices, updates, anchors):
    """Newton's iterates and convergence flags, (eigenvalues x updates),
    with the conjugate nearer the anchor taken as ``updated_eigenvalues``
    takes it."""
    anchors = np.asarray(anchors, dtype=complex).T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu, converged = DeflatedSecular(system, updates).select(indices).newton(anchors)
    conj = np.abs(np.conj(mu) - anchors) < np.abs(mu - anchors)
    mu[conj] = np.conj(mu[conj])
    return mu.T, converged.T


def all_swept_roots(system, rows, A_rows, anchors):
    """The eigenvalues of A with rows ``rows`` replaced by ``A_rows`` from
    Newton on every pole's secular function, or None where they are not
    certified: every root's backward error and condition number within the
    1e-12 and 1e12 limits, no two within the sum of their error radii, and
    the conjugate of each within the radii of a root. Each root is then
    averaged with its partner's conjugate."""
    n = system.eig.n
    grid = _SecularGrid(system, [(rows, A_rows)]).select(np.arange(n), far=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu, converged, last = grid.newton(np.asarray(anchors, dtype=complex)[None])
        if not converged.all():
            return None
        backward, cond = grid.certificate(*np.nonzero(converged), last)
        mu = mu[0]
        radius = cond * backward * grid.a_norm[0]
        if not np.all((backward <= _BACKWARD_LIMIT) & (cond <= _COND_LIMIT)):
            return None
        apart = np.abs(mu[:, None] - mu) > radius[:, None] + radius
        np.fill_diagonal(apart, True)
        if not apart.all():
            return None
        gap = np.abs(mu.conj()[:, None] - mu)
        partner = np.argmin(gap, axis=1)
        at = np.arange(n)
        if np.any(gap[at, partner] > radius + radius[partner]) or np.any(partner[partner] != at):
            return None
    return (mu + mu[partner].conj()) / 2
