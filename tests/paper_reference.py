"""The paper's MASS side and its branch-splitting enhancement, as test references.

State-space participation factors, entrywise eigenvalue sensitivities,
resolvent residues and parameter sensitivities of A (the MASS method), and
the closed-form virtual-node impedances and residues of a series branch
split into its inductive and resistive parts. No route of the package calls
them; the acceptance and unit tests check the package against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from impedmodal import admittance_assembly as assembly
from impedmodal.admittance_assembly import _I2, block_slice, omega_block
from impedmodal.mai_core import AnalysisError, _dy_dL, _dy_dR
from impedmodal.mass_oracle import EigenStructure, OracleError, eigendecompose


# ---------------------------------------------------------------------------
# The sensitivity factor from the dense residue (the paper's formula)
# ---------------------------------------------------------------------------


def residue_sensitivity(res: np.ndarray, i: int, j: int = 0, k: float = 1.0) -> np.ndarray:
    """The sensitivity factor s (dlambda/dy = s^H) of an element between
    buses i and j (j = 0, ground, for a node element) behind an ideal k:1
    ratio on the i side, cut from the dense residue matrix: dlambda/dy =
    -(Res_ii/k^2 + Res_jj - Res_ij/k - Res_ji/k), ground's blocks zero."""
    zero = np.zeros((2, 2), dtype=complex)
    ii, jj, ij, ji = (res[block_slice(p), block_slice(q)] if p and q else zero
                      for p, q in ((i, i), (j, j), (i, j), (j, i)))
    return np.conj(-(ii / k**2 + jj - ij / k - ji / k)).T


# ---------------------------------------------------------------------------
# State-space (MASS) sensitivities
# ---------------------------------------------------------------------------


class RepeatedEigenvalueError(OracleError):
    """Sensitivity requested for a repeated or near-multiple eigenvalue."""


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


# ---------------------------------------------------------------------------
# Branch splitting and virtual-node impedances
# ---------------------------------------------------------------------------


class DegenerateSplitError(AnalysisError):
    """A split part is singular (R = 0 or L = 0); use the unsplit formula."""


@dataclass(frozen=True, eq=False)
class SplitBranch:
    """Series branch split at a virtual node into inductive z1 and resistive
    z2 parts, both evaluated at s = lambda; stacked (m, 2, 2) when R and L
    are arrays of m branches."""

    z1: np.ndarray
    z2: np.ndarray
    R: float | np.ndarray
    L: float | np.ndarray
    omega0: float
    lam: complex


@dataclass(frozen=True, eq=False)
class SplitNodeImpedances:
    """Blocks of the augmented whole-system impedance touching the virtual
    node f, computed purely from the original matrix (no re-factorization).

    ``row`` is Z_f* (2 x 2n) and ``col`` is Z_*f (2n x 2); named accessors
    pick the 2x2 blocks against a given bus. Leading axes, if any, stack
    several branches.
    """

    row: np.ndarray
    col: np.ndarray
    Z_ff: np.ndarray
    j: int
    k: int

    def Z_fi(self, i: int) -> np.ndarray:
        return self.row[..., block_slice(i)]

    def Z_if(self, i: int) -> np.ndarray:
        return self.col[..., block_slice(i), :]


def split_branch(R, L, omega0: float, lam: complex) -> SplitBranch:
    """Split a series RL branch at s = lambda into inductive z1 = L[[s,-w0],[w0,s]]
    and resistive z2 = R I parts joined at a virtual node (stacked over
    arrays R and L)."""
    if not np.all(np.asarray(L) > 0):
        raise AnalysisError(f"branch inductance must be positive, got {L}")
    z1 = np.multiply.outer(L, omega_block(lam, omega0))
    z2 = np.multiply.outer(R, _I2.astype(complex))
    return SplitBranch(z1=z1, z2=z2, R=R, L=L, omega0=omega0, lam=lam)


def _inv2(M: np.ndarray, what: str) -> np.ndarray:
    return assembly.inv2(
        M, lambda: DegenerateSplitError(f"{what} is singular; fall back to the unsplit branch")
    )


def _split_node_blocks(Z, j, k, z1, inverses, with_identity: bool) -> SplitNodeImpedances:
    """Split-node blocks of branch (j, k) from the rows and columns j, k of Z
    (leading axes stack branches)."""
    y, z1_inv, z2_inv, mix = inverses
    sj, sk = block_slice(j), block_slice(k)
    row_j, row_k = Z[..., sj, :], Z[..., sk, :]
    col_j, col_k = Z[..., :, sj], Z[..., :, sk]
    # voltage at f from an injection anywhere: f sits past z1 from node j
    row_f = row_j - z1 @ y @ (row_j - row_k)
    # injection at f splits over z1/z2 toward nodes j and k
    col_f = (col_j @ z1_inv + col_k @ z2_inv) @ mix
    core = z1_inv @ col_f[..., sj, :] + z2_inv @ col_f[..., sk, :]
    if with_identity:
        core = core + _I2
    return SplitNodeImpedances(row=row_f, col=col_f, Z_ff=mix @ core, j=j, k=k)


def _checked_split_inverses(z1, z2):
    """(y, z1^-1, z2^-1, mix) of split parts, single or stacked, with
    y = (z1 + z2)^-1 and mix = (z1^-1 + z2^-1)^-1; raises
    DegenerateSplitError where one is singular: R = 0, or lambda on the
    branch pole or at +-j w0."""
    y = _inv2(z1 + z2, "series impedance z1 + z2")
    z1_inv = _inv2(z1, "inductive part z1")
    z2_inv = _inv2(z2, "resistive part z2")
    return y, z1_inv, z2_inv, _inv2(z1_inv + z2_inv, "parallel combination of z1 and z2")


def split_node_impedances(
    Z_at_lambda: np.ndarray, j: int, k: int, z1: np.ndarray, z2: np.ndarray
) -> SplitNodeImpedances:
    """Impedance blocks of the system augmented with the virtual split node f
    of branch (j, k), from the original whole-system impedance only.

    Row blocks follow the voltage-divider identity, column blocks the
    current-splitting identity, and Z_ff the KCL closure at f; all agree
    with the explicit (2n+2)-dimensional augmented-matrix inversion.
    """
    inverses = _checked_split_inverses(z1, z2)
    return _split_node_blocks(Z_at_lambda, j, k, z1, inverses, with_identity=True)


def split_node_residues(
    res: np.ndarray, j: int, k: int, z1: np.ndarray, z2: np.ndarray
) -> SplitNodeImpedances:
    """Same block algebra applied to the residue matrix at a mode.

    The branch impedances are analytic at the mode, so taking residues of
    the augmentation identities just drops the constant (identity) term in
    the Z_ff closure.
    """
    inverses = _checked_split_inverses(z1, z2)
    return _split_node_blocks(res, j, k, z1, inverses, with_identity=False)


def split_parameter_derivatives(split: SplitBranch):
    """Analytic admittance derivatives of the split parts:
    dy1/dL = -z1^{-1} (dz1/dL) z1^{-1} and dy2/dR = -z2^{-1} z2^{-1}."""
    z1_inv = _inv2(split.z1, "inductive part z1")
    z2_inv = _inv2(split.z2, "resistive part z2")
    return _dy_dL(z1_inv, split.lam, split.omega0), _dy_dR(z2_inv)
