"""Seeded network generator and the benchmark's own reference model.

The generator writes network documents in the impedmodal JSON format; the
program under test only ever sees those documents. Topology and value
ranges follow the ROADMAP baseline spec:

- n buses; lines i -> i+1 plus a closing line 1 -> n, R ~ U(0.02, 0.05),
  L ~ U(0.001, 0.003); a meshed network adds chords between non-adjacent
  buses drawn from the same ranges;
- a capacitive shunt on every bus, C ~ U(5e-4, 1.5e-3);
- a resistive shunt, U(2, 3), on every third bus;
- a series RL load on every odd bus, Ra ~ U(0.1, 0.2), La ~ U(0.005, 0.01),
  theta 0.1, as a state-space apparatus or as its exact ``rational`` twin.

The reference side (state matrix, Y(s) and the modes) is written here from
the physics of these elements, independently of the program, so that the
output checks do not trust the code they check.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

OMEGA0 = 100 * np.pi
THETA = 0.1
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_I2 = np.eye(2)


def _rl_state_space(Ra: float, La: float) -> dict:
    A = [[-Ra / La, OMEGA0], [-OMEGA0, -Ra / La]]
    return {
        "kind": "state_space",
        "A": A,
        "B": [[1.0 / La, 0.0], [0.0, 1.0 / La]],
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "D": [[0.0, 0.0], [0.0, 0.0]],
    }


def _rl_rational(Ra: float, La: float) -> dict:
    """Y = (Ra I + La (s I + w0 J))^-1 entry by entry, descending powers."""
    den = [La * La, 2.0 * Ra * La, Ra * Ra + (OMEGA0 * La) ** 2]
    return {
        "kind": "rational",
        "entries": [
            [{"num": [La, Ra], "den": den}, {"num": [OMEGA0 * La], "den": den}],
            [{"num": [-OMEGA0 * La], "den": den}, {"num": [La, Ra], "den": den}],
        ],
    }


def _ring_chords(n: int, n_chords: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    candidates = [
        (i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)
        if not (i == 1 and j == n)
    ]
    if n_chords > len(candidates):
        raise ValueError(f"{n} buses admit at most {len(candidates)} chords")
    picks = rng.choice(len(candidates), size=n_chords, replace=False)
    return sorted(candidates[k] for k in picks)


def generate(n_buses: int, seed: int, n_chords: int = 0, apparatus: str = "state_space") -> dict:
    """Network document for a seeded ring (``n_chords = 0``) or meshed ring.

    The same (n_buses, seed, n_chords) gives the same element values for
    both apparatus kinds, so a ``rational`` network has an exact
    ``state_space`` twin with the same modes.
    """
    if n_buses < 3:
        raise ValueError("a ring needs at least 3 buses")
    if apparatus not in ("state_space", "rational"):
        raise ValueError(f"unknown apparatus kind '{apparatus}'")
    rng = np.random.default_rng(seed)
    pairs = [(i, i + 1) for i in range(1, n_buses)] + [(1, n_buses)]
    branches = [
        {"kind": "line", "from": i, "to": j,
         "R": float(rng.uniform(0.02, 0.05)), "L": float(rng.uniform(0.001, 0.003))}
        for i, j in pairs
    ]
    shunts = [
        {"bus": b, "kind": "capacitive", "value": float(rng.uniform(5e-4, 1.5e-3))}
        for b in range(1, n_buses + 1)
    ]
    shunts += [
        {"bus": b, "kind": "resistive", "value": float(rng.uniform(2.0, 3.0))}
        for b in range(3, n_buses + 1, 3)
    ]
    make_model = _rl_state_space if apparatus == "state_space" else _rl_rational
    apps = []
    for b in range(1, n_buses + 1, 2):
        Ra, La = float(rng.uniform(0.1, 0.2)), float(rng.uniform(0.005, 0.01))
        apps.append({"bus": b, "theta": THETA, "model": make_model(Ra, La)})
    for i, j in _ring_chords(n_buses, n_chords, rng):
        branches.append(
            {"kind": "line", "from": i, "to": j,
             "R": float(rng.uniform(0.02, 0.05)), "L": float(rng.uniform(0.001, 0.003))}
        )
    return {
        "n_buses": n_buses,
        "omega0": OMEGA0,
        "branches": branches,
        "shunts": shunts,
        "apparatus": apps,
    }


def relabel(doc: dict, seed: int) -> dict:
    """The same network with buses renumbered, line ends swapped and element
    lists shuffled by a seeded permutation: a different input file with the
    same physics, hence the same modes."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(doc["n_buses"]) + 1  # old bus b -> perm[b - 1]
    out = json.loads(json.dumps(doc))
    for br in out["branches"]:
        ends = [int(perm[br["from"] - 1]), int(perm[br["to"] - 1])]
        if rng.random() < 0.5:
            ends.reverse()
        br["from"], br["to"] = ends
    for item in out["shunts"] + out["apparatus"]:
        item["bus"] = int(perm[item["bus"] - 1])
    for key in ("branches", "shunts", "apparatus"):
        out[key] = [out[key][k] for k in rng.permutation(len(out[key]))]
    return out


def write(doc: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Reference model
# ---------------------------------------------------------------------------


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _blk(bus: int) -> slice:
    return slice(2 * (bus - 1), 2 * bus)


def _apparatus_ss(app: dict):
    m = app["model"]
    if m["kind"] != "state_space":
        raise ValueError("the reference model needs state-space apparatus (use the twin)")
    return tuple(np.array(m[key], dtype=float) for key in ("A", "B", "C", "D"))


def state_matrix(doc: dict) -> np.ndarray:
    """State matrix of a network of lines, RC shunts and state-space
    apparatus with a capacitor on every bus, in the global dq frame.

    C_b (v' + w0 J v) = -G_b v - (current drawn by branches and apparatus)
    L (i' + w0 J i) = v_from - v_to - R i
    x' = A x + B T^T v,  drawn = T (C x + D T^T v)
    """
    n = doc["n_buses"]
    w0 = doc["omega0"]
    cap = np.zeros(n + 1)
    G = np.zeros((n + 1, 2, 2))
    for sh in doc["shunts"]:
        if sh["kind"] == "capacitive":
            cap[sh["bus"]] += sh["value"]
        elif sh["kind"] == "resistive":
            G[sh["bus"]] += _I2 / sh["value"]
        else:
            raise ValueError(f"reference model has no '{sh['kind']}' shunt")
    if np.any(cap[1:] <= 0):
        raise ValueError("reference model needs a capacitor on every bus")
    apps = [(_apparatus_ss(a), _rotation(a.get("theta", 0.0)), a["bus"]) for a in doc["apparatus"]]
    n_branch = len(doc["branches"])
    nx = 2 * n + 2 * n_branch + sum(ss[0].shape[0] for ss, _, _ in apps)
    A = np.zeros((nx, nx))
    V = _blk  # bus voltages are the first 2n states
    drawn = np.zeros((n + 1, 2, nx))  # current drawn from each bus, by state
    for bus in range(1, n + 1):
        A[V(bus), V(bus)] += -w0 * _J
    for k, br in enumerate(doc["branches"]):
        if br.get("ratio", 1.0) != 1.0:
            raise ValueError("reference model has lines only")
        rows = slice(2 * n + 2 * k, 2 * n + 2 * k + 2)
        A[rows, rows] = -(br["R"] / br["L"]) * _I2 - w0 * _J
        A[rows, V(br["from"])] += _I2 / br["L"]
        A[rows, V(br["to"])] -= _I2 / br["L"]
        drawn[br["from"], :, rows] += _I2
        drawn[br["to"], :, rows] -= _I2
    col = 2 * n + 2 * n_branch
    for (Aa, Ba, Ca, Da), T, bus in apps:
        na = Aa.shape[0]
        rows = slice(col, col + na)
        A[rows, rows] = Aa
        A[rows, V(bus)] += Ba @ T.T
        drawn[bus, :, rows] += T @ Ca
        G[bus] += T @ Da @ T.T
        col += na
    for bus in range(1, n + 1):
        rows = V(bus)
        A[rows, :] -= drawn[bus] / cap[bus]
        A[rows, V(bus)] -= G[bus] / cap[bus]
    return A


def reference_modes(doc: dict, band=None) -> np.ndarray:
    """Oscillatory modes (Im > 0) of the reference state matrix, optionally
    restricted to ``band[0] <= Im <= band[1]``, sorted by (Im, Re)."""
    lam = np.linalg.eigvals(state_matrix(doc))
    lam = lam[lam.imag > 0]
    if band is not None:
        lam = lam[(lam.imag >= band[0]) & (lam.imag <= band[1])]
    return np.array(sorted(lam, key=lambda z: (z.imag, z.real)))


def admittance(doc: dict, s: complex) -> np.ndarray:
    """Whole-system Y(s) = Y_N(s) + Y_G(s) of a reference-model network."""
    n = doc["n_buses"]
    w0 = doc["omega0"]
    Y = np.zeros((2 * n, 2 * n), dtype=complex)
    for br in doc["branches"]:
        y = np.linalg.inv(br["R"] * _I2 + br["L"] * (s * _I2 + w0 * _J))
        i, j = _blk(br["from"]), _blk(br["to"])
        Y[i, i] += y
        Y[j, j] += y
        Y[i, j] -= y
        Y[j, i] -= y
    for sh in doc["shunts"]:
        b = _blk(sh["bus"])
        if sh["kind"] == "capacitive":
            Y[b, b] += sh["value"] * (s * _I2 + w0 * _J)
        else:
            Y[b, b] += _I2 / sh["value"]
    for app in doc["apparatus"]:
        (Aa, Ba, Ca, Da), T = _apparatus_ss(app), _rotation(app.get("theta", 0.0))
        y = Ca @ np.linalg.solve(s * np.eye(Aa.shape[0]) - Aa, Ba) + Da
        b = _blk(app["bus"])
        Y[b, b] += T @ y @ T.T
    return Y


def rl_twin_of_samples(doc: dict, base_dir: Path) -> dict:
    """State-space twin of a network whose sampled apparatus are series RL
    loads: Ra and La are identified by least squares on the samples, and
    the twin is refused unless the RL model reproduces them to 1e-9."""
    w0 = doc["omega0"]
    twin = json.loads(json.dumps(doc))
    for app in twin["apparatus"]:
        if app["model"]["kind"] != "samples":
            continue
        with open(base_dir / app["model"]["path"], newline="", encoding="utf-8") as fh:
            rows = [[float(x) for x in r] for r in list(csv.reader(fh))[1:] if r]
        data = np.array(rows)
        w = data[:, 0]
        Y = (data[:, 1::2] + 1j * data[:, 2::2]).reshape(-1, 2, 2)
        Z = np.linalg.inv(Y)
        # Z = Ra I + La (j w I + w0 J): linear in (Ra, La)
        basis_R = np.broadcast_to(_I2, Z.shape).reshape(-1)
        basis_L = (1j * w[:, None, None] * _I2 + w0 * _J).reshape(-1)
        M = np.stack([basis_R, basis_L], axis=1)
        M_real = np.vstack([M.real, M.imag])
        z = Z.reshape(-1)
        (Ra, La), *_ = np.linalg.lstsq(M_real, np.concatenate([z.real, z.imag]), rcond=None)
        fit = np.linalg.inv(Ra * _I2 + La * (1j * w[:, None, None] * _I2 + w0 * _J))
        dev = float(np.max(np.abs(fit - Y)) / np.max(np.abs(Y)))
        if dev > 1e-9:
            raise ValueError(f"sampled apparatus is not a series RL load (deviation {dev:.2e})")
        app["model"] = _rl_state_space(float(Ra), float(La))
    return twin
