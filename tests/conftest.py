"""Shared fixtures: small benchmark networks with known modal structure."""

import functools
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from impedmodal import mass_oracle, network_model
from impedmodal.admittance_assembly import WholeSystemModel
from impedmodal.network_model import (
    ApparatusAttachment,
    NetworkDescription,
    SeriesBranch,
    ShuntElement,
    StateSpaceRealization,
)

W0 = 100 * np.pi


def rl_load_apparatus(Ra: float, La: float, w0: float = W0) -> StateSpaceRealization:
    """Series RL load as a state-space apparatus: bus voltage in, drawn
    current out, states = dq inductor current in the local frame."""
    A = np.array([[-Ra / La, w0], [-w0, -Ra / La]])
    B = np.eye(2) / La
    return StateSpaceRealization(A=A, B=B, C=np.eye(2), D=np.zeros((2, 2)))


def generated_ring_doc(n_buses: int, seed: int, apparatus: str = "state_space") -> dict:
    """The network document of the ring of ``n_buses`` that the benchmark's
    generator (perfbench/netgen.py) draws for ``seed``, its apparatus given
    as ``state_space`` models or as their exact ``rational`` twins."""
    spec = importlib.util.spec_from_file_location(
        "netgen", Path(__file__).resolve().parents[1] / "perfbench" / "netgen.py")
    netgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(netgen)
    return netgen.generate(n_buses, seed, apparatus=apparatus)


def generated_ring(n_buses: int, seed: int, apparatus: str = "state_space") -> NetworkDescription:
    """The parsed network of :func:`generated_ring_doc`."""
    return network_model.parse_network(json.dumps(generated_ring_doc(n_buses, seed, apparatus)))


def same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bytes: equal values, signs of zero included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def dense_residue(mode) -> np.ndarray:
    """The dense (2n, 2n) impedance residue of a ``ModeRecord`` from its
    rank-one factors: outer(left, right), divided by ``denom`` where one is
    given."""
    res = np.outer(mode.left, mode.right)
    return res if mode.denom is None else res / mode.denom


def table_admittance(net: NetworkDescription, ref, s) -> np.ndarray:
    """Element ``ref``'s own admittance y(s) (a branch's series admittance),
    cut from one evaluation of its network's WholeSystemModel."""
    table = WholeSystemModel(net)
    return table.evaluate(s)[..., table.index[tuple(ref)], :, :]


def node_admittance(element, s, theta: float = 0.0) -> np.ndarray:
    """The admittance y(s) of one ``ShuntElement``, or of one apparatus
    model at frame angle ``theta``, alone on its bus of a network at W0,
    from that network's WholeSystemModel."""
    if isinstance(element, ShuntElement):
        net = NetworkDescription(n_buses=element.bus, omega0=W0, shunts=(element,))
    else:
        net = NetworkDescription(n_buses=1, omega0=W0,
                                 apparatus=(ApparatusAttachment(bus=1, model=element, theta=theta),))
    return WholeSystemModel(net).evaluate(s)[..., 0, :, :]


def scaled_net(net: NetworkDescription, ref, factor: float) -> NetworkDescription:
    """``net`` with element ``ref``'s admittance scaled by ``factor`` through
    its physical parameters (:func:`mass_oracle.scaled_element`)."""
    field = {"branch": "branches", "shunt": "shunts", "apparatus": "apparatus"}[ref[0]]
    elements = list(getattr(net, field))
    elements[ref[1]] = mass_oracle.scaled_element(net, ref, factor)
    return replace(net, **{field: tuple(elements)})


@pytest.fixture(scope="session")
def three_bus_net() -> NetworkDescription:
    """Oracle-capable 3-bus benchmark: line 1-2, transformer 2-3 (k = 0.932),
    RC shunts, and two RL-load apparatus with nonzero frame angles.
    14 states, 7 conjugate mode pairs between ~50 and ~1800 rad/s."""
    return NetworkDescription(
        n_buses=3,
        omega0=W0,
        branches=(
            SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.05, L=0.002),
            SeriesBranch(kind="transformer", from_bus=2, to_bus=3, R=0.03, L=0.0015,
                         ratio=0.932),
        ),
        shunts=(
            ShuntElement(bus=1, kind="capacitive", value=0.001),
            ShuntElement(bus=2, kind="capacitive", value=0.0008),
            ShuntElement(bus=3, kind="capacitive", value=0.0012),
            ShuntElement(bus=1, kind="resistive", value=2.0),
            ShuntElement(bus=3, kind="resistive", value=1.5),
        ),
        apparatus=(
            ApparatusAttachment(bus=3, model=rl_load_apparatus(0.1, 0.005), theta=0.3),
            ApparatusAttachment(bus=1, model=rl_load_apparatus(0.2, 0.01), theta=-0.2),
        ),
    )


@pytest.fixture(scope="session")
def two_bus_net() -> NetworkDescription:
    """RL line between two capacitor-grounded buses: 6 states."""
    return NetworkDescription(
        n_buses=2,
        omega0=W0,
        branches=(SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.02, L=0.001),),
        shunts=(
            ShuntElement(bus=1, kind="capacitive", value=0.002),
            ShuntElement(bus=2, kind="capacitive", value=0.0015),
            ShuntElement(bus=1, kind="resistive", value=4.0),
        ),
    )


@pytest.fixture(scope="session")
def rc_bus_net() -> NetworkDescription:
    """Single bus with parallel R-C shunt: Y = [[G+sC, -w0 C],[w0 C, G+sC]]
    with G = 0.1, C = 0.01, so the modes sit exactly at -G/C +- j w0
    = -10 +- j*100*pi (the benchmark values used throughout)."""
    return NetworkDescription(
        n_buses=1,
        omega0=W0,
        shunts=(
            ShuntElement(bus=1, kind="resistive", value=10.0),  # G = 0.1
            ShuntElement(bus=1, kind="capacitive", value=0.01),
        ),
    )


def rl_shunt_impedance(s: complex, R: float = 0.1, L: float = 0.01, w0: float = W0):
    """dq impedance block of the series RL shunt benchmark; its determinant
    vanishes at s = -R/L +- j w0."""
    return np.array([[R + s * L, -w0 * L], [w0 * L, R + s * L]], dtype=complex)


def rl_shunt_admittance(s: complex, R: float = 0.1, L: float = 0.01, w0: float = W0):
    """Admittance of the series RL shunt: poles at -R/L +- j w0."""
    return np.linalg.inv(rl_shunt_impedance(s, R, L, w0))


class PointwiseModel:
    """A toy Y(s), a callable of one s giving a ``dim`` x ``dim`` matrix, as
    the model that the impedance-route routines take: ``admittance``
    evaluates it at a scalar s, or point by point over an array of s."""

    def __init__(self, Y, dim: int):
        self.Y, self.dim = Y, dim

    def admittance(self, s) -> np.ndarray:
        if np.ndim(s) == 0:
            return np.asarray(self.Y(complex(s)), dtype=complex)
        return np.array([np.asarray(self.Y(complex(x)), dtype=complex) for x in s])


def count_formed_x(mp: pytest.MonkeyPatch, formed: list) -> None:
    """Patch, through ``mp``, ``EigenStructure.right`` so that every
    formation of an eigenbasis's complex eigenvector matrix X appends that
    eigenbasis to ``formed``; X is still formed once and kept."""
    form = mass_oracle.EigenStructure.right.func

    def counted(eig):
        formed.append(eig)
        return form(eig)

    right = functools.cached_property(counted)
    right.__set_name__(mass_oracle.EigenStructure, "right")
    mp.setattr(mass_oracle.EigenStructure, "right", right)


def overflowing_three_bus_doc() -> dict:
    """The shipped three_bus network document with apparatus 0 a valid 2 x 2
    ``rational`` model whose diagonal, (1e300 s^3 + 1) / (1e300 s^3 + 2),
    overflows in the Horner pass above about 565 rad/s: Y is not finite
    there."""
    path = Path(__file__).resolve().parents[1] / "networks" / "three_bus.json"
    doc = json.loads(path.read_text())
    diag, off = {"num": [1e300, 0, 0, 1], "den": [1e300, 0, 0, 2]}, {"num": [0], "den": [1]}
    doc["apparatus"][0]["model"] = {"kind": "rational", "entries": [[diag, off], [off, diag]]}
    return doc


def mixed_ring_doc() -> dict:
    """Network document of a 6-bus ring with every element kind the layer
    pass distinguishes: lines, a transformer (4-5, k = 0.95), a line in
    parallel with 2-3, capacitive shunts on every bus, a resistive (bus 3)
    and an inductive (bus 2) shunt, and series RL loads on the odd buses
    given as exact rational models (no state-space realization)."""
    rng = np.random.default_rng(11)
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (3, 2)]
    branches = [{"kind": "line", "from": i, "to": j, "R": rng.uniform(0.02, 0.05),
                 "L": rng.uniform(0.001, 0.003)} for i, j in pairs]
    branches[3].update(kind="transformer", ratio=0.95)
    shunts = [{"bus": b, "kind": "capacitive", "value": rng.uniform(5e-4, 1.5e-3)}
              for b in range(1, 7)]
    shunts += [{"bus": 3, "kind": "resistive", "value": 2.5},
               {"bus": 2, "kind": "inductive", "value": 0.08}]
    apparatus = []
    for b in (1, 3, 5):
        Ra, La = rng.uniform(0.1, 0.2), rng.uniform(0.005, 0.01)
        den = [La * La, 2 * Ra * La, Ra * Ra + (W0 * La) ** 2]
        apparatus.append({"bus": b, "theta": 0.1, "model": {"kind": "rational", "entries": [
            [{"num": [La, Ra], "den": den}, {"num": [W0 * La], "den": den}],
            [{"num": [-W0 * La], "den": den}, {"num": [La, Ra], "den": den}]]}})
    return {"n_buses": 6, "omega0": W0, "branches": branches, "shunts": shunts,
            "apparatus": apparatus}
