"""Network data model: buses, branches, shunts, apparatus attachments.

Defines the immutable description of a power network for small-signal
analysis and the parser/serializer for the JSON network-description file.
All element values are per-unit; the file declares the base angular
frequency ``omega0`` (rad/s) explicitly. Bus indices are 1-based.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

__all__ = [
    "NetworkError",
    "NetworkFormatError",
    "NetworkValidationError",
    "SeriesBranch",
    "ShuntElement",
    "StateSpaceRealization",
    "RationalMatrix",
    "RationalModel",
    "SampledResponse",
    "ApparatusAttachment",
    "NetworkDescription",
    "Violation",
    "parse_network",
    "serialize_network",
    "validate",
    "read_response_csv",
    "write_response_csv",
]


class NetworkError(Exception):
    """Base class for network-description errors."""


class NetworkFormatError(NetworkError):
    """Malformed document: syntax error, unknown field, or wrong type.

    ``line`` and ``column`` are set for JSON syntax errors (1-based).
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class NetworkValidationError(NetworkError):
    """A structurally well-formed document violates a model invariant."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__(
            "; ".join(v.message for v in violations) or "invalid network description"
        )


@dataclass(frozen=True)
class Violation:
    """A single invariant violation, reported as data rather than raised."""

    code: str
    message: str


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SeriesBranch:
    """Series RL branch between two buses, optionally behind an ideal transformer.

    A line is the ``ratio == 1`` special case of the transformer branch; the
    stamping code treats both identically. The series impedance sits on the
    ``to_bus`` side; the ideal transformer (ratio ``k : 1``) on the
    ``from_bus`` side.
    """

    kind: str  # "line" | "transformer"
    from_bus: int
    to_bus: int
    R: float
    L: float
    ratio: float = 1.0


@dataclass(frozen=True)
class ShuntElement:
    """Single passive shunt (bus to ground): resistive, inductive or capacitive."""

    bus: int
    kind: str  # "resistive" | "inductive" | "capacitive"
    value: float  # R, L or C in per-unit


@dataclass(frozen=True, eq=False)
class StateSpaceRealization:
    """Real small-signal model (A, B, C, D).

    An apparatus model is in its local dq frame: input is the dq
    terminal-voltage deviation, output the dq current deviation flowing from
    the bus into the apparatus (2 inputs, 2 outputs). The interconnected
    network (``mass_oracle.interconnect``) maps per-bus injected currents to
    bus voltages.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C", "D"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n_states(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class RationalMatrix:
    """2x2 matrix of rational functions of s.

    ``numerators`` and ``denominators`` are (2, 2) object arrays whose entries
    are 1-D coefficient arrays in descending powers of s (numpy.polyval
    convention).
    """

    numerators: tuple
    denominators: tuple

    def entry_coeffs(self, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.numerators[p][q], dtype=float),
            np.asarray(self.denominators[p][q], dtype=float),
        )


@dataclass(eq=False)
class RationalModel:
    """Common-pole rational matrix model: sum_k R_k/(s - p_k) + d + s e.

    Complex poles come in conjugate pairs with conjugate residue matrices;
    ``rms_rel_error`` and ``max_rel_deviation`` describe the fit quality over
    the sample grid it was identified from.
    """

    poles: np.ndarray
    residues: np.ndarray  # (n_poles, dim, dim)
    const: np.ndarray  # (dim, dim)
    linear: np.ndarray  # (dim, dim)
    rms_rel_error: float = 0.0
    max_rel_deviation: float = 0.0
    n_iterations_run: int = 0
    converged: bool = True
    warning: Optional[str] = None

    def __post_init__(self):
        # a repeated pole means the partial-fraction form is unstable
        p = np.asarray(self.poles)
        for k in range(p.size):
            close = np.abs(p[k + 1:] - p[k]) <= 1e-9 * (1.0 + abs(p[k]))
            if np.any(close):
                note = f"poles coincide near {p[k]} (within 1e-9 relative)"
                self.warning = f"{self.warning}; {note}" if self.warning else note
                break

    @property
    def dim(self) -> int:
        return self.const.shape[0]

    def evaluate(self, s) -> np.ndarray:
        """Model value at s; stacked (M, dim, dim) over an array of s."""
        s = np.asarray(s, dtype=complex)
        terms = self.residues / (s[..., None] - self.poles)[..., None, None]
        out = self.const + s[..., None, None] * self.linear
        # added pole by pole, in order: one s gives the same bits alone and stacked
        for k in range(self.poles.size):
            out = out + terms[..., k, :, :]
        return out


@dataclass(frozen=True, eq=False)
class SampledResponse:
    """Sampled matrix response: frequencies (rad/s) and (M, dim, dim) blocks.

    A measured apparatus admittance has 2x2 blocks; a whole-system
    impedance from :func:`read_response_csv` or
    ``rational_fit.sample_response`` has 2n x 2n. ``path`` records the CSV
    the samples were loaded from, so serialization round-trips the file
    reference.
    """

    frequencies: np.ndarray  # (M,), strictly increasing, rad/s
    blocks: np.ndarray  # (M, dim, dim) complex
    path: Optional[str] = None

    def __post_init__(self):
        f = np.array(self.frequencies, dtype=float)
        f.flags.writeable = False
        b = np.array(self.blocks, dtype=complex)
        b.flags.writeable = False
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "blocks", b)

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]


ApparatusModel = Union[StateSpaceRealization, RationalMatrix, RationalModel, SampledResponse]


@dataclass(frozen=True, eq=False)
class ApparatusAttachment:
    """Apparatus (SG/CIG small-signal model) attached to a bus.

    ``theta`` is the steady-state rotation aligning the apparatus local dq
    frame to the global frame, in (-pi, pi].
    """

    bus: int
    model: ApparatusModel
    theta: float = 0.0


@dataclass(frozen=True, eq=False)
class NetworkDescription:
    """Static topology of the studied network. Immutable after construction."""

    n_buses: int
    omega0: float
    branches: tuple[SeriesBranch, ...] = ()
    shunts: tuple[ShuntElement, ...] = ()
    apparatus: tuple[ApparatusAttachment, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "shunts", tuple(self.shunts))
        object.__setattr__(self, "apparatus", tuple(self.apparatus))

    def with_branch(self, index: int, **changes) -> "NetworkDescription":
        """Functional update of one branch (used by parameter sweeps)."""
        branches = list(self.branches)
        branches[index] = replace(branches[index], **changes)
        return replace(self, branches=tuple(branches))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {"n_buses", "omega0", "branches", "shunts", "apparatus"}
_BRANCH_KEYS = {"kind", "from", "to", "R", "L", "ratio"}
_SHUNT_KEYS = {"bus", "kind", "value"}
_APPARATUS_KEYS = {"bus", "theta", "model"}
_SS_KEYS = {"kind", "A", "B", "C", "D"}
_RATIONAL_KEYS = {"kind", "entries"}
_SAMPLES_KEYS = {"kind", "path"}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise NetworkFormatError(f"unknown field '{unknown[0]}' in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise NetworkFormatError(f"missing field '{key}' in {where}")
    return obj[key]


def _number(value, key: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkFormatError(f"field '{key}' in {where} must be a number")
    return float(value)


def _integer(value, key: str, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise NetworkFormatError(f"field '{key}' in {where} must be an integer")
    return value


def _coefficients(value, key: str, where: str) -> np.ndarray:
    """Polynomial coefficients: a number or a flat list of numbers."""
    try:
        arr = np.atleast_1d(np.array(value, dtype=float))
        if arr.ndim == 1:
            return arr
    except (TypeError, ValueError):
        pass
    raise NetworkFormatError(
        f"field '{key}' in {where} must be a number or a flat list of numbers")


def _matrix(value, key: str, where: str, allow_empty: bool = False) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"field '{key}' in {where} is not a numeric matrix: {exc}")
    if arr.size == 0:
        if allow_empty:
            return arr.reshape(0, 0) if arr.ndim < 2 else arr
        raise NetworkFormatError(f"field '{key}' in {where} must not be empty")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise NetworkFormatError(f"field '{key}' in {where} must be a row-major 2-D array")
    return arr


def _parse_branch(obj: dict, idx: int) -> SeriesBranch:
    where = f"branches[{idx}]"
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where} must be an object")
    _check_keys(obj, _BRANCH_KEYS, where)
    kind = _require(obj, "kind", where)
    if kind not in ("line", "transformer"):
        raise NetworkFormatError(f"{where}: kind must be 'line' or 'transformer', got '{kind}'")
    ratio = _number(obj["ratio"], "ratio", where) if "ratio" in obj else 1.0
    return SeriesBranch(
        kind=kind,
        from_bus=_integer(_require(obj, "from", where), "from", where),
        to_bus=_integer(_require(obj, "to", where), "to", where),
        R=_number(_require(obj, "R", where), "R", where),
        L=_number(_require(obj, "L", where), "L", where),
        ratio=ratio,
    )


def _parse_shunt(obj: dict, idx: int) -> ShuntElement:
    where = f"shunts[{idx}]"
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where} must be an object")
    _check_keys(obj, _SHUNT_KEYS, where)
    kind = _require(obj, "kind", where)
    if kind not in ("resistive", "inductive", "capacitive"):
        raise NetworkFormatError(
            f"{where}: kind must be 'resistive', 'inductive' or 'capacitive', got '{kind}'"
        )
    return ShuntElement(
        bus=_integer(_require(obj, "bus", where), "bus", where),
        kind=kind,
        value=_number(_require(obj, "value", where), "value", where),
    )


def write_response_csv(omegas: np.ndarray, values: np.ndarray) -> str:
    """Serialize a sampled dim x dim response as CSV: omega (rad/s), then
    re/im per matrix entry, row-major, under an ``omega,re_1_1,im_1_1,...``
    header."""
    dim = values.shape[1]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["omega"] + [f"{part}_{i}_{j}" for i in range(1, dim + 1)
                     for j in range(1, dim + 1) for part in ("re", "im")]
    )
    for w, block in zip(omegas, values):
        row = [repr(float(w))]
        for z in block.reshape(-1):
            row.extend([repr(float(z.real)), repr(float(z.imag))])
        writer.writerow(row)
    return out.getvalue()


def read_response_csv(text: str, dim: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """Parse the CSV layout of :func:`write_response_csv` into frequencies
    (M,) and complex values (M, dim, dim).

    A non-numeric first row is a header; blank rows are skipped. ``dim``
    fixes the matrix size (1 + 2 dim^2 columns); otherwise the first data
    row sets the width. Raises NetworkFormatError on malformed input, a
    non-finite value included.
    """
    width = None if dim is None else 1 + 2 * dim * dim
    rows = []
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            if lineno == 1:
                continue  # header
            raise NetworkFormatError(f"response CSV line {lineno}: non-numeric value")
        if not np.isfinite(values).all():
            raise NetworkFormatError(f"response CSV line {lineno}: non-finite value")
        if width is None:
            width = len(values)
        if len(values) != width:
            raise NetworkFormatError(
                f"response CSV line {lineno}: expected {width} columns, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise NetworkFormatError("response CSV contains no data rows")
    n = int(round(np.sqrt((width - 1) // 2)))
    if n < 1 or width != 1 + 2 * n * n:
        raise NetworkFormatError(f"response CSV width {width} does not describe a square matrix")
    data = np.array(rows, dtype=float)
    return data[:, 0], (data[:, 1::2] + 1j * data[:, 2::2]).reshape(-1, n, n)


def _parse_model(obj: dict, where: str, base_dir: Optional[str]) -> ApparatusModel:
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where} must be an object")
    kind = _require(obj, "kind", where)
    if kind == "state_space":
        _check_keys(obj, _SS_KEYS, where)
        A = _matrix(_require(obj, "A", where), "A", where, allow_empty=True)
        B = _matrix(_require(obj, "B", where), "B", where, allow_empty=True)
        C = _matrix(_require(obj, "C", where), "C", where, allow_empty=True)
        D = _matrix(_require(obj, "D", where), "D", where)
        if A.size == 0:
            # D-only (static) model: zero states; a non-empty B or C fails validation
            A = np.zeros((0, 0))
            B, C = (B if B.size else np.zeros((0, 2))), (C if C.size else np.zeros((2, 0)))
        return StateSpaceRealization(A=A, B=B, C=C, D=D)
    if kind == "rational":
        _check_keys(obj, _RATIONAL_KEYS, where)
        entries = _require(obj, "entries", where)
        if not (isinstance(entries, list) and len(entries) == 2
                and all(isinstance(r, list) and len(r) == 2 for r in entries)):
            raise NetworkFormatError(f"{where}: entries must be a 2x2 array of objects")
        nums, dens = [], []
        for p in range(2):
            nrow, drow = [], []
            for q in range(2):
                e = entries[p][q]
                if not isinstance(e, dict):
                    raise NetworkFormatError(f"{where}: entries[{p}][{q}] must be an object")
                at = f"{where}.entries[{p}][{q}]"
                _check_keys(e, {"num", "den"}, at)
                nrow.append(tuple(_coefficients(_require(e, "num", at), "num", at)))
                drow.append(tuple(_coefficients(_require(e, "den", at), "den", at)))
            nums.append(tuple(nrow))
            dens.append(tuple(drow))
        return RationalMatrix(numerators=tuple(nums), denominators=tuple(dens))
    if kind == "samples":
        _check_keys(obj, _SAMPLES_KEYS, where)
        path = _require(obj, "path", where)
        if not isinstance(path, str):
            raise NetworkFormatError(f"{where}: path must be a string")
        full = path if os.path.isabs(path) or base_dir is None else os.path.join(base_dir, path)
        try:
            with open(full, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise NetworkFormatError(f"{where}: cannot read samples file '{path}': {exc}")
        frequencies, blocks = read_response_csv(text, dim=2)
        return SampledResponse(frequencies=frequencies, blocks=blocks, path=path)
    raise NetworkFormatError(
        f"{where}: model kind must be 'state_space', 'rational' or 'samples', got '{kind}'"
    )


def _parse_apparatus(obj: dict, idx: int, base_dir: Optional[str]) -> ApparatusAttachment:
    where = f"apparatus[{idx}]"
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where} must be an object")
    _check_keys(obj, _APPARATUS_KEYS, where)
    return ApparatusAttachment(
        bus=_integer(_require(obj, "bus", where), "bus", where),
        theta=_number(obj.get("theta", 0.0), "theta", where),
        model=_parse_model(_require(obj, "model", where), f"{where}.model", base_dir),
    )


def parse_network(document: str, base_dir: Optional[str] = None) -> NetworkDescription:
    """Parse a network-description document into a validated NetworkDescription.

    Parameters
    ----------
    document : str
        JSON text with top-level keys ``n_buses``, ``omega0``, ``branches``,
        ``shunts``, ``apparatus``.
    base_dir : str, optional
        Directory against which sampled-response CSV paths are resolved.

    Raises
    ------
    NetworkFormatError
        On syntax errors (with position) or unknown/ill-typed fields.
    NetworkValidationError
        When the parsed structure violates a model invariant.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"syntax error: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(raw, dict):
        raise NetworkFormatError("top level must be an object")
    _check_keys(raw, _TOP_KEYS, "top level")
    n_buses = _integer(_require(raw, "n_buses", "top level"), "n_buses", "top level")
    omega0 = _number(_require(raw, "omega0", "top level"), "omega0", "top level")
    for key in ("branches", "shunts", "apparatus"):
        if key in raw and not isinstance(raw[key], list):
            raise NetworkFormatError(f"field '{key}' must be an array")
    branches = tuple(_parse_branch(b, i) for i, b in enumerate(raw.get("branches", [])))
    shunts = tuple(_parse_shunt(s, i) for i, s in enumerate(raw.get("shunts", [])))
    apparatus = tuple(
        _parse_apparatus(a, i, base_dir) for i, a in enumerate(raw.get("apparatus", []))
    )
    net = NetworkDescription(
        n_buses=n_buses, omega0=omega0, branches=branches, shunts=shunts, apparatus=apparatus
    )
    violations = validate(net)
    if violations:
        raise NetworkValidationError(violations)
    return net


def _model_to_json(model: ApparatusModel) -> dict:
    if isinstance(model, StateSpaceRealization):
        return {
            "kind": "state_space",
            "A": model.A.tolist(),
            "B": model.B.tolist(),
            "C": model.C.tolist(),
            "D": model.D.tolist(),
        }
    if isinstance(model, RationalMatrix):
        entries = [
            [
                {"num": list(model.numerators[p][q]), "den": list(model.denominators[p][q])}
                for q in range(2)
            ]
            for p in range(2)
        ]
        return {"kind": "rational", "entries": entries}
    if isinstance(model, RationalModel):
        raise NetworkError("a fitted surrogate has no document form; "
                           "serialize the network before fitting")
    if isinstance(model, SampledResponse):
        if model.path is None:
            raise NetworkError("sampled-response model has no file path to serialize")
        return {"kind": "samples", "path": model.path}
    raise NetworkError(f"unknown apparatus model type {type(model)!r}")


def serialize_network(net: NetworkDescription) -> str:
    """Serialize to the JSON document format; inverse of :func:`parse_network`."""
    doc: dict = {"n_buses": net.n_buses, "omega0": net.omega0}
    doc["branches"] = [
        {
            "kind": b.kind,
            "from": b.from_bus,
            "to": b.to_bus,
            "R": b.R,
            "L": b.L,
            **({"ratio": b.ratio} if b.kind == "transformer" else {}),
        }
        for b in net.branches
    ]
    doc["shunts"] = [{"bus": s.bus, "kind": s.kind, "value": s.value} for s in net.shunts]
    doc["apparatus"] = [
        {"bus": a.bus, "theta": a.theta, "model": _model_to_json(a.model)}
        for a in net.apparatus
    ]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _bus_ok(bus: int, n: int) -> bool:
    return 1 <= bus <= n


def _non_finite(label: str, **values) -> list[Violation]:
    """A violation for each of ``values`` (numbers or arrays) that holds a
    NaN or an infinity."""
    return [Violation("non_finite", f"{label}: {name} must be finite")
            for name, value in values.items() if not np.all(np.isfinite(value))]


def validate(net: NetworkDescription) -> list[Violation]:
    """Check every model invariant; returns an empty list iff the network is valid.

    Every number must be finite (JSON parsing admits NaN and Infinity).
    Violations are returned as data so callers can report all of them at
    once. The function is pure: identical inputs yield identical lists.
    """
    out: list[Violation] = []
    n = net.n_buses
    if n < 1:
        out.append(Violation("n_buses", f"n_buses must be positive, got {n}"))
    if not (0 < net.omega0 < math.inf):
        out.append(Violation("omega0", f"omega0 must be finite and positive, got {net.omega0}"))

    for i, b in enumerate(net.branches):
        label = f"branch[{i}] ({b.from_bus}-{b.to_bus})"
        for end, name in ((b.from_bus, "from"), (b.to_bus, "to")):
            if not _bus_ok(end, n):
                out.append(
                    Violation("bus_range", f"{label}: {name} bus {end} outside [1, {n}]")
                )
        if b.from_bus == b.to_bus:
            out.append(Violation("self_loop", f"{label}: from and to buses are equal"))
        if not (0 <= b.R < math.inf):
            out.append(Violation("branch_R", f"{label}: R must be finite and >= 0, got {b.R}"))
        if not (0 < b.L < math.inf):
            out.append(Violation("branch_L", f"{label}: L must be finite and > 0, got {b.L}"))
        if b.ratio == 0 or not math.isfinite(b.ratio):
            out.append(Violation("branch_ratio",
                                 f"{label}: transformer ratio must be finite and nonzero, "
                                 f"got {b.ratio}"))
        if b.kind == "line" and b.ratio != 1.0:
            out.append(Violation("line_ratio", f"{label}: a line must have unit ratio"))

    for i, s in enumerate(net.shunts):
        label = f"shunt[{i}] (bus {s.bus})"
        if not _bus_ok(s.bus, n):
            out.append(Violation("bus_range", f"{label}: bus {s.bus} outside [1, {n}]"))
        if not (0 < s.value < math.inf):
            out.append(Violation("shunt_value",
                                 f"{label}: value must be finite and > 0, got {s.value}"))

    seen_buses: dict[int, int] = {}
    for i, a in enumerate(net.apparatus):
        label = f"apparatus[{i}] (bus {a.bus})"
        if not _bus_ok(a.bus, n):
            out.append(Violation("bus_range", f"{label}: bus {a.bus} outside [1, {n}]"))
        if a.bus in seen_buses:
            out.append(
                Violation(
                    "apparatus_per_bus",
                    f"{label}: bus already carries apparatus[{seen_buses[a.bus]}]; the "
                    "apparatus admittance matrix is block diagonal with one block per bus",
                )
            )
        else:
            seen_buses[a.bus] = i
        if not (-math.pi < a.theta <= math.pi):
            out.append(
                Violation("theta_range", f"{label}: theta must lie in (-pi, pi], got {a.theta}")
            )
        out.extend(_validate_model(a.model, label))

    connected = set()
    for b in net.branches:
        connected.add(b.from_bus)
        connected.add(b.to_bus)
    for s in net.shunts:
        connected.add(s.bus)
    for bus in range(1, n + 1):
        if bus not in connected:
            out.append(
                Violation(
                    "isolated_bus",
                    f"bus {bus} is isolated: no branch or shunt connects it",
                )
            )
    return out


def _validate_model(model: ApparatusModel, label: str) -> list[Violation]:
    out: list[Violation] = []
    if isinstance(model, StateSpaceRealization):
        nx = model.A.shape[0]
        if model.A.ndim != 2 or model.A.shape[0] != model.A.shape[1]:
            out.append(Violation("model_dims", f"{label}: A must be square"))
        elif model.B.shape != (nx, 2) or model.C.shape != (2, nx) or model.D.shape != (2, 2):
            out.append(
                Violation(
                    "model_dims",
                    f"{label}: expected B ({nx}x2), C (2x{nx}), D (2x2); got "
                    f"B {model.B.shape}, C {model.C.shape}, D {model.D.shape}",
                )
            )
        out.extend(_non_finite(label, A=model.A, B=model.B, C=model.C, D=model.D))
    elif isinstance(model, RationalMatrix):
        for p in range(2):
            for q in range(2):
                num, den = model.entry_coeffs(p, q)
                if den.size == 0 or not np.any(den):
                    out.append(
                        Violation("model_denominator", f"{label}: entry ({p},{q}) denominator is zero")
                    )
                if num.size == 0:
                    out.append(
                        Violation("model_numerator", f"{label}: entry ({p},{q}) numerator is empty")
                    )
                out.extend(_non_finite(label, **{f"entry ({p},{q}) numerator": num,
                                                 f"entry ({p},{q}) denominator": den}))
    elif isinstance(model, RationalModel):
        n_poles = np.size(model.poles)
        shapes = (np.shape(model.const), np.shape(model.linear), np.shape(model.residues))
        if shapes != ((2, 2), (2, 2), (n_poles, 2, 2)):
            out.append(
                Violation(
                    "model_dims",
                    f"{label}: expected const (2x2), linear (2x2), residues "
                    f"({n_poles}x2x2); got const {shapes[0]}, linear {shapes[1]}, "
                    f"residues {shapes[2]}",
                )
            )
        out.extend(_non_finite(label, poles=model.poles, residues=model.residues,
                               const=model.const, linear=model.linear))
    elif isinstance(model, SampledResponse):
        if model.blocks.shape != (model.frequencies.size, 2, 2):
            out.append(
                Violation(
                    "model_dims",
                    f"{label}: expected {model.frequencies.size} samples of 2x2 blocks; "
                    f"got frequencies {model.frequencies.shape}, blocks {model.blocks.shape}",
                )
            )
        if model.frequencies.size < 2:
            out.append(Violation("model_samples", f"{label}: needs at least 2 samples"))
        elif not np.all(np.diff(model.frequencies) > 0):
            out.append(
                Violation("model_samples", f"{label}: sample frequencies must strictly increase")
            )
        out.extend(_non_finite(label, frequencies=model.frequencies, samples=model.blocks))
    else:
        out.append(Violation("model_kind", f"{label}: unrecognized apparatus model"))
    return out
