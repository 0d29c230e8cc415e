"""Parsing, serialization and validation of the network description."""

import json
import math

import numpy as np
import pytest

from impedmodal import network_model
from impedmodal.network_model import (
    ApparatusAttachment,
    NetworkDescription,
    NetworkError,
    NetworkFormatError,
    NetworkValidationError,
    RationalMatrix,
    RationalModel,
    SampledResponse,
    SeriesBranch,
    ShuntElement,
    StateSpaceRealization,
    parse_network,
    read_response_csv,
    serialize_network,
    validate,
    write_response_csv,
)

from conftest import same_bits

MINIMAL = """
{
  "n_buses": 1,
  "omega0": 314.159265358979,
  "shunts": [{"bus": 1, "kind": "capacitive", "value": 0.01}]
}
"""


def test_parse_minimal_one_bus_shunt():
    net = parse_network(MINIMAL)
    assert net.n_buses == 1
    assert len(net.shunts) == 1
    assert net.shunts[0].kind == "capacitive"
    assert net.branches == () and net.apparatus == ()


def test_parse_transformer_ratio():
    doc = json.dumps(
        {
            "n_buses": 2,
            "omega0": 314.0,
            "branches": [
                {"kind": "transformer", "from": 1, "to": 2, "R": 0.01, "L": 0.001,
                 "ratio": 0.932}
            ],
        }
    )
    net = parse_network(doc)
    b = net.branches[0]
    assert b.kind == "transformer"
    assert b.ratio == 0.932


def test_parse_bus_out_of_range():
    doc = json.dumps(
        {
            "n_buses": 14,
            "omega0": 314.0,
            "branches": [{"kind": "line", "from": 1, "to": 99, "R": 0.01, "L": 0.001}],
            "shunts": [{"bus": 1, "kind": "capacitive", "value": 0.01}],
        }
    )
    with pytest.raises(NetworkValidationError) as exc:
        parse_network(doc)
    assert any(v.code == "bus_range" and "99" in v.message for v in exc.value.violations)


def test_parse_syntax_error_reports_position():
    with pytest.raises(NetworkFormatError) as exc:
        parse_network('{"n_buses": 1,\n  "omega0": }')
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_parse_unknown_field():
    doc = json.dumps({"n_buses": 1, "omega0": 314.0, "frequency": 50})
    with pytest.raises(NetworkFormatError, match="unknown field 'frequency'"):
        parse_network(doc)


def test_parse_unknown_branch_field():
    doc = json.dumps(
        {
            "n_buses": 2,
            "omega0": 314.0,
            "branches": [{"kind": "line", "from": 1, "to": 2, "R": 0.0, "L": 1e-3, "X": 1.0}],
        }
    )
    with pytest.raises(NetworkFormatError, match="unknown field 'X'"):
        parse_network(doc)


def test_parse_state_space_apparatus():
    doc = json.dumps(
        {
            "n_buses": 1,
            "omega0": 314.0,
            "shunts": [{"bus": 1, "kind": "capacitive", "value": 0.01}],
            "apparatus": [
                {
                    "bus": 1,
                    "theta": 0.2,
                    "model": {
                        "kind": "state_space",
                        "A": [[-1.0, 314.0], [-314.0, -1.0]],
                        "B": [[10.0, 0.0], [0.0, 10.0]],
                        "C": [[1.0, 0.0], [0.0, 1.0]],
                        "D": [[0.0, 0.0], [0.0, 0.0]],
                    },
                }
            ],
        }
    )
    net = parse_network(doc)
    model = net.apparatus[0].model
    assert isinstance(model, StateSpaceRealization)
    assert model.n_states == 2
    assert model.A[0, 1] == 314.0


def test_parse_samples_apparatus(tmp_path):
    csv_text = "omega,re_dd,im_dd,re_dq,im_dq,re_qd,im_qd,re_qq,im_qq\n" + "\n".join(
        f"{w},1.0,{0.1*w},0,0,0,0,1.0,{0.1*w}" for w in (10.0, 20.0, 40.0)
    )
    (tmp_path / "app.csv").write_text(csv_text)
    doc = json.dumps(
        {
            "n_buses": 1,
            "omega0": 314.0,
            "shunts": [{"bus": 1, "kind": "capacitive", "value": 0.01}],
            "apparatus": [
                {"bus": 1, "theta": 0.0, "model": {"kind": "samples", "path": "app.csv"}}
            ],
        }
    )
    net = parse_network(doc, base_dir=str(tmp_path))
    model = net.apparatus[0].model
    assert isinstance(model, SampledResponse)
    assert model.frequencies.tolist() == [10.0, 20.0, 40.0]
    assert model.blocks[1][0, 0] == 1.0 + 2.0j


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_clean_ring():
    net = NetworkDescription(
        n_buses=3,
        omega0=314.0,
        branches=tuple(
            SeriesBranch(kind="line", from_bus=i, to_bus=j, R=0.01, L=1e-3)
            for i, j in ((1, 2), (2, 3), (3, 1))
        ),
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
    )
    assert validate(net) == []


def test_validate_zero_inductance_names_branch():
    net = NetworkDescription(
        n_buses=2,
        omega0=314.0,
        branches=(SeriesBranch(kind="line", from_bus=1, to_bus=2, R=0.01, L=0.0),),
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
    )
    violations = validate(net)
    assert len(violations) == 1
    assert violations[0].code == "branch_L"
    assert "branch[0]" in violations[0].message


def test_validate_two_apparatus_same_bus_cites_block_structure():
    app = ApparatusAttachment(bus=1, model=StateSpaceRealization(
        A=np.zeros((0, 0)), B=np.zeros((0, 2)), C=np.zeros((2, 0)), D=np.eye(2)))
    net = NetworkDescription(
        n_buses=1,
        omega0=314.0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
        apparatus=(app, app),
    )
    violations = validate(net)
    assert any(v.code == "apparatus_per_bus" and "block diagonal" in v.message
               for v in violations)


def test_validate_isolated_bus():
    net = NetworkDescription(
        n_buses=2,
        omega0=314.0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
    )
    assert any(v.code == "isolated_bus" and "bus 2" in v.message for v in validate(net))


def test_validate_names_ten_isolated_buses_and_counts_the_rest():
    """The isolated-bus check costs O(elements), not O(n_buses): a document
    claiming 200000 buses with one line gets ten named violations and one
    count, in a short message."""
    doc = {"n_buses": 200000, "omega0": 314.0,
           "branches": [{"kind": "line", "from": 1, "to": 3, "R": 0.1, "L": 0.01}]}
    with pytest.raises(NetworkValidationError) as info:
        parse_network(json.dumps(doc))
    violations = info.value.violations
    assert len(violations) <= 11
    assert all(v.code == "isolated_bus" for v in violations)
    assert len(str(info.value)) < 2048
    assert [v.message.split()[1] for v in violations[:10]] == [
        "2", "4", "5", "6", "7", "8", "9", "10", "11", "12"]
    assert violations[10].message.startswith(f"{200000 - 12} more")


def test_validate_theta_range():
    app = ApparatusAttachment(
        bus=1,
        model=StateSpaceRealization(A=np.zeros((0, 0)), B=np.zeros((0, 2)),
                                    C=np.zeros((2, 0)), D=np.eye(2)),
        theta=4.0,
    )
    net = NetworkDescription(
        n_buses=1,
        omega0=314.0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
        apparatus=(app,),
    )
    assert any(v.code == "theta_range" for v in validate(net))


def test_validate_is_pure(three_bus_net):
    first = validate(three_bus_net)
    second = validate(three_bus_net)
    assert first == second == []


def test_validate_sample_frequencies_must_increase():
    model = SampledResponse(
        frequencies=np.array([10.0, 5.0]), blocks=np.zeros((2, 2, 2), dtype=complex)
    )
    net = NetworkDescription(
        n_buses=1,
        omega0=314.0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
        apparatus=(ApparatusAttachment(bus=1, model=model),),
    )
    assert any(v.code == "model_samples" for v in validate(net))


def test_validate_sample_dimensions():
    """Samples of an apparatus are 2x2 blocks, one per frequency."""
    for blocks in (np.zeros((2, 3, 3)), np.zeros((3, 2, 2))):
        net = NetworkDescription(
            n_buses=1,
            omega0=314.0,
            shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
            apparatus=(ApparatusAttachment(bus=1, model=SampledResponse(
                frequencies=np.array([5.0, 10.0]), blocks=blocks)),),
        )
        assert [v.code for v in validate(net)] == ["model_dims"]


def _rl_rational(num_coeff: float, den_coeff: float) -> RationalMatrix:
    entry = ((num_coeff,), (0.01, den_coeff))
    zero = ((0.0,), (1.0,))
    return RationalMatrix(numerators=((entry[0], zero[0]), (zero[0], entry[0])),
                          denominators=((entry[1], zero[1]), (zero[1], entry[1])))


def _surrogate(**changes) -> RationalModel:
    """A two-pole fitted surrogate, with ``changes`` to its fields."""
    fields = {"poles": np.array([-5.0 + 40.0j, -5.0 - 40.0j]),
              "residues": np.ones((2, 2, 2), dtype=complex),
              "const": np.eye(2), "linear": np.zeros((2, 2))}
    return RationalModel(**{**fields, **changes})


@pytest.mark.parametrize("model", [
    _rl_rational(1.0, math.inf),
    _rl_rational(math.nan, 0.5),
    SampledResponse(frequencies=np.array([5.0, math.inf]), blocks=np.zeros((2, 2, 2))),
    SampledResponse(frequencies=np.array([5.0, 10.0]),
                    blocks=np.full((2, 2, 2), complex(0.0, math.nan))),
    _surrogate(poles=np.array([-5.0 + 40.0j, math.nan])),
    _surrogate(residues=np.full((2, 2, 2), complex(math.inf, 0.0))),
    _surrogate(const=np.full((2, 2), math.nan)),
    _surrogate(linear=np.full((2, 2), -math.inf)),
], ids=["rational_den_inf", "rational_num_nan", "samples_frequency_inf", "samples_value_nan",
        "surrogate_pole_nan", "surrogate_residue_inf", "surrogate_const_nan",
        "surrogate_linear_inf"])
def test_validate_rejects_non_finite_apparatus_numbers(model):
    net = NetworkDescription(
        n_buses=1,
        omega0=314.0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
        apparatus=(ApparatusAttachment(bus=1, model=model),),
    )
    assert {v.code for v in validate(net)} == {"non_finite"}


def _measured_with_surrogate() -> NetworkDescription:
    """The shipped measured network with its sampled apparatus replaced by
    the order-16 surrogate that ``analyze`` fits."""
    from pathlib import Path

    from impedmodal.cli_reporting import _load_network, _with_surrogates

    path = Path(__file__).resolve().parents[1] / "networks" / "measured_two_bus.json"
    return _with_surrogates(_load_network(str(path)), 16)


def test_validate_accepts_fitted_surrogate():
    net = _measured_with_surrogate()
    assert isinstance(net.apparatus[0].model, RationalModel)
    assert validate(net) == []


def test_validate_surrogate_dimensions():
    net = NetworkDescription(
        n_buses=1,
        omega0=314.0,
        shunts=(ShuntElement(bus=1, kind="capacitive", value=0.01),),
        apparatus=(ApparatusAttachment(bus=1, model=_surrogate(const=np.eye(3))),),
    )
    assert [v.code for v in validate(net)] == ["model_dims"]


def test_serialize_rejects_fitted_surrogate():
    with pytest.raises(NetworkError, match="fitted surrogate has no document form"):
        serialize_network(_measured_with_surrogate())


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------


def _random_network(rng: np.random.Generator) -> NetworkDescription:
    n = int(rng.integers(2, 6))
    branches = []
    for bus in range(2, n + 1):
        other = int(rng.integers(1, bus))
        kind = "transformer" if rng.random() < 0.4 else "line"
        branches.append(
            SeriesBranch(
                kind=kind,
                from_bus=other,
                to_bus=bus,
                R=float(rng.uniform(0.0, 0.1)),
                L=float(rng.uniform(1e-4, 5e-3)),
                ratio=float(rng.uniform(0.8, 1.2)) if kind == "transformer" else 1.0,
            )
        )
    shunts = [
        ShuntElement(
            bus=int(rng.integers(1, n + 1)),
            kind=str(rng.choice(["resistive", "inductive", "capacitive"])),
            value=float(rng.uniform(0.001, 10.0)),
        )
        for _ in range(int(rng.integers(1, 4)))
    ]
    apparatus = []
    if rng.random() < 0.7:
        nx = int(rng.integers(0, 4))
        model = StateSpaceRealization(
            A=rng.normal(size=(nx, nx)),
            B=rng.normal(size=(nx, 2)),
            C=rng.normal(size=(2, nx)),
            D=rng.normal(size=(2, 2)),
        )
        apparatus.append(
            ApparatusAttachment(
                bus=int(rng.integers(1, n + 1)),
                model=model,
                theta=float(rng.uniform(-math.pi + 1e-6, math.pi)),
            )
        )
    if rng.random() < 0.4:
        entries_num = tuple(
            tuple(tuple(rng.normal(size=2)) for _ in range(2)) for _ in range(2)
        )
        entries_den = tuple(
            tuple(tuple(np.concatenate([[1.0], rng.normal(size=2)])) for _ in range(2))
            for _ in range(2)
        )
        bus = 1
        taken = {a.bus for a in apparatus}
        while bus in taken and bus <= n:
            bus += 1
        if bus <= n:
            apparatus.append(
                ApparatusAttachment(
                    bus=bus,
                    model=RationalMatrix(numerators=entries_num, denominators=entries_den),
                    theta=0.0,
                )
            )
    return NetworkDescription(
        n_buses=n,
        omega0=float(rng.uniform(100.0, 500.0)),
        branches=tuple(branches),
        shunts=tuple(shunts),
        apparatus=tuple(apparatus),
    )


def _models_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, StateSpaceRealization):
        return all(
            np.array_equal(getattr(a, f), getattr(b, f)) for f in ("A", "B", "C", "D")
        )
    if isinstance(a, RationalMatrix):
        return all(
            np.array_equal(*map(np.asarray, (a.entry_coeffs(p, q)[k], b.entry_coeffs(p, q)[k])))
            for p in range(2) for q in range(2) for k in range(2)
        )
    if isinstance(a, SampledResponse):
        return (
            np.array_equal(a.frequencies, b.frequencies)
            and np.array_equal(a.blocks, b.blocks)
            and a.path == b.path
        )
    return False


def networks_equal(a: NetworkDescription, b: NetworkDescription) -> bool:
    if (a.n_buses, a.omega0) != (b.n_buses, b.omega0):
        return False
    if a.branches != b.branches or a.shunts != b.shunts:
        return False
    if len(a.apparatus) != len(b.apparatus):
        return False
    return all(
        x.bus == y.bus and x.theta == y.theta and _models_equal(x.model, y.model)
        for x, y in zip(a.apparatus, b.apparatus)
    )


def test_round_trip_property():
    """parse(serialize(net)) == net for randomized valid networks."""
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 25:
        net = _random_network(rng)
        if validate(net):
            continue
        again = parse_network(serialize_network(net))
        assert networks_equal(net, again)
        checked += 1


def test_round_trip_three_bus(three_bus_net):
    again = parse_network(serialize_network(three_bus_net))
    assert networks_equal(three_bus_net, again)


def test_sampled_response_csv_round_trip():
    rng = np.random.default_rng(3)
    resp = SampledResponse(
        frequencies=np.sort(rng.uniform(1, 1000, size=8)),
        blocks=rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2)),
        path="x.csv",
    )
    frequencies, blocks = read_response_csv(
        write_response_csv(resp.frequencies, resp.blocks), dim=2
    )
    assert np.array_equal(resp.frequencies, frequencies)
    assert np.array_equal(resp.blocks, blocks)


def _csv_by_rows(text: str, dim=None):
    """What the row-by-row reader makes of ``text``: its rows, or None
    where it refuses the document."""
    try:
        return network_model._read_rows(text, None if dim is None else 1 + 2 * dim * dim)
    except NetworkFormatError:
        return None


def _csv_outcome(reader, text: str, dim=None):
    """(frequencies, values) from ``reader``, or the message it raises."""
    try:
        return reader(text, dim)
    except NetworkFormatError as exc:
        return str(exc)


def _row_reader(text: str, dim=None):
    """read_response_csv with every document read row by row."""
    data = network_model._read_rows(text, None if dim is None else 1 + 2 * dim * dim)
    n = int(round(np.sqrt((data.shape[1] - 1) // 2)))
    if n < 1 or data.shape[1] != 1 + 2 * n * n:
        raise NetworkFormatError(
            f"response CSV width {data.shape[1]} does not describe a square matrix")
    return data[:, 0], (data[:, 1::2] + 1j * data[:, 2::2]).reshape(-1, n, n)


HEADER = "omega,re_1_1,im_1_1\n"


@pytest.mark.parametrize("text, dim, fast", [
    (HEADER + "1.0,2.0,3.0\n4.0,5.0,6.0\n", None, True),  # a header
    ("1.0,2.0,3.0\n4.0,5.0,6.0", 1, True),  # no header, no final newline
    (HEADER + "\n1.0,2.0,3.0\n\n4.0,5.0,6.0\n\n", None, True),  # blank lines
    ("\n" + HEADER + "1.0,2.0,3.0\n", None, False),  # the header is not the first row
    (HEADER + "1.0,  ,3.0\n , ,\n4.0,5.0,6.0\n", None, False),  # blank cells
    (HEADER + "1.0,2.0,3.0\n , ,\n4.0,5.0,6.0\n", None, False),  # a row of blank cells
    (HEADER + "1.0,2.0#,3.0\n", None, False),  # '#' in a cell
    (HEADER + "1.0,2.0,3.0,\n", None, False),  # a trailing comma
    (HEADER + '1.0,"2.0",3.0\n', None, False),  # a quoted cell
    ('"omega","re_1_1","im_1_1"\n1.0,2.0,3.0\n', None, False),  # a quoted header
    (HEADER + "1_0,2.0,3.0\n", None, False),  # float() reads 1_0 as 10
    (HEADER + "1.0,nan,3.0\n", None, False),
    (HEADER + "1.0,2.0,-inf\n", None, False),
    (HEADER + "1.0,2.0,3.0\r\n4.0,5.0,6.0\r\n", None, False),
    (HEADER + "1.0,2.0,3.0\n4.0,5.0\n", None, False),  # width mismatch between rows
    (HEADER + "1.0,2.0,3.0\n", 2, False),  # width mismatch with dim
    ("omega,a,b,c\n1.0,2.0,3.0,4.0\n", None, True),  # rows, but no square matrix
    (HEADER, None, False),  # no data rows
    ("", None, False),
])
def test_response_csv_fast_pass_agrees_with_the_row_reader(text, dim, fast):
    """The one-pass loadtxt read serves the well-formed documents with the
    row reader's floats bit for bit and serves no document the row reader
    refuses; on every document read_response_csv returns what reading row
    by row returns, or raises its error."""
    rows = _csv_by_rows(text, dim)
    loaded = network_model._load_rows(text)
    served = (loaded is not None and np.isfinite(loaded).all()
              and (dim is None or loaded.shape[1] == 1 + 2 * dim * dim))
    assert served == fast
    if served:
        assert rows is not None and same_bits(loaded, rows)
    want = _csv_outcome(_row_reader, text, dim)
    got = _csv_outcome(read_response_csv, text, dim)
    if isinstance(want, str):
        assert got == want
    else:
        assert all(same_bits(a, b) for a, b in zip(got, want))


def test_response_csv_names_the_line_the_csv_module_refuses():
    """A lone carriage return inside a row, which the csv module refuses,
    is a NetworkFormatError naming its line."""
    with pytest.raises(NetworkFormatError, match="^response CSV line 2: new-line character"):
        read_response_csv("omega,a,b\n1,2\r3,4\n")


def test_response_csv_fast_pass_reads_the_shipped_samples():
    """The shipped 220-row samples go through the one-pass read and give the
    row reader's floats bit for bit; so does a written random response."""
    from pathlib import Path

    rng = np.random.default_rng(8)
    texts = [(Path(__file__).resolve().parents[1] / "networks"
              / "measured_two_bus_samples.csv").read_text(),
             write_response_csv(np.sort(rng.uniform(1, 1e4, 30)),
                                rng.normal(size=(30, 3, 3)) * 10.0 ** rng.integers(-300, 300, (30, 3, 3))
                                + 1j * rng.normal(size=(30, 3, 3)))]
    for text in texts:
        assert same_bits(network_model._load_rows(text), _csv_by_rows(text))
        got, want = read_response_csv(text), _row_reader(text)
        assert all(same_bits(a, b) for a, b in zip(got, want))


def test_shipped_example_networks_parse():
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "networks"
    for name in ("three_bus.json", "measured_two_bus.json"):
        net = parse_network((root / name).read_text(), base_dir=str(root))
        assert validate(net) == []
