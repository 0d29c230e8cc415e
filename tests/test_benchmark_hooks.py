"""What the benchmark harness under perfbench/ relies on in the package.

perfbench/tracing.py wraps the functions named in its TRACED table,
perfbench/ladder.py calls solve_modes with an order keyword and
validate_element_prediction with a reference_modes keyword, and
perfbench's own tests build PerturbedModel(net, ref, factor) and
WholeSystemModel(net), and the tracer counts work from the arguments and
results of traced calls. Renaming or removing any of them, or changing those
calls' signatures or result types, breaks the harness, so it fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from impedmodal import admittance_assembly, mai_core, mass_oracle, rational_fit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_entries():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def test_every_traced_function_exists():
    """Each entry is defined where the tracer replaces it: a function in its
    module, a ``Class.method`` in the class's own ``__dict__`` (an inherited
    method is a KeyError when the tracer installs)."""
    entries = _traced_entries()
    assert entries
    for module_name, attr, span in entries:
        owner = importlib.import_module(f"impedmodal.{module_name}")
        for part in attr.split("."):
            assert part in vars(owner), f"{span}: impedmodal.{module_name}.{attr} is gone"
            owner = vars(owner)[part]
        assert callable(owner), span


def test_solve_modes_accepts_the_ladder_call(three_bus_net):
    records = mai_core.solve_modes(three_bus_net, band=(5.0, 5000.0), order=18,
                                   method="impedance")
    assert len(records) == 7
    assert all(r.provenance == "newton-refined" for r in records)


def test_validate_element_prediction_accepts_the_ladder_call(three_bus_net):
    records = mai_core.solve_modes(three_bus_net)
    mode = max(records, key=lambda r: r.lam.real)
    lams = [r.lam for r in records]
    for ref in admittance_assembly.network_elements(three_bus_net):
        v = mai_core.validate_element_prediction(three_bus_net, ref, mode, 0.05,
                                                 reference_modes=lams)
        assert isinstance(v, mai_core.ValidationRecord)


def test_the_model_constructors_accept_the_perfbench_calls(three_bus_net):
    s = 1j * 100.0
    Y = admittance_assembly.PerturbedModel(three_bus_net, ("branch", 0), 1.05).admittance(s)
    Z = admittance_assembly.WholeSystemModel(three_bus_net).impedance(s)
    assert Y.shape == Z.shape == (6, 6)
    assert not np.allclose(Y, admittance_assembly.WholeSystemModel(three_bus_net).admittance(s))


def test_results_carry_what_the_tracer_counts(three_bus_net):
    """``_count_work`` reads ``interconnect(...).n_states``,
    ``vector_fit(...).n_iterations_run``, ``len(find_modes(...))`` and the
    grid as the second argument of ``sample_response`` (or its ``grid``
    keyword); the tracer takes the seeds of ``find_modes`` as its second
    argument or its ``seeds`` keyword."""
    assert mass_oracle.interconnect(three_bus_net).n_states == 14
    assert list(inspect.signature(rational_fit.sample_response).parameters)[:2] == [
        "model", "grid"]
    assert list(inspect.signature(rational_fit.find_modes).parameters)[:2] == ["model", "seeds"]
    model = admittance_assembly.WholeSystemModel(three_bus_net)
    grid = rational_fit.frequency_grid(5.0, 5000.0, 40)
    samples = rational_fit.sample_response(model, grid)
    assert np.array_equal(samples.frequencies, grid)
    assert rational_fit.vector_fit(samples, 4, n_iterations=3).n_iterations_run == 3
    lams = [r.lam for r in mai_core.solve_modes(three_bus_net)]
    assert len(rational_fit.find_modes(model, lams)) == len(lams) == 7
