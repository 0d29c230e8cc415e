"""Impedance-based modal analysis of power networks with converter-interfaced
generation.

Submodules
----------
network_model
    Network description data model, parser/serializer and validation.
admittance_assembly
    dq 2x2 element admittances, evaluated in one stacked pass, and
    whole-system Y(s)/Z(s) stamped from one table per network.
mass_oracle
    State-space interconnection, eigenstructure and the secular re-solves
    of scaled elements: the ground truth the impedance path is checked
    against.
rational_fit
    Response sampling, vector fitting, Newton mode refinement and residues.
mai_core
    Three-layer participation analysis, transformer-ratio correction,
    parameter sensitivities from the unsplit element admittances, sweeps
    and validation.
cli_reporting
    Command-line pipeline and CSV/JSON report emission.
"""

from . import (
    admittance_assembly,
    cli_reporting,
    mai_core,
    mass_oracle,
    network_model,
    rational_fit,
)
from .network_model import NetworkDescription, parse_network, serialize_network, validate

__version__ = "0.1.0"

__all__ = [
    "network_model",
    "admittance_assembly",
    "mass_oracle",
    "rational_fit",
    "mai_core",
    "cli_reporting",
    "NetworkDescription",
    "parse_network",
    "serialize_network",
    "validate",
    "__version__",
]
