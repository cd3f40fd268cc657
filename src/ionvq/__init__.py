"""ionvq: simulate and compile trapped-ion registers that pack several
virtual qubits into the internal levels of each ion."""

from .core import (
    EncodingMap,
    IonSpec,
    Register,
    StateVector,
    Circuit,
    R,
    MS,
    apply_native,
    build_register,
    embed_standard,
    gate_matrix,
    identity_map,
    m1_map,
    m2_map,
    sample_measurement,
    sequence_matrix,
)

__all__ = [
    "EncodingMap",
    "IonSpec",
    "Register",
    "StateVector",
    "Circuit",
    "R",
    "MS",
    "apply_native",
    "build_register",
    "embed_standard",
    "gate_matrix",
    "identity_map",
    "m1_map",
    "m2_map",
    "sample_measurement",
    "sequence_matrix",
]

__version__ = "0.1.0"
