"""Discrete Wigner functions on finite phase spaces.

Tools for two-level, two-qubit and four-level quantum states: clock and
shift operators, the phase-point operator basis, generator sets for the
special unitary groups of dimensions 2 and 4, named state families,
correlation signatures, super-fidelity, and a single-ququart parity
algorithm simulation, plus file formats and a CLI.

Names load on first use: ``import dwigner`` imports neither numpy nor any
submodule, and ``dwigner.wigner_su4`` imports ``dwigner.generators`` (and
what it needs) the first time it is read.  The public names are those of
``__all__``; ``kernel`` and ``generators`` are the functions of those
names, not their submodules.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "algorithm": (
        "AlgorithmStep",
        "AlgorithmTrace",
        "fourier4",
        "measure_probabilities",
        "permutation_pulse",
        "run_parity_algorithm",
    ),
    "fidelity": ("state_overlap", "super_fidelity"),
    "generators": (
        "AlgebraReport",
        "GeneratorSet",
        "StructureConstants",
        "bloch_vector",
        "density_from_bloch",
        "generator_from_schwinger",
        "generator_representative",
        "generators",
        "structure_constants",
        "verify_algebra",
        "wigner_su2",
        "wigner_su4",
    ),
    "io": ("emit_grid", "parse_grid", "parse_matrix", "serialize_matrix"),
    "kernel": (
        "MappingKernel",
        "SchwingerPair",
        "grid_overlap",
        "kernel",
        "phase_exponent",
        "reconstruct",
        "schwinger_pair",
        "symmetrized_basis",
        "wigner_grid",
    ),
    "linalg": (
        "DEFAULT_TOLERANCE",
        "DensityMatrix",
        "DensityMatrixError",
        "PositivityReport",
        "hermitian_eigenvalues",
        "positivity_inequalities",
        "purity",
        "trace_product",
        "validate_density",
    ),
    "states": (
        "BELL_KINDS",
        "MarginalPair",
        "XState",
        "bell",
        "bell_fano",
        "bell_wigner_pair",
        "bell_wigner_su4",
        "gisin",
        "gisin_from_combinations",
        "munro",
        "peres_horodecki",
        "werner",
        "werner_wigner",
        "xstate_delta",
        "xstate_from_matrix",
        "xstate_marginals",
        "xstate_reduced_wigner",
        "xstate_wigner",
    ),
    "twoqubit": (
        "FanoCoefficients",
        "delta_pair",
        "density_from_su4_coefficients",
        "fano_compose",
        "fano_extract",
        "fano_matrix",
        "pair_index",
        "reduced_density",
        "reduced_wigner",
        "su4_coefficients",
        "wigner_pair",
        "wigner_pair_from_matrix",
    ),
}
# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules whose names are not taken by a function
_SUBMODULES = tuple(module for module in _EXPORTS if module not in _SOURCE)

__all__ = sorted([*_SOURCE, *_SUBMODULES])


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*__all__, *(name for name in globals() if name.startswith("__"))})


class _Package(ModuleType):
    """The package module: keeps the functions ``kernel`` and ``generators`` bound.

    Importing the submodule ``dwigner.kernel`` or ``dwigner.generators`` sets
    that submodule as an attribute of the package, which would shadow the
    public function of the same name.
    """

    def __setattr__(self, name, value):
        if name in ("kernel", "generators") and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
