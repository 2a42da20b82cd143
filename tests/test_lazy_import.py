"""The package loads lazily: names on first use, and each CLI command only what it runs.

Each import check runs in a fresh interpreter, since this process has
long since loaded numpy and every submodule.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dwigner
from dwigner import cli

SRC = str(Path(dwigner.__file__).resolve().parents[1])

# every public name of the package as it was when __init__ imported each submodule eagerly
EXPORTED = [
    "AlgebraReport", "AlgorithmStep", "AlgorithmTrace", "BELL_KINDS", "DEFAULT_TOLERANCE",
    "DensityMatrix", "DensityMatrixError", "FanoCoefficients", "GeneratorSet", "MappingKernel",
    "MarginalPair", "PositivityReport", "SchwingerPair", "StructureConstants", "XState",
    "algorithm", "bell", "bell_fano", "bell_wigner_pair", "bell_wigner_su4", "bloch_vector",
    "delta_pair", "density_from_bloch", "density_from_su4_coefficients", "emit_grid",
    "fano_compose", "fano_extract", "fano_matrix", "fidelity", "fourier4",
    "generator_from_schwinger", "generator_representative", "generators", "gisin",
    "gisin_from_combinations", "grid_overlap", "hermitian_eigenvalues", "io", "kernel", "linalg",
    "measure_probabilities", "munro", "pair_index", "parse_grid", "parse_matrix", "peres_horodecki",
    "permutation_pulse", "phase_exponent", "positivity_inequalities", "purity", "reconstruct",
    "reduced_density", "reduced_wigner", "run_parity_algorithm", "schwinger_pair", "serialize_matrix",
    "state_overlap", "states", "structure_constants", "su4_coefficients", "super_fidelity",
    "symmetrized_basis", "trace_product", "twoqubit", "validate_density", "verify_algebra", "werner",
    "werner_wigner", "wigner_grid", "wigner_pair", "wigner_pair_from_matrix", "wigner_su2",
    "wigner_su4", "xstate_delta", "xstate_from_matrix", "xstate_marginals", "xstate_reduced_wigner",
    "xstate_wigner",
]
SUBMODULES = ["algorithm", "fidelity", "io", "linalg", "states", "twoqubit"]
MODULES = {
    name: importlib.import_module(f"dwigner.{name}")
    for name in ("algorithm", "fidelity", "generators", "io", "kernel", "linalg", "states", "twoqubit")
}


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports dwigner from this checkout; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    return done.stdout


def _loaded_after(code: str) -> set[str]:
    """The numpy and dwigner modules loaded after running ``code`` in a fresh interpreter."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'dwigner'))))"
    return set(json.loads(_fresh(code + report).splitlines()[-1]))


def test_import_loads_neither_numpy_nor_a_submodule():
    assert _loaded_after("import dwigner") == {"dwigner"}


def test_all_lists_the_names_the_package_exported():
    assert sorted(dwigner.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(dwigner))


@pytest.mark.parametrize("name", EXPORTED)
def test_each_name_is_the_object_its_submodule_defines(name):
    value = getattr(dwigner, name)
    if name in SUBMODULES:
        assert value is MODULES[name]
        return
    assert any(getattr(module, name, None) is value for module in MODULES.values())
    home = getattr(value, "__module__", None)
    if home is not None:
        assert getattr(sys.modules[home], name) is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        dwigner.nosuch


def test_import_leaves_every_cached_map_empty():
    # every cache the two modules define, the stacked grid maps, the su4 change of basis and the
    # Pauli rows among them, is filled on first use
    code = (
        "import json, dwigner\n"
        "import dwigner.states, dwigner.twoqubit\n"
        "print(json.dumps({f'{m.__name__}.{name}': f.cache_info().currsize\n"
        "                  for m in (dwigner.twoqubit, dwigner.states)\n"
        "                  for name, f in vars(m).items()\n"
        "                  if hasattr(f, 'cache_info') and f.__module__ == m.__name__}))"
    )
    sizes = json.loads(_fresh(code))
    assert {
        "dwigner.twoqubit._fano_map",
        "dwigner.twoqubit._pauli_rows",
        "dwigner.twoqubit._su4_basis_map",
        "dwigner.states._xstate_map",
    } <= set(sizes)
    assert set(sizes.values()) == {0}, sizes


@pytest.mark.parametrize(
    "imports",
    [
        "import dwigner.kernel; import dwigner.generators; import dwigner",
        "import dwigner; import dwigner.generators; import dwigner.kernel",
        "import dwigner; dwigner.kernel; import dwigner.kernel; dwigner.generators; import dwigner.generators",
        "import dwigner.twoqubit; import dwigner.states; import dwigner.algorithm",
        "import dwigner.cli; from dwigner.kernel import kernel; from dwigner.generators import generators",
        "from dwigner import kernel, generators; import dwigner.states",
        "import importlib; importlib.import_module('dwigner.generators'); importlib.import_module('dwigner.kernel')",
    ],
)
def test_kernel_and_generators_stay_functions_whatever_the_import_order(imports):
    code = (
        f"{imports}\n"
        "import sys, types, dwigner\n"
        "k, g = dwigner.kernel, dwigner.generators\n"
        "print(callable(k) and not isinstance(k, types.ModuleType), callable(g) and not isinstance(g, types.ModuleType),\n"
        "      k is sys.modules['dwigner.kernel'].kernel, g is sys.modules['dwigner.generators'].generators)"
    )
    assert _fresh(code).split() == ["True"] * 4


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["wigner", "--input", "rho.json", "--rep", "bogus"],
        ["algorithm", "--pulse", "3"],
        ["state", "--name", "nosuch:1"],
    ],
)
def test_cli_refusals_return_before_numpy_loads(argv):
    code = (
        "import contextlib, io\n"
        "from dwigner import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code)"
    )
    assert _loaded_after(code) == {"dwigner", "dwigner.cli"}  # numpy included


def test_cli_validate_loads_only_the_modules_it_runs(tmp_path):
    path = tmp_path / "rho.json"
    path.write_text('{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}', encoding="utf-8")
    code = (
        "import contextlib, io\n"
        "from dwigner import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['validate', '--input', {str(path)!r}]) == 0\n"
    )
    loaded = _loaded_after(code)
    assert "numpy" in loaded
    assert not loaded & {"dwigner.generators", "dwigner.twoqubit", "dwigner.states", "dwigner.algorithm"}


def test_cli_grid_formats_match_the_library():
    assert cli.GRID_FORMATS == MODULES["io"].GRID_FORMATS


def test_cli_state_kinds_are_the_names_named_state_builds():
    for kind in cli.STATE_KINDS:
        with pytest.raises(cli.UsageError) as info:
            cli.named_state(f"{kind}:")
        assert "unknown state name" not in str(info.value)
