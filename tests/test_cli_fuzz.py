"""Fuzz of argument vectors and small input files through ``cli.main``, in-process.

Every call must return exit code 0, 1 or 2 without raising; under
``--json-errors`` stderr is empty or exactly one JSON object.  Each example
runs in a fresh working directory, since a drawn word may name an output file.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dwigner import bell, serialize_matrix, werner
from dwigner.cli import main

FILES = {
    "bell.json": serialize_matrix(bell("phi+")),
    "werner.json": serialize_matrix(werner(0.3)),
    "qubit.json": serialize_matrix(np.array([[0.7, 0.2j], [-0.2j, 0.3]])),
    "negative.json": serialize_matrix(np.diag([1.2, -0.2, 0.0, 0.0])),
    "skew.json": serialize_matrix(np.eye(4) / 4 + 0.1j * np.eye(4, k=1)),
    "dim3.json": serialize_matrix(np.eye(3) / 3),
    "broken.json": '{"dim": 4, "re": [[1]]',
}
INPUTS = [*FILES, "fuzz.txt", "missing.json", "out"]
OUTPUTS = ["out", "out/nested", "bell.json"]
FORMATS = ["csv", "json", "gnuplot"]
NAMES = [
    "bell:phi+", "bell:chi", "werner:F=0.5", "werner:F=2", "munro:g=0.5", "ph:x=0.3", "ph:x=nan",
    "gisin:a=0.8,b=0.6,x=1", "gisin:a=0.6,b=0.3,x=0.5", "gisin:s=0.1,p=0.2,x=0.5", "gisin:a=1",
    "level:2", "level:9", "level:x", "foo", "=",
]
# command -> option -> the values that option takes; the first option of a command is required
SPEC = {
    "wigner": {"--input": INPUTS, "--rep": ["su2", "su4", "pair"], "--output": OUTPUTS, "--format": FORMATS},
    "state": {"--name": NAMES, "--emit": ["matrix", "wigner"], "--rep": ["su2", "su4", "pair"], "--format": FORMATS},
    "delta": {"--input": INPUTS, "--rep": ["pair", "xstate"], "--format": FORMATS},
    "marginals": {"--input": INPUTS, "--output": OUTPUTS},
    "algorithm": {"--pulse": ["2", "6", "3"], "--noise": ["0.1", "-1", "nan", "1e308"], "--snapshots": OUTPUTS},
    "fidelity": {"--a": INPUTS, "--b": INPUTS},
    "validate": {"--input": INPUTS},
}
WORDS = st.one_of(
    st.sampled_from([*SPEC, "--json-errors", "-h", "--bogus", "", "-1"] + [o for spec in SPEC.values() for o in spec]),
    st.text(max_size=8),
)
CONTENT = st.one_of(st.sampled_from(list(FILES.values())), st.text(max_size=60))


def _argument_vector(data):
    # mostly well-formed commands with a few stray words, so every exit code occurs
    command = data.draw(st.sampled_from(list(SPEC)) if data.draw(st.integers(0, 7)) else WORDS)
    if command not in SPEC:
        return [command, *data.draw(st.lists(WORDS, max_size=4))]
    spec = SPEC[command]
    options = list(spec)[: 1 if data.draw(st.integers(0, 4)) else 0]
    options += data.draw(st.lists(st.sampled_from(list(spec)), max_size=3))
    argv = [command]
    for option in options:
        argv += [option, data.draw(st.sampled_from(spec[option]) if data.draw(st.integers(0, 5)) else WORDS)]
    return argv + data.draw(st.lists(WORDS, max_size=0 if data.draw(st.integers(0, 4)) else 2))


@contextlib.contextmanager
def _working_directory(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    json_errors=st.booleans(),
    data=st.data(),
    content=CONTENT,
)
def test_cli_main_exits_cleanly_on_any_argument_vector(json_errors, data, content):
    argv = (["--json-errors"] if json_errors else []) + _argument_vector(data)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory, _working_directory(directory):
        for name, text in {**FILES, "fuzz.txt": content}.items():
            Path(name).write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    if json_errors and stderr:
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr
        doc = json.loads(stderr)
        assert set(doc) == {"error", "kind"} and doc["kind"] in ("usage", "validation")
