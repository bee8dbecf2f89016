"""Property: one bad config field never crashes the CLI.

Each example takes a cheap, valid base config of a command, replaces one
of its fields (at any depth) by a value from a pool of wrong types, bools,
non-finite numbers, signs, out-of-range and tiny sizes, lists and objects,
and runs `main` in process.  Whatever the value, the run exits 0, 1 or 2,
prints no traceback, leaves no files when it exits 2, and writes only strict
JSON.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from branchedham.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_OUT = {"directory": "unused", "formats": ["csv", "json", "svg"]}
BASES = [
    {"command": "branches",
     "model": {"kind": "gaussian", "m": 1.0, "C": 1.0,
               "potential": {"kind": "harmonic_shifted", "c0": 1.0, "a": 1.0}},
     "n_points": 21, "output": _OUT},
    {"command": "branches",
     "model": {"kind": "family", "k": 2, "potential": {"kind": "square"}},
     "n_points": 21, "output": _OUT},
    {"command": "classical", "model": {"kind": "susy"}, "energies": [1.0],
     "trajectories": [{"x_v": [0.3, 0.5], "t_max": 0.5},
                      {"x": 0.2, "p": 0.5, "branch": "h_plus", "t_max": 0.5}],
     "tol": 1e-6, "t_max": 0.5, "n_samples": 20, "output": _OUT},
    {"command": "quantum", "model": {"kind": "susy"}, "profile": "susy_minus",
     "bc": "neumann", "kappa": 0.5, "bracket": [-0.5, 0.5], "e_max": 1.0,
     "tol_e": 1e-3, "tol": 1e-6, "p_max": 20.0, "output": _OUT},
    {"command": "deform", "model": {"kind": "susy"}, "kappas": [1.0, 0.5],
     "p_grid": {"max": 5.0, "n": 11}, "output": _OUT},
]
POOL = ["abc", True, math.nan, math.inf, -math.inf, 0, -1, 10 ** 9, 1e300,
        1e-300, 5e-324, [1, 2], {"a": 1}]


def _paths(node, prefix=()):
    """Every key or index path inside a config, containers included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


CASES = [(k, path) for k, base in enumerate(BASES) for path in _paths(base)]


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=st.sampled_from(CASES), value=st.sampled_from(POOL))
def test_one_bad_field_never_crashes(case, value):
    base, path = case
    cfg = copy.deepcopy(BASES[base])
    command = cfg["command"]
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        written = sorted(out.iterdir()) if out.exists() else []
        if code == 2:
            assert written == []
        if code == 0:
            json.loads(stdout.getvalue(), parse_constant=_reject_constant)
        for f in written:
            if f.suffix == ".json":
                json.loads(f.read_text(), parse_constant=_reject_constant)
