"""A seeded mutation fuzzer over the bundled scenarios: every config keeps the
exit-code contract.

Each case is one bundled scenario at the small size of ``test_cli.SMALL``
(``BASE`` adds test points to ``stationary``) with one or two values
replaced from pools of edge values.  Every real
schedule key meets every value of ``HUGE``, so a kernel that overflows on a
value it accepts shows up here; the other cases are drawn from a fixed seed.
Each case runs through ``matwalk run`` in this process and must:

* exit 0, 2 or 3, with no traceback and no ``RuntimeWarning``;
* make no output directory when it exits 2;
* on exit 3, name no refusal that validation owns (``OWNED_REFUSALS``);
* on exit 0, write no non-finite number into an artifact, apart from the
  ``inf`` integral of ``stationary``, which the README documents ("an atom
  sits on y"), and write every CSV byte for byte again at ``--threads 2``.

A failing case names its YAML file and the commands that replay it.
"""

import contextlib
import copy
import csv
import io
import math
import random
import re
import traceback
import warnings

import pytest
import yaml

from matwalk import scenarios
from matwalk.cli import main

from test_cli import SMALL, small_config

SEED = 20261019
BUDGET = 200   # cases in all; the sweep of HUGE takes 50 of them
HUGE = [1000.0, 1e300, 1e308, -1e308, 2**64]
SCALARS = [0, -1, 1, 2, 0.5, 1e-300, 1e308, -1e308, 2**63, 2**64, float("nan"),
           float("inf"), "", "x", True, None, [], {}]
LISTS = [[], [0], [1], [2, 1], [3, 3], [1, 2**63], [0.5], [1e308], "x", None]
STARTS = [[0.0, 0.0], [1e308, 1e308], [1e-320, 0.0], [1.0, 0.0, 0.0], [float("nan"), 1.0]]
TOP = {
    "dimension": [0, -1, 1, 3, 2**63, 1.5, True, None],
    "master_seed": [-1, 0, 2**64, 1.5, "x", None],
    "name": ["", 5, None],
    "kind": ["nope", 3, None],
    "output_dir": [3, ""],
    "assertions": [{"proximal": "yes"}, {"nope": True}, []],
}
ATOM_SCALES = [0.0, 1e-150, 1e150, 1e200, -1e150, float("nan"), float("inf")]
WEIGHTS = [[1.0], [0.0, 1.0], [-0.5, 1.5], [0.5, 0.5 + 1e-6], [0.25, 0.75], "x"]
# sizes past SMALL: ten test points meet pairings small enough that |log delta|^(p - 1)
# of a large p leaves the float range, where three need not
BASE = {"stationary": {"test_points": 10}}
# the one non-finite value an artifact may hold: (kind, file, column)
DOCUMENTED = {("stationary", "report.csv", "integral_value"): {"inf"}}
# a walk's growth refusal and a determinant refusal: validation names both at load
OWNED_REFUSALS = ("a scaled state would overflow", "is not 1 within")
NON_FINITE = re.compile(r"(?<![\w.])[-+]?(?:nan|inf)(?![\w])", re.IGNORECASE)


def _real_keys(table):
    return [key for key, (check, _) in scenarios.SCHEDULES[table].items()
            if check.text.startswith("a finite real")]


def _pool(table, key):
    check = scenarios.SCHEDULES[table][key][0]
    if key == "start":
        return STARTS
    if check.text.startswith("a strictly increasing list"):
        return LISTS
    return SCALARS


def _mutate(data, where, key, value):
    if where == "schedule":
        data["schedule"][key] = value
    elif where == "top":
        data[key] = value
    elif key == "scale":  # the first atom times a factor
        data["measure"]["atoms"][0] = [value * x for x in data["measure"]["atoms"][0]]
    else:
        data["measure"]["weights"] = value


def _targets(table):
    """Every (where, key, pool) a random mutation of ``table`` draws from."""
    targets = [("schedule", key, _pool(table, key)) for key in scenarios.SCHEDULES[table]]
    targets += [("top", key, pool) for key, pool in TOP.items()]
    targets += [("measure", "scale", ATOM_SCALES), ("measure", "weights", WEIGHTS)]
    return targets


def _cases():
    base = {table: small_config(table, BASE.get(table, {})) for table in SMALL}
    cases = [(table, [("schedule", key, value)])
             for table in SMALL for key in _real_keys(table) for value in HUGE]
    draw = random.Random(SEED)
    tables = sorted(SMALL)
    while len(cases) < BUDGET:
        table = draw.choice(tables)
        picks = draw.sample(_targets(table), draw.choice([1, 1, 2]))
        cases.append((table, [(where, key, draw.choice(pool)) for where, key, pool in picks]))
    out = []
    for i, (table, changes) in enumerate(cases):
        data = copy.deepcopy(base[table])
        for where, key, value in changes:
            _mutate(data, where, key, value)
        label = "+".join(f"{key}={value!r}" for _, key, value in changes)
        out.append(pytest.param(data, id=f"{i:03d}-{table}-{label}"[:80]))
    return out


def _non_finite_cells(out, kind):
    """(file, column or line, token) of every non-finite number in the artifacts,
    less the documented ones."""
    found = []
    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.suffix == ".csv":
            rows = list(csv.reader(io.StringIO(text)))
            for row in rows[1:]:
                for column, cell in zip(rows[0], row):
                    try:
                        finite = math.isfinite(float(cell))
                    except ValueError:
                        continue  # text, or an empty cell
                    allowed = DOCUMENTED.get((kind, path.name, column), set())
                    if not finite and cell not in allowed:
                        found.append((path.name, column, cell))
        else:
            found += [(path.name, m.group(0), m.group(0)) for m in NON_FINITE.finditer(text)]
    return found


@pytest.mark.parametrize("data", _cases())
def test_fuzzed_config_keeps_the_exit_code_contract(tmp_path, monkeypatch, data):
    monkeypatch.delenv("MATWALK_SEED", raising=False)
    config = tmp_path / "case.yaml"
    config.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    argv = ["run", str(config), "--out", str(out)]
    replay = f"replay: python -m matwalk run {config} --out {out}\n{yaml.safe_dump(data)}"
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception:  # a traceback, where the contract promises an exit code
            pytest.fail(f"raised\n{traceback.format_exc()}\n{replay}")
    assert code in (0, 2, 3), replay
    assert "Traceback" not in err.getvalue(), replay
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert runtime == [], f"RuntimeWarning {runtime}\n{replay}"
    if code == 2:
        assert not out.exists(), f"exit 2 made {out}\n{replay}"
    if code == 3:
        # validation owns these refusals: a config it passes never meets them in a walk
        for owned in OWNED_REFUSALS:
            assert owned not in err.getvalue(), f"exit 3 past validation\n{replay}"
    if code == 0:
        kind = data["kind"]
        assert _non_finite_cells(out, kind) == [], f"non-finite artifact values\n{replay}"
        # the thread contract: two threads write every CSV byte for byte
        threads = tmp_path / "threads_2"
        again = f"replay: python -m matwalk run {config} --out {threads} --threads 2"
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", str(config), "--out", str(threads), "--threads", "2"]) == 0, \
                f"{again}\n{replay}"
        for path in sorted(out.glob("*.csv")):
            assert path.read_bytes() == (threads / path.name).read_bytes(), \
                f"{path.name} differs at two threads\n{again}\n{replay}"
