"""Scenario configuration: schema, validation, and the built-in catalogue.

A scenario is a YAML mapping with the keys below; unknown keys anywhere are
rejected and every offence is reported at once.

    name: free_semigroup_sl2_clt      # required
    kind: clt                         # one of KINDS
    dimension: 2                      # required
    master_seed: 20260810             # optional (CLI --seed, then MATWALK_SEED)
    output_dir: out/clt               # optional (CLI --out overrides)
    measure:                          # required
      atoms:                          # row-major flat entries, one per atom
        - [1, 1, 0, 1]
        - [1, 0, 1, 1]
      weights: [0.5, 0.5]             # optional, default equal
    schedule:                         # per-kind parameters, see SCHEDULES
      n: 400
      samples: 2000
    assertions:                       # user-asserted standing hypotheses
      strong_irreducible: true
      proximal: true
      unimodular: true

``SCHEDULES`` is the one schedule schema: for each kind, and for each
``check`` of ``martingale_lab``, every key with its checker and its default
(or ``REQUIRED``).  ``validate_config`` checks every value and fills in every
default, so the runner reads a schedule of typed values only.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularMatrixError
from .limits import CALIBRATION_REPLICAS
from .measures import (
    GeneratorMeasure,
    free_semigroup_pair,
    rotating_diagonal_measure,
    scalar_exponential_pair,
    shear_pair_sl3,
)
from .stationary import MAX_START_DIMENSION
from .walks import _TABLE_ROWS, BLOCK

REQUIRED = "required"  # in place of a default: the key must be given


def _checker(text, ok, cast=lambda v: v):
    """Checker returning ``cast(v)`` when ``ok(v)``; else ValueError quoting ``text``."""
    def check(v):
        try:
            if ok(v):
                return cast(v)
        except (TypeError, ValueError, OverflowError):
            pass
        raise ValueError(f"must be {text}, got {v!r}")
    check.text = text
    return check


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v):
    try:
        return (_is_int(v) or isinstance(v, (float, np.floating))) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _integer(lo, hi=None):
    text = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    return _checker(text, lambda v: _is_int(v) and lo <= v and (hi is None or v <= hi), int)


def _real(above=None):
    text = "a finite real" if above is None else f"a finite real > {above}"
    return _checker(text, lambda v: _is_real(v) and (above is None or v > above), float)


def _one_of(*choices):
    return _checker("one of " + ", ".join(choices), lambda v: v in choices)


def _increasing(hi):
    return _checker(
        f"a strictly increasing list of integers in [1, {hi}]",
        lambda v: isinstance(v, list) and v and all(map(_is_int, v)) and v[0] >= 1
        and v[-1] <= hi and all(a < b for a, b in zip(v, v[1:])),
        lambda v: tuple(int(x) for x in v),
    )


_vector = _checker("a list of `dimension` finite reals, not all zero",
                   lambda v: isinstance(v, list) and all(map(_is_real, v)) and any(v),
                   lambda v: tuple(float(x) for x in v))
_string = _checker("a nonempty string", lambda v: isinstance(v, str) and v != "")
_boolean = _checker("a boolean", lambda v: isinstance(v, bool))
_mapping = _checker("a mapping", lambda v: isinstance(v, dict))
_SEED = _integer(0, 2**64 - 1)  # the streams key on 64 bits of the seed
# Upper bounds make a mistyped count a ConfigError, not a MemoryError: each
# replica, sample, particle or test point holds a few floats, and each step of
# a walk a few bytes of bookkeeping.
_MAX_ROWS = 10**6
_MAX_STEPS = 10**7
_ROWS = _integer(1, _MAX_ROWS)
_STEPS = _integer(1, _MAX_STEPS)
_STEP_LIST = _increasing(_MAX_STEPS)
# A walk block holds min(replicas, walks.BLOCK) words of n one-byte letters,
# plus table codes of at most 4 bytes a letter: 2e8 letters is about 1 GB.
_MAX_BLOCK_LETTERS = 2 * 10**8
# A walk's letter table has up to 256 + A rows for A atoms; a row holds one m x m float
# matrix per induced action the walk follows (m in _ACTIONS, d if unlisted): <= 1 GiB.
_MAX_TABLE_BYTES = 2**30
_ACTIONS = {
    "lyapunov": lambda d: [d, math.comb(d, 2)],  # the wedge-square walk
    "clt_cartan": lambda d: (math.comb(d, r) for r in range(1, d)),
    "martingale_lab": lambda d: [],
}
# kind -> (replica key, step key) of every walk it runs; the replicas of the
# exponent calibration, which runs unless the schedule gives lambda1, are a count
_WALKS = {
    "lyapunov": [("replicas", "n")],
    "clt": [("samples", "n"), (CALIBRATION_REPLICAS, "n")],
    "clt_cartan": [("samples", "n")],
    "stationary": [("particles", "burn_in")],
    "cohomological": [("particles", "burn_in"), ("calibration_replicas", "calibration_n")],
    "large_deviation": [("replicas", "n_values"), (CALIBRATION_REPLICAS, "n_values")],
}

# kind, or martingale_lab/<check>  ->  schedule key  ->  (checker, default)
SCHEDULES = {
    "lyapunov": {"n": (_STEPS, 1000), "replicas": (_ROWS, 200)},
    "clt": {
        "n": (_STEPS, 1000),
        "samples": (_integer(2, _MAX_ROWS), 10_000),
        "start": (_vector, None),
        "reference": (_one_of("folded_normal", "gaussian"), None),
        "reference_var": (_real(0), 1.0),
        "lambda1": (_real(), None),
    },
    "clt_cartan": {"n": (_STEPS, 1000), "samples": (_integer(2, _MAX_ROWS), 10_000)},
    "stationary": {
        "burn_in": (_STEPS, 500),
        "particles": (_ROWS, 100_000),
        "p": (_real(1), 2.0),
        "test_points": (_ROWS, 20),
    },
    "cohomological": {
        "burn_in": (_STEPS, 500),
        "particles": (_ROWS, 100_000),
        "test_points": (_ROWS, 100),
        "calibration_n": (_STEPS, 1000),
        "calibration_replicas": (_ROWS, CALIBRATION_REPLICAS),
    },
    "large_deviation": {
        "eps": (_real(0), REQUIRED),
        "n_values": (_STEP_LIST, REQUIRED),
        "replicas": (_ROWS, 10_000),
    },
    "lil": {
        "n_max": (_integer(1000, _MAX_STEPS), REQUIRED),
        "phi": (_real(0), REQUIRED),
        "lambda1": (_real(), REQUIRED),
    },
    "martingale_lab/azuma": {
        "stream": (_one_of("coin"), "coin"),  # the bound needs bounded differences
        "eps": (_real(0), REQUIRED),
        "n_values": (_STEP_LIST, REQUIRED),
        "trials": (_ROWS, 100_000),
    },
    "martingale_lab/baum_katz": {
        "stream": (_one_of("coin", "gaussian", "counterexample_3i"), "coin"),
        "p": (_real(1), 2.0),
        "eps": (_real(0), REQUIRED),
        "n_values": (_STEP_LIST, REQUIRED),
        "replicas": (_ROWS, 10_000),
    },
    "martingale_lab/brown": {
        "array_kind": (_one_of("iid_gaussian", "zero", "single_spike"), REQUIRED),
        "row_sizes": (_STEP_LIST, REQUIRED),
        "eps": (_real(0), 0.25),
        "replicas": (_ROWS, 10_000),
    },
}
KINDS = tuple(dict.fromkeys(key.split("/")[0] for key in SCHEDULES))
_CHECK = _one_of(*(key.split("/")[1] for key in SCHEDULES if "/" in key))

_TOP = {
    "name": (_string, REQUIRED),
    "kind": (_one_of(*KINDS), REQUIRED),
    "dimension": (_integer(1), REQUIRED),
    "master_seed": (_SEED, None),
    "output_dir": (_string, None),
    "measure": (_mapping, REQUIRED),
    "schedule": (_mapping, {}),
    "assertions": (_mapping, {}),
}
# kinds whose library routines bound the dimension
_DIMENSIONS = {
    "clt_cartan": _integer(2),
    "stationary": _integer(1, MAX_START_DIMENSION),
    "cohomological": _integer(1, MAX_START_DIMENSION),
}
_MEASURE_KEYS = {"atoms", "weights"}
_ASSERTIONS = {key: (_boolean, None) for key in ("strong_irreducible", "proximal", "unimodular")}

_WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    kind: str
    dimension: int
    measure: GeneratorMeasure
    schedule: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)
    master_seed: int | None = None
    output_dir: str | None = None

    def to_measure(self):
        return self.measure


def _check_unknown(mapping, allowed, where, problems):
    for key in mapping:
        if key not in allowed:
            problems.append(f"unknown key {key!r} in {where}")


def _check_value(value, check, label, problems):
    """``check(value)``; on failure None, with the reason appended to ``problems``."""
    try:
        return check(value)
    except ValueError as exc:
        problems.append(f"{label} {exc}")
        return None


def _check_mapping(mapping, rules, where, problems):
    """Typed values for every key of ``rules``, defaults filled in.

    A null value stands for an absent key whose default is None.  A value
    that fails its check maps to None; the failure, like every unknown or
    missing key, is appended to ``problems``.
    """
    _check_unknown(mapping, rules, where, problems)
    typed = {}
    for key, (check, default) in rules.items():
        if key in mapping and not (mapping[key] is None and default is None):
            typed[key] = _check_value(mapping[key], check, f"{key!r} in {where}", problems)
        elif default is REQUIRED:
            problems.append(f"missing required key {key!r} in {where}")
            typed[key] = None
        else:
            typed[key] = default
    return typed


def check_seed(value, source):
    """``value`` if it is a master seed, an integer in [0, 2**64); else ConfigError."""
    problems = []
    seed = _check_value(value, _SEED, f"seed from {source}", problems)
    if problems:
        raise ConfigError(problems)
    return seed


def _check_schedule(kind, schedule, dim, problems):
    where = f"schedule for kind {kind!r}"
    if kind == "martingale_lab":
        check = schedule.get("check")
        key = f"{kind}/{check}"
        if key not in SCHEDULES:
            problems.append(f"'check' in {where} must be {_CHECK.text}, got {check!r}")
            return {}
        rest = {k: v for k, v in schedule.items() if k != "check"}
        return {"check": check, **_check_mapping(rest, SCHEDULES[key], f"schedule for {key}",
                                                 problems)}
    typed = _check_mapping(schedule, SCHEDULES[kind], where, problems)
    start = typed.get("start")
    if start is not None and dim is not None and len(start) != dim:
        problems.append(f"'start' in {where} must have `dimension` = {dim} entries, "
                        f"got {len(start)}")
    for rows, steps in _WALKS.get(kind, ()):
        if isinstance(rows, str):
            count, walk = typed[rows], f"{rows!r} and {steps!r}"
        else:  # the exponent calibration
            count = rows if typed.get("lambda1") is None else None
            walk = f"{steps!r} and the {rows} replicas of the exponent calibration"
        if count is None or typed[steps] is None:
            continue
        n = typed[steps][-1] if steps == "n_values" else typed[steps]
        letters = min(count, BLOCK) * n
        if letters > _MAX_BLOCK_LETTERS:
            problems.append(f"{walk} in {where} ask for {letters} letters "
                            f"per walk block, min({rows}, {BLOCK}) x {n}; "
                            f"at most {_MAX_BLOCK_LETTERS} are allowed")
    return typed


def _check_measure(measure, dim, problems):
    """The GeneratorMeasure of a measure mapping, weights normalised; None on failure.

    Only the mapping's shape is checked here: building the measure checks the atoms.
    """
    _check_unknown(measure, _MEASURE_KEYS, "measure", problems)
    atoms = weights = None
    raw_atoms = measure.get("atoms")
    if not isinstance(raw_atoms, list) or not raw_atoms:
        problems.append("'measure.atoms' must be a nonempty list")
    elif dim is not None:
        bad = [i for i, a in enumerate(raw_atoms)
               if not isinstance(a, list) or len(a) != dim * dim or not all(map(_is_real, a))]
        for i in bad:
            problems.append(f"atom {i} must be a flat row-major list of {dim * dim} finite reals")
        if not bad:
            atoms = np.array([[float(v) for v in a] for a in raw_atoms]).reshape(-1, dim, dim)
    raw_weights = measure.get("weights")
    if raw_weights is None:
        pass  # equal weights, below
    elif not isinstance(raw_weights, list) or not all(
        _is_real(w) and w > 0 for w in raw_weights
    ):
        problems.append("'measure.weights' must be a list of positive numbers")
    elif atoms is not None and len(raw_weights) != len(atoms):
        problems.append("'measure.weights' length must match the atom count")
    else:
        total = float(sum(raw_weights))
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            problems.append(f"weights sum to {total!r}, expected 1")
        else:
            weights = np.array([float(w) / total for w in raw_weights])
    if atoms is None:
        return None
    try:
        # equal weights also stand in for bad ones, so that every atom is still checked
        built = GeneratorMeasure(atoms, np.full(len(atoms), 1.0 / len(atoms))
                                 if weights is None else weights)
    except (SingularMatrixError, ValueError) as exc:
        problems.append(str(exc))
        return None
    return built if weights is not None or raw_weights is None else None


def _table_bytes(kind, dim, atom_count):
    """Letter-table bytes of a walk, summed only until they pass the bound."""
    table = 0
    for m in _ACTIONS.get(kind, lambda d: [d])(dim):
        table += (_TABLE_ROWS + atom_count) * m * m * 8
        if table > _MAX_TABLE_BYTES:
            break
    return table


def validate_config(data):
    """Validate a parsed mapping and produce a ScenarioConfig.

    Raises ``ConfigError`` listing every offending key or value.
    """
    if not isinstance(data, dict):
        raise ConfigError(["scenario file must hold a mapping"])
    problems = []
    top = _check_mapping(data, _TOP, "scenario", problems)
    kind, dim = top["kind"], top["dimension"]
    if kind in _DIMENSIONS and dim is not None:
        dim = _check_value(dim, _DIMENSIONS[kind],
                           f"'dimension' of a {kind!r} scenario", problems)
    measure = None
    if top["measure"] is not None:
        raw_atoms, atom_dim = top["measure"].get("atoms"), dim
        if dim is not None and isinstance(raw_atoms, list) and raw_atoms:
            # the bound needs only the atom count: an oversized config skips the atom checks
            table = _table_bytes(kind, dim, len(raw_atoms))
            if table > _MAX_TABLE_BYTES:
                problems.append(f"'dimension' {dim} with {len(raw_atoms)} atoms needs at least "
                                f"{table} bytes of walk letter tables; at most "
                                f"{_MAX_TABLE_BYTES} are allowed")
                atom_dim = None
        measure = _check_measure(top["measure"], atom_dim, problems)
    schedule = {}
    if kind is not None and top["schedule"] is not None:
        schedule = _check_schedule(kind, top["schedule"], dim, problems)
    assertions = {}
    if top["assertions"] is not None:
        typed = _check_mapping(top["assertions"], _ASSERTIONS, "assertions", problems)
        assertions = {key: v for key, v in typed.items() if v is not None}

    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(
        name=top["name"],
        kind=kind,
        dimension=dim,
        measure=measure,
        schedule=schedule,
        assertions=assertions,
        master_seed=top["master_seed"],
        output_dir=top["output_dir"],
    )


def load_config(path):
    """Parse and validate a scenario file."""
    import yaml  # only scenario files need it; the built-ins are Python

    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except (yaml.YAMLError, ValueError) as exc:  # or not UTF-8, or a bad date
            raise ConfigError([f"not valid YAML: {exc}"]) from exc
    return validate_config(data)


def _config(name, kind, measure, schedule, assertions, seed=20260810):
    return validate_config({
        "name": name,
        "kind": kind,
        "dimension": measure.dim,
        "master_seed": seed,
        "measure": {"atoms": [a.ravel().tolist() for a in measure.atoms],
                    "weights": measure.weights.tolist()},
        "schedule": schedule,
        "assertions": assertions,
    })


def bundled_scenarios():
    """Built-in scenarios, one per family of claims the package exercises."""
    pair = free_semigroup_pair()
    rot = rotating_diagonal_measure()
    sl3 = shear_pair_sl3()
    scalar = scalar_exponential_pair()
    strong = {"strong_irreducible": True, "proximal": True, "unimodular": True}
    return {
        cfg.name: cfg
        for cfg in [
            _config("lyapunov_free_semigroup", "lyapunov", pair,
                    {"n": 500, "replicas": 200}, strong),
            _config("free_semigroup_sl2_clt", "clt", pair,
                    {"n": 400, "samples": 2000}, strong),
            _config("example_nongaussian", "clt", rot,
                    {"n": 400, "samples": 2000, "reference": "folded_normal",
                     "reference_var": 1.0, "lambda1": 0.0},
                    {"strong_irreducible": False, "proximal": False,
                     "unimodular": True}),
            _config("cartan_sl3_clt", "clt_cartan", sl3,
                    {"n": 300, "samples": 1500}, strong),
            _config("cohomological_residual_sl2", "cohomological", pair,
                    {"burn_in": 300, "particles": 20_000, "test_points": 50,
                     "calibration_n": 800, "calibration_replicas": 400}, strong),
            _config("log_regularity_sl2", "stationary", pair,
                    {"burn_in": 300, "particles": 20_000, "p": 2.0,
                     "test_points": 20}, strong),
            _config("azuma_coinflip", "martingale_lab", scalar,
                    {"check": "azuma", "stream": "coin", "eps": 0.3,
                     "n_values": [2**k for k in range(4, 13)],
                     "trials": 20_000}, {}),
            _config("baum_katz_counterexample", "martingale_lab", scalar,
                    {"check": "baum_katz", "stream": "counterexample_3i",
                     "p": 2.0, "eps": 0.5,
                     "n_values": [2**k for k in range(4, 13)],
                     "replicas": 4000}, {}),
            _config("brown_triangular_gaussian", "martingale_lab", scalar,
                    {"check": "brown", "array_kind": "iid_gaussian",
                     "row_sizes": [100, 300, 1000], "eps": 0.25,
                     "replicas": 4000}, {}),
            _config("large_deviation_sl2", "large_deviation", pair,
                    {"eps": 0.2, "n_values": [2**k for k in range(4, 11)],
                     "replicas": 4000}, strong),
            _config("lil_scalar", "lil", scalar,
                    {"n_max": 200_000, "phi": 1.0, "lambda1": 0.0}, {}),
        ]
    }
