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
import sys
from dataclasses import dataclass, field

import numpy as np

from .cocycles import check_determinant
from .errors import ConfigError, NotUnimodularError, SingularMatrixError
from .limits import CALIBRATION_REPLICAS
from .linalg import atom_growth
from .martingales import max_weight_power
from .measures import (
    GeneratorMeasure,
    free_semigroup_pair,
    rotating_diagonal_measure,
    scalar_exponential_pair,
    shear_pair_sl3,
)
from .stationary import MAX_ORDER, MAX_START_DIMENSION
from .walks import _TABLE_ROWS, GROWTH_ROUNDING, MAX_ATOM_GROWTH

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


def _real(above=None, most=None):
    text = ("a finite real" if above is None else f"a finite real > {above}" if most is None
            else f"a finite real in ({above}, {most:g}]")
    return _checker(text, lambda v: _is_real(v) and (above is None or v > above)
                    and (most is None or v <= most), float)


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
# A walk's letter table has up to 256 + A rows for A atoms; a row holds one m x m float
# matrix per induced action the walk follows: <= 1 GiB.
_MAX_TABLE_BYTES = 2**30
# Replicas x checkpoints of the partial sums or log norms a schedule reads: a run
# holds about three such float arrays at once, within the 1 GiB above.
_MAX_CHECKPOINT_VALUES = 2**25
# kind -> degrees r of the walks it runs: r = 1 is the measure's own action, r > 1 its
# action on the r-th exterior power, m = comb(d, r); [1] if unlisted
_WALK_DIMS = {
    "lyapunov": lambda d: [1, 2] if d >= 2 else [1],  # the product and its wedge square
    "clt_cartan": lambda d: range(1, d),
    "lil": lambda d: [1] if d >= 2 else [],  # in dimension 1 a plain sum of logs
    "martingale_lab": lambda d: [],
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
    # the half-width of the restricted covariance's least eigenvalue needs 4 samples
    "clt_cartan": {"n": (_STEPS, 1000), "samples": (_integer(4, _MAX_ROWS), 10_000)},
    "stationary": {
        "burn_in": (_STEPS, 500),
        "particles": (_ROWS, 100_000),
        "p": (_real(1, MAX_ORDER), 2.0),  # |log delta|^(p - 1) stays finite
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


@dataclass(frozen=True, eq=False)  # holds a measure and dicts: equal and hashed by identity
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
        where = f"schedule for {key}"
        rest = {k: v for k, v in schedule.items() if k != "check"}
        typed = {"check": check, **_check_mapping(rest, SCHEDULES[key], where, problems)}
    else:
        typed = _check_mapping(schedule, SCHEDULES[kind], where, problems)
    start = typed.get("start")
    if start is not None and dim is not None and len(start) != dim:
        problems.append(f"'start' in {where} must have `dimension` = {dim} entries, "
                        f"got {len(start)}")
    rows = "trials" if "trials" in typed else "replicas"
    count, ns = typed.get(rows), typed.get("n_values")
    if count is not None and ns is not None and count * len(ns) > _MAX_CHECKPOINT_VALUES:
        problems.append(f"{rows!r} and 'n_values' in {where} ask for {count} x {len(ns)} "
                        f"= {count * len(ns)} checkpoint values; at most "
                        f"{_MAX_CHECKPOINT_VALUES} are allowed")
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


def _walk_degrees(kind, dim):
    """Degrees ``r`` of the walks a ``kind`` runs in dimension ``dim`` (``_WALK_DIMS``),
    increasing; a range for ``clt_cartan``, so a huge dimension builds no list."""
    return _WALK_DIMS.get(kind, lambda d: [1])(dim)


def _table_bytes(kind, dim, atom_count):
    """Letter-table bytes of a walk, summed only until they pass the bound."""
    table = 0
    for r in _walk_degrees(kind, dim):
        table += (_TABLE_ROWS + atom_count) * math.comb(dim, r) ** 2 * 8
        if table > _MAX_TABLE_BYTES:
            break
    return table


def _check_growth(kind, measure, problems):
    """Name every atom that one letter of a walk of ``kind`` would grow past
    ``MAX_ATOM_GROWTH``, which the walk itself refuses when it starts.

    On the r-th exterior power an atom grows by ``linalg.atom_growth(atom, r)``,
    at most ``r`` times its own growth ``max(|log s_max|, |log s_min|)``.  A
    measure is built only when its letter tables fit ``_MAX_TABLE_BYTES``, so
    its degrees are few.
    """
    degrees = _walk_degrees(kind, measure.dim)
    if not degrees:
        return
    # (degree, atom); degrees start at 1, the atom's own walk
    growth = np.array([atom_growth(measure.atoms, r) for r in degrees])
    for i in np.flatnonzero(growth.max(axis=0) > MAX_ATOM_GROWTH):
        worst = degrees[growth[:, i].argmax()]
        where = "its own walk" if worst == 1 else f"its exterior power {worst}"
        problems.append(
            f"atom {i} grows by {growth[:, i].max():.1f} per letter on {where}, above "
            f"{MAX_ATOM_GROWTH:g}: a scaled walk state would overflow (its own growth "
            f"max(|log s_max|, |log s_min|) is {growth[0, i]:.1f}; "
                f"for kind {kind!r} in dimension {measure.dim} a growth up to "
                f"{MAX_ATOM_GROWTH / degrees[-1]:g} always passes)")


def _check_ranges(kind, schedule, measure, problems):
    """Refuse schedule values past the range of the kernels that read them.

    ``eps n`` is a deviation threshold, so ``eps`` times the last of
    ``n_values`` must be a double; ``baum_katz`` weights its sums by
    ``n^(p - 2)``, so ``p`` is bounded by ``martingales.max_weight_power``;
    and every cocycle value, so every rate, obeys ``|lambda| <= growth``, the
    largest atom growth (``linalg.atom_growth``), so a plug-in ``lambda1``
    beyond it (and its rounding, ``walks.GROWTH_ROUNDING``) is no rate.
    """
    where = (f"schedule for kind {kind!r}" if "check" not in schedule
             else f"schedule for {kind}/{schedule['check']}")
    eps, ns, p = schedule.get("eps"), schedule.get("n_values"), schedule.get("p")
    if eps is not None and ns is not None and eps * ns[-1] > sys.float_info.max:
        problems.append(f"'eps' in {where} times the last of 'n_values' must be at most "
                        f"{sys.float_info.max:g}, the largest double; got {eps!r} x {ns[-1]}")
    if schedule.get("check") == "baum_katz" and p is not None and ns is not None:
        most = max_weight_power(ns[-1])
        if p > most:
            problems.append(f"'p' in {where} must be at most 1 + log(DBL_MAX) / log({ns[-1]}) "
                            f"= {most:g} for 'n_values' up to {ns[-1]}, or the weights "
                            f"n^(p - 2) overflow; got {p!r}")
    lam = schedule.get("lambda1")
    if lam is None or measure is None:
        return
    growth = float(atom_growth(measure.atoms).max())
    if abs(lam) > growth * (1.0 + GROWTH_ROUNDING):
        problems.append(f"'lambda1' in {where} must be at most {growth:g} in absolute value, "
                        f"the largest atom growth max(|log s_max|, |log s_min|), which bounds "
                        f"every rate of the measure; got {lam!r}")


def _check_unimodular(kind, measure, problems):
    """Name every atom of a ``clt_cartan`` measure whose determinant is not 1
    within ``cocycles.DET_TOL``, which its walk refuses when it starts."""
    if kind != "clt_cartan":
        return
    for i, atom in enumerate(measure.atoms):
        try:
            check_determinant(atom)
        except NotUnimodularError as exc:
            problems.append(f"atom {i}: {exc}; kind 'clt_cartan' needs unimodular atoms")


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
        if measure is not None and kind is not None:
            _check_growth(kind, measure, problems)
            _check_unimodular(kind, measure, problems)
    schedule = {}
    if kind is not None and top["schedule"] is not None:
        schedule = _check_schedule(kind, top["schedule"], dim, problems)
        _check_ranges(kind, schedule, measure, problems)
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
                    {"eps": 0.05, "n_values": [2**k for k in range(4, 11)],
                     "replicas": 4000}, strong),
            _config("lil_scalar", "lil", scalar,
                    {"n_max": 200_000, "phi": 1.0, "lambda1": 0.0}, {}),
        ]
    }
