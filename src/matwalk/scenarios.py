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
    schedule:                         # per-kind parameters, see _SCHEDULE_KEYS
      n: 400
      samples: 2000
    assertions:                       # user-asserted standing hypotheses
      strong_irreducible: true
      proximal: true
      unimodular: true
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .measures import (
    GeneratorMeasure,
    free_semigroup_pair,
    rotating_diagonal_measure,
    scalar_exponential_pair,
    shear_pair_sl3,
)

KINDS = (
    "lyapunov",
    "clt",
    "clt_cartan",
    "stationary",
    "cohomological",
    "large_deviation",
    "lil",
    "martingale_lab",
)

_TOP_KEYS = {"name", "kind", "dimension", "master_seed", "output_dir",
             "measure", "schedule", "assertions"}
_MEASURE_KEYS = {"atoms", "weights"}
_ASSERTION_KEYS = {"strong_irreducible", "proximal", "unimodular"}

_SCHEDULE_KEYS = {
    "lyapunov": {"n", "replicas"},
    "clt": {"n", "samples", "start", "reference", "reference_var", "lambda1"},
    "clt_cartan": {"n", "samples"},
    "stationary": {"burn_in", "particles", "p", "test_points"},
    "cohomological": {"burn_in", "particles", "test_points", "calibration_n",
                      "calibration_replicas"},
    "large_deviation": {"eps", "n_values", "replicas"},
    "lil": {"n_max", "phi", "lambda1"},
    "martingale_lab": {"check", "stream", "eps", "p", "n_values", "trials",
                       "replicas", "row_sizes", "array_kind"},
}

_WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    kind: str
    dimension: int
    atoms: tuple          # tuple of flat row-major tuples
    weights: tuple
    schedule: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)
    master_seed: int | None = None
    output_dir: str | None = None

    def to_measure(self):
        d = self.dimension
        mats = np.array([np.array(a, dtype=float).reshape(d, d) for a in self.atoms])
        return GeneratorMeasure(mats, np.array(self.weights))


def _check_unknown(mapping, allowed, where, problems):
    for key in mapping:
        if key not in allowed:
            problems.append(f"unknown key {key!r} in {where}")


def validate_config(data):
    """Validate a parsed mapping and produce a ScenarioConfig.

    Raises ``ConfigError`` listing every offending key or value.
    """
    problems = []
    if not isinstance(data, dict):
        raise ConfigError(["scenario file must hold a mapping"])
    _check_unknown(data, _TOP_KEYS, "scenario", problems)

    name = data.get("name")
    if not isinstance(name, str) or not name:
        problems.append("missing or empty 'name'")
    kind = data.get("kind")
    if kind not in KINDS:
        problems.append(f"'kind' must be one of {KINDS}, got {kind!r}")
    dim = data.get("dimension")
    if not isinstance(dim, int) or dim < 1:
        problems.append("'dimension' must be a positive integer")

    atoms, weights = (), ()
    measure = data.get("measure")
    if not isinstance(measure, dict):
        problems.append("missing 'measure' mapping")
    else:
        _check_unknown(measure, _MEASURE_KEYS, "measure", problems)
        raw_atoms = measure.get("atoms")
        if not isinstance(raw_atoms, list) or not raw_atoms:
            problems.append("'measure.atoms' must be a nonempty list")
        elif isinstance(dim, int) and dim >= 1:
            atoms_ok = True
            for i, a in enumerate(raw_atoms):
                if not isinstance(a, list) or len(a) != dim * dim or not all(
                    isinstance(v, (int, float)) for v in a
                ):
                    problems.append(
                        f"atom {i} must be a flat row-major list of {dim * dim} numbers"
                    )
                    atoms_ok = False
            if atoms_ok:
                atoms = tuple(tuple(float(v) for v in a) for a in raw_atoms)
        raw_weights = measure.get("weights") if isinstance(measure, dict) else None
        if raw_weights is None:
            if atoms:
                weights = tuple(1.0 / len(atoms) for _ in atoms)
        elif not isinstance(raw_weights, list) or not all(
            isinstance(w, (int, float)) and w > 0 for w in raw_weights
        ):
            problems.append("'measure.weights' must be a list of positive numbers")
        elif atoms and len(raw_weights) != len(atoms):
            problems.append("'measure.weights' length must match the atom count")
        else:
            total = float(sum(raw_weights))
            if abs(total - 1.0) > _WEIGHT_SUM_TOL:
                problems.append(f"weights sum to {total!r}, expected 1")
            else:
                weights = tuple(float(w) / total for w in raw_weights)

    schedule = data.get("schedule", {})
    if not isinstance(schedule, dict):
        problems.append("'schedule' must be a mapping")
        schedule = {}
    elif kind in _SCHEDULE_KEYS:
        _check_unknown(schedule, _SCHEDULE_KEYS[kind], f"schedule for kind {kind!r}", problems)

    assertions = data.get("assertions", {})
    if not isinstance(assertions, dict):
        problems.append("'assertions' must be a mapping")
        assertions = {}
    else:
        _check_unknown(assertions, _ASSERTION_KEYS, "assertions", problems)
        for key, val in assertions.items():
            if not isinstance(val, bool):
                problems.append(f"assertion {key!r} must be a boolean")

    master_seed = data.get("master_seed")
    if master_seed is not None and (not isinstance(master_seed, int) or master_seed < 0):
        problems.append("'master_seed' must be a nonnegative integer")
    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        problems.append("'output_dir' must be a string")

    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(
        name=name,
        kind=kind,
        dimension=dim,
        atoms=atoms,
        weights=weights,
        schedule=dict(schedule),
        assertions=dict(assertions),
        master_seed=master_seed,
        output_dir=output_dir,
    )


def load_config(path):
    """Parse and validate a scenario file."""
    import yaml  # only scenario files need it; the built-ins are Python

    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError([f"not valid YAML: {exc}"]) from exc
    return validate_config(data)


def _flat(mat):
    return [float(v) for row in np.asarray(mat, dtype=float) for v in row]


def _config(name, kind, measure, schedule, assertions, seed=20260810):
    return validate_config({
        "name": name,
        "kind": kind,
        "dimension": measure.dim,
        "master_seed": seed,
        "measure": {"atoms": [_flat(a) for a in measure.atoms],
                    "weights": [float(w) for w in measure.weights]},
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
