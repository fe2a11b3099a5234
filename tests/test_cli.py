import ast
import filecmp
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import matwalk as mw
from matwalk import measures, runner, scenarios, walks
from matwalk.cli import main

REQUIRED_BUILTINS = {
    "free_semigroup_sl2_clt",
    "example_nongaussian",
    "cartan_sl3_clt",
    "cohomological_residual_sl2",
    "log_regularity_sl2",
    "azuma_coinflip",
    "baum_katz_counterexample",
    "large_deviation_sl2",
    "lil_scalar",
}

# column schemas are a public contract
GOLDEN_HEADERS = {
    "lyapunov": "quantity,value,ci_halfwidth,n,replicas,seed",
    "lyapunov_d1": "quantity,value,ci_halfwidth,n,replicas,seed",
    "clt": "sample_index,normalized_value",
    "clt_gaussian_reference": "sample_index,normalized_value",
    "clt_cartan_d3": "sample_index,coord_1,coord_2,coord_3",
    "stationary_d2": "point_index,p,integral_value,y_1,y_2",
    "cohomological_d2": "point_index,residual,x_1,x_2",
    "large_deviation": "n,frequency",
    "lil": "n,normalized_value",
    "martingale_azuma": "n,frequency,bound,partial_sum",
    "martingale_baum_katz": "n,frequency,bound,partial_sum",
    "martingale_brown": "n,w_n,lindeberg_term",
    "cloud_d2": "coord_1,coord_2,weight",
}

# summary.txt keys (the text before the first ':' of each line) are a contract too;
# every summary opens with the common header, then the keys of its kind
COMMON_SUMMARY_KEYS = ["scenario", "kind", "master_seed", "dimension", "claim"]
GOLDEN_SUMMARY_KEYS = {
    "lyapunov": ["lambda1", "lambda2", "pair_sum", "simplicity_gap"],
    "lyapunov_d1": ["lambda1"],  # no second exponent in dimension one
    "clt_gaussian_reference": ["statistic", "exponent_used", "fitted_mean", "fitted_variance",
                               "ks_vs_fitted_gaussian", "ks_vs_reference[gaussian(var=2)]",
                               "degenerate_limit"],
    "clt_cartan_d3": ["rate_vector", "rate_ci_halfwidths", "max_coordinate_sum",
                      "ks_vs_fitted_gaussian_max_coord", "restricted_min_eigenvalue"],
    "stationary_d2": ["particles", "finite_integrals", "integral_min", "integral_max",
                      "note"],
    "cohomological_d2": ["exponent_used", "dual_particles", "mean_abs_residual",
                         "max_abs_residual"],
    "large_deviation": ["eps", "exponent_used", "decay_rate"],
    "lil": ["window", "max_normalized", "min_normalized", "within_band", "reaches_band"],
    "martingale_azuma": ["eps", "bound_respected", "min_margin_with_3_halfwidths"],
    "martingale_baum_katz": ["p", "verdict"],
    "martingale_brown": ["phi", "ks_vs_limit", "lindeberg_violated"],
}


def summary_keys(out):
    return [line.split(":")[0] for line in (out / "summary.txt").read_text().splitlines()]


def write_config(tmp_path, data, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def minimal_lyapunov(tmp_path, **overrides):
    data = {
        "name": "diag_growth",
        "kind": "lyapunov",
        "dimension": 2,
        "master_seed": 7,
        "measure": {"atoms": [[2.0, 0.0, 0.0, 0.5]]},
        "schedule": {"n": 200, "replicas": 4},
    }
    data.update(overrides)
    return write_config(tmp_path, data)


def test_bundle_is_complete_and_valid(monkeypatch):
    bundle = mw.bundled_scenarios()
    assert len(bundle) >= 9
    assert REQUIRED_BUILTINS <= set(bundle)
    non_gaussian = bundle["example_nongaussian"]
    assert non_gaussian.schedule["reference"] == "folded_normal"
    # a config carries its checked measure: to_measure checks no atom again
    checked = []
    monkeypatch.setattr(measures, "check_group_element", lambda g: checked.append(1))
    for cfg in bundle.values():
        assert cfg.to_measure() is cfg.measure
        assert cfg.to_measure().dim == cfg.dimension
    assert checked == []


@pytest.mark.parametrize("seed", [11, 20260810])
def test_bundled_deviation_curve_has_a_decay_rate(tmp_path, seed):
    # the bundled eps leaves at least three nonzero frequencies, so the least-squares
    # fit of the decay rate runs, at the manifest's seed and at the master seed
    cfg = mw.bundled_scenarios()["large_deviation_sl2"]
    out = mw.run_scenario(cfg, out_dir=tmp_path / "out", seed=seed)
    lines = (out / "summary.txt").read_text().splitlines()
    rate = next(line.split(": ", 1)[1] for line in lines if line.startswith("decay_rate: "))
    assert float(rate) > 0.0


def test_list_prints_bundle(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in REQUIRED_BUILTINS:
        assert name in out


def test_minimal_lyapunov_scenario(tmp_path, capsys):
    cfg = minimal_lyapunov(tmp_path)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert lines[0] == GOLDEN_HEADERS["lyapunov"]
    assert summary_keys(tmp_path / "out") == (COMMON_SUMMARY_KEYS
                                              + GOLDEN_SUMMARY_KEYS["lyapunov"])
    first = lines[1].split(",")
    assert first[0] == "lambda1"
    assert float(first[1]) == pytest.approx(np.log(2.0), abs=1e-9)


def test_same_config_same_bytes(tmp_path):
    cfg = minimal_lyapunov(tmp_path)
    main(["run", cfg, "--out", str(tmp_path / "a")])
    main(["run", cfg, "--out", str(tmp_path / "b"), "--threads", "3"])
    assert filecmp.cmp(tmp_path / "a" / "report.csv", tmp_path / "b" / "report.csv",
                       shallow=False)


def test_a_walk_past_one_block_keeps_its_bytes_at_two_threads(tmp_path):
    # 3334 samples of 30000 letters ran in blocks of 3333 and 1 at two threads,
    # and report.csv read 3333,0.016685433031266309 against ...255806 at one
    data = small_config("clt", {"n": 30_000, "samples": 3334, "lambda1": 0.3962},
                        master_seed=80)
    config = mw.validate_config(data)
    for threads in (1, 2):
        mw.run_scenario(config, out_dir=tmp_path / str(threads), threads=threads)
    walks.set_thread_count(1)
    lines = (tmp_path / "1" / "report.csv").read_text().splitlines()
    assert lines[3334] == "3333,0.016685433031255806"
    for name in ("report.csv", "summary.txt"):
        assert filecmp.cmp(tmp_path / "1" / name, tmp_path / "2" / name, shallow=False)


def test_unknown_keys_rejected_listing_all(tmp_path, capsys):
    cfg = minimal_lyapunov(tmp_path, lamda1=3, extra_knob=True)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "lamda1" in err
    assert "extra_knob" in err


def test_unknown_schedule_key_rejected(tmp_path, capsys):
    cfg = minimal_lyapunov(tmp_path, schedule={"n": 100, "replicas": 4, "samples": 7})
    assert main(["run", cfg]) == 2
    assert "samples" in capsys.readouterr().err


def test_weight_and_atom_shape_errors(tmp_path, capsys):
    bad = minimal_lyapunov(tmp_path, measure={
        "atoms": [[2.0, 0.0, 0.0, 0.5], [1.0, 0.0, 1.0]],  # second atom not d*d
        "weights": [0.6, 0.6],                              # sums to 1.2
    })
    assert main(["run", bad]) == 2
    err = capsys.readouterr().err
    assert "atom 1" in err
    assert "weights sum" in err


def test_every_singular_atom_is_named(tmp_path, capsys):
    bad = minimal_lyapunov(tmp_path, measure={
        "atoms": [[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.5], [1.0, 2.0, 2.0, 4.0]],
    })
    out = tmp_path / "out"
    assert main(["run", bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "atom 0: matrix is numerically singular" in err
    assert "atom 2: matrix is numerically singular" in err
    assert "atom 1" not in err and not out.exists()


def test_scenario_file_checks_each_atom_once(tmp_path, monkeypatch):
    checked = []
    check = measures.check_group_element
    monkeypatch.setattr(measures, "check_group_element", lambda g: checked.append(1) or check(g))
    cfg = mw.load_config(minimal_lyapunov(tmp_path, measure={
        "atoms": [[2.0, 0.0, 0.0, 0.5], [1.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1.0]],
    }))
    assert len(checked) == 3
    assert cfg.to_measure().weights.tolist() == [1.0 / 3.0] * 3
    assert len(checked) == 3


def test_atom_growth_past_the_bound_exits_2_without_warnings(tmp_path, capsys):
    # refused at load, before any walk starts
    cfg = write_config(tmp_path, {
        "name": "overflowing_atom",
        "kind": "clt",
        "dimension": 2,
        "master_seed": 5,
        "measure": {"atoms": [[1e160, 0.0, 0.0, 1e160], [1.0, 1.0, 0.0, 1.0]]},
        "schedule": {"n": 50, "samples": 16},
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert "atom 0 grows by 368.4 per letter on its own walk, above 350" in err
    assert not (tmp_path / "out").exists()


_BIG = [1.0e150, 0.0, 0.0, 1.0e150]
_SHEAR = [1.0, 1.0, 0.0, 1.0]
_SMALL = [1.0e-150, 0.0, 0.0, 1.0e-150]


@pytest.mark.parametrize("atoms, offending", [([_BIG, _SHEAR], [0]),
                                              ([_BIG, _SHEAR, _SMALL], [0, 2])])
def test_wedge_square_growth_is_refused_at_load(tmp_path, capsys, atoms, offending):
    # growth 345.4 passes the measure's own walk, but the wedge-square walk of
    # 'lyapunov' multiplies by det = 1e+-300: 690.8 per letter
    cfg = write_config(tmp_path, {
        "name": "wedge_overflow", "kind": "lyapunov", "dimension": 2, "master_seed": 5,
        "measure": {"atoms": atoms}, "schedule": {"n": 50, "replicas": 4},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    for atom in range(len(atoms)):
        named = (f"atom {atom} grows by 690.8 per letter on its exterior power 2, above 350"
                 in err)
        assert named == (atom in offending)
    assert "its own growth max(|log s_max|, |log s_min|) is 345.4" in err
    assert "for kind 'lyapunov' in dimension 2 a growth up to 175 always passes" in err
    assert not (tmp_path / "out").exists()


def _scaled_atom(dim, log_scale, seed):
    """A random atom of condition number at most 10, times ``e^log_scale``."""
    u, _, vt = np.linalg.svd(np.random.default_rng(seed).normal(size=(dim, dim)))
    return np.exp(log_scale) * u @ np.diag(np.linspace(1.0, 10.0, dim)) @ vt


@pytest.mark.parametrize("log_scale, passes", [(349.0 - np.log(10.0), True),
                                               (351.0 - np.log(10.0), False)])
def test_clt_atom_growth_bound_at_load(log_scale, passes):
    atom = _scaled_atom(2, log_scale, 0)
    data = small_config("clt", measure={"atoms": [atom.ravel().tolist(),
                                                  [1.0, 1.0, 0.0, 1.0]]})
    if passes:
        assert mw.validate_config(data).kind == "clt"
        return
    with pytest.raises(mw.ConfigError) as exc:
        mw.validate_config(data)
    assert exc.value.problems == [
        "atom 0 grows by 351.0 per letter on its own walk, above 350: a scaled walk state "
        "would overflow (its own growth max(|log s_max|, |log s_min|) is 351.0; for kind "
        "'clt' in dimension 2 a growth up to 350 always passes)"]


def _atoms_below_the_bound(kind, dim, sign):
    """Four atoms scaled to just below the bound on their worst walk."""
    degrees = scenarios._walk_degrees(kind, dim)
    atoms = []
    for seed in range(4):
        logs = np.log(np.linalg.svd(_scaled_atom(dim, 0.0, seed), compute_uv=False))
        # growth on degree r: |r c + sum of r logs| at scale e^c, largest at top r
        c = min((349.9 - (logs[:r].sum() if sign > 0 else -logs[-r:].sum())) / r
                for r in degrees)
        atoms.append(_scaled_atom(dim, sign * c, seed))
    return atoms


# validation reads a wedge growth of exactly 350.0 off this atom's singular values; the
# SVD of its wedge square, which the walk steps with, reads 350.00000000000006
_AT_THE_BOUND = np.array([[1.1891200098162111e+75, -1.3387892482119902e+76],
                          [-7.452600952760659e+75, -7.858487178709718e+74]])


@pytest.mark.parametrize("sign, kind, dim, atoms", [
    *(pytest.param(sign, kind, dim, None, id=f"{sign}-{kind}-{dim}")
      for sign in (-1.0, 1.0)
      for kind, dim in [("clt", 2), ("clt", 3), ("lyapunov", 2), ("lyapunov", 3),
                        ("lyapunov", 4)]),
    pytest.param(1.0, "lyapunov", 2, [_AT_THE_BOUND], id="1.0-lyapunov-2-at_the_bound")])
def test_a_config_that_validates_passes_every_walk_check(sign, kind, dim, atoms):
    # the load check lets the atoms through, and so does each walk's own check on
    # the matrices it steps with
    atoms = _atoms_below_the_bound(kind, dim, sign) if atoms is None else atoms
    data = small_config(kind, dimension=dim,
                        measure={"atoms": [a.ravel().tolist() for a in atoms]})
    mu = mw.validate_config(data).measure
    for r in scenarios._walk_degrees(kind, dim):
        walks.rescale_interval(mw.exterior_power(mu.atoms, r))
    data["measure"]["atoms"][0] = (atoms[0] * np.exp(sign * 0.2)).ravel().tolist()
    with pytest.raises(mw.ConfigError, match=r"atom 0 grows by 350\.[1-5] per letter"):
        mw.validate_config(data)


def test_lil_in_dimension_one_has_no_growth_bound():
    # a one-dimensional trajectory adds up logs of |a|: no scaled state to overflow
    data = small_config("lil", measure={"atoms": [[1.0e160], [1.0e-160]]})
    assert mw.validate_config(data).kind == "lil"


def test_configs_compare_and_hash_by_identity():
    first, second = mw.bundled_scenarios(), mw.bundled_scenarios()
    for name, cfg in first.items():
        assert cfg == cfg and cfg != second[name]
        assert hash(cfg) == hash(cfg)
    assert len(set(first.values()) | set(second.values())) == 2 * len(first)


def test_unknown_builtin_is_config_error(capsys):
    assert main(["run-builtin", "not_a_scenario"]) == 2
    assert "not_a_scenario" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2


def test_runtime_error_exit_code(tmp_path, capsys, monkeypatch):
    # validation refuses this atom (exit 2); without that check the walk's own
    # NotUnimodularError is a library error met at run time
    monkeypatch.setattr(scenarios, "_check_unimodular", lambda kind, measure, problems: None)
    cfg = write_config(tmp_path, {
        "name": "bad_determinant",
        "kind": "clt_cartan",
        "dimension": 2,
        "master_seed": 3,
        "measure": {"atoms": [[2.0, 0.0, 0.0, 1.0]]},  # determinant 2
        "schedule": {"n": 20, "samples": 16},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "bad_determinant" in err and "seed 3" in err
    assert "determinant 2.0 is not 1 within 1e-08" in err


def test_library_value_error_is_runtime_error(tmp_path, capsys, monkeypatch):
    # a ValueError raised inside the library while a valid scenario runs
    def refuse(*args, **kwargs):
        raise ValueError("walk refused")

    monkeypatch.setattr(walks, "vector_walk", refuse)
    cfg = write_config(tmp_path, {
        "name": "refused_walk",
        "kind": "clt",
        "dimension": 2,
        "master_seed": 4,
        "measure": {"atoms": [[2.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 2.0]]},
        "schedule": {"n": 20, "samples": 16, "start": [1, 0]},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "refused_walk" in err and "seed 4" in err and "walk refused" in err


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000, 1000)"),
    MemoryError(),
])
def test_memory_error_is_runtime_error(tmp_path, capsys, monkeypatch, error):
    # a walk larger than the machine: exit 3 with the scenario and seed, no traceback
    def exhaust(*args, **kwargs):
        raise error

    monkeypatch.setattr(walks, "vector_walk", exhaust)
    cfg = write_config(tmp_path, {
        "name": "huge_walk",
        "kind": "clt",
        "dimension": 2,
        "master_seed": 5,
        "measure": {"atoms": [[2.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 2.0]]},
        "schedule": {"n": 20, "samples": 16, "start": [1, 0]},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "huge_walk" in err and "seed 5" in err
    assert (str(error) or "MemoryError") in err


def test_seed_priority_flag_config_env(tmp_path, monkeypatch):
    cfg = minimal_lyapunov(tmp_path)
    main(["run", cfg, "--out", str(tmp_path / "by_config")])
    main(["run", cfg, "--out", str(tmp_path / "by_flag"), "--seed", "99"])
    by_config = (tmp_path / "by_config" / "summary.txt").read_text()
    by_flag = (tmp_path / "by_flag" / "summary.txt").read_text()
    assert "master_seed: 7" in by_config
    assert "master_seed: 99" in by_flag

    no_seed = minimal_lyapunov(tmp_path, name="no_seed.yaml")
    data = yaml.safe_load(Path(no_seed).read_text())
    del data["master_seed"]
    env_cfg = write_config(tmp_path, data, name="env_seed.yaml")
    monkeypatch.setenv("MATWALK_SEED", "1234")
    main(["run", env_cfg, "--out", str(tmp_path / "by_env")])
    assert "master_seed: 1234" in (tmp_path / "by_env" / "summary.txt").read_text()
    # with no seed anywhere, the seed is 0
    monkeypatch.delenv("MATWALK_SEED")
    main(["run", env_cfg, "--out", str(tmp_path / "by_default")])
    assert "master_seed: 0" in (tmp_path / "by_default" / "summary.txt").read_text()


def test_a_start_far_from_unit_scale_runs_as_its_direction(tmp_path):
    # the squares of 2**1023 overflow: the start point rescales exactly first
    outs = []
    for scale in (1.0, 2.0**1023):
        data = small_config("clt", {"start": [scale, scale]})
        outs.append(tmp_path / f"out_{scale:g}")
        assert main(["run", write_config(tmp_path, data), "--out", str(outs[-1])]) == 0
    assert filecmp.cmp(outs[0] / "report.csv", outs[1] / "report.csv", shallow=False)


def test_clt_artifacts_include_svg(tmp_path):
    out = tmp_path / "clt_out"
    assert main(["run-builtin", "free_semigroup_sl2_clt", "--out", str(out),
                 "--seed", "5"]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == GOLDEN_HEADERS["clt"]
    svg = (out / "histogram.svg").read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert 'width="800" height="600"' in svg


def test_degenerate_clt_run_reads_ks_zero(tmp_path):
    # one identity atom: every sample is the same, the fit is a point mass, and
    # the histogram's data range is one point
    out = tmp_path / "out"
    config = write_config(tmp_path, small_config("clt", measure=identity_measure(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", config, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text().splitlines()
    assert "ks_vs_fitted_gaussian: 0" in summary
    assert "degenerate_limit: true" in summary
    assert (out / "histogram.svg").read_text().rstrip().endswith("</svg>")


def test_golden_headers_across_kinds(tmp_path):
    cases = {
        "lyapunov_free_semigroup": ("lyapunov_d1", {"dimension": 1,
                                                    "measure": {"atoms": [[2.0], [0.5]]},
                                                    "schedule": {"n": 30, "replicas": 8}}),
        "free_semigroup_sl2_clt": ("clt_gaussian_reference",
                                   {"schedule": {"n": 30, "samples": 64,
                                                 "reference": "gaussian",
                                                 "reference_var": 2.0}}),
        "cartan_sl3_clt": ("clt_cartan_d3", {"schedule": {"n": 30, "samples": 64}}),
        "log_regularity_sl2": ("stationary_d2",
                               {"schedule": {"burn_in": 20, "particles": 200,
                                             "p": 2.0, "test_points": 4}}),
        "cohomological_residual_sl2": ("cohomological_d2",
                                       {"schedule": {"burn_in": 20, "particles": 200,
                                                     "test_points": 4,
                                                     "calibration_n": 50,
                                                     "calibration_replicas": 8}}),
        "large_deviation_sl2": ("large_deviation",
                                {"schedule": {"eps": 0.2, "n_values": [8, 16],
                                              "replicas": 32}}),
        "lil_scalar": ("lil", {"schedule": {"n_max": 2000, "phi": 1.0,
                                            "lambda1": 0.0}}),
        "azuma_coinflip": ("martingale_azuma",
                           {"schedule": {"check": "azuma", "stream": "coin",
                                         "eps": 0.3, "n_values": [8, 16],
                                         "trials": 200}}),
        "baum_katz_counterexample": ("martingale_baum_katz",
                                     {"schedule": {"check": "baum_katz",
                                                   "stream": "counterexample_3i",
                                                   "p": 2.0, "eps": 0.5,
                                                   "n_values": [8, 16],
                                                   "replicas": 200}}),
        "brown_triangular_gaussian": ("martingale_brown",
                                      {"schedule": {"check": "brown",
                                                    "array_kind": "iid_gaussian",
                                                    "row_sizes": [20, 50],
                                                    "replicas": 100}}),
    }
    bundle = mw.bundled_scenarios()
    for name, (header_key, shrink) in cases.items():
        cfg = bundle[name]
        small = write_config(tmp_path, {
            "name": cfg.name, "kind": cfg.kind, "dimension": cfg.dimension,
            "master_seed": 1,
            "measure": {"atoms": [a.ravel().tolist() for a in cfg.to_measure().atoms],
                        "weights": cfg.to_measure().weights.tolist()},
            **shrink,
        }, name=f"{name}.yaml")
        out = tmp_path / f"out_{name}"
        assert main(["run", small, "--out", str(out)]) == 0, name
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == GOLDEN_HEADERS[header_key], name
        keys = COMMON_SUMMARY_KEYS + GOLDEN_SUMMARY_KEYS[header_key]
        assert summary_keys(out) == keys, name
    cloud_header = (tmp_path / "out_log_regularity_sl2" / "cloud.csv").read_text().splitlines()[0]
    assert cloud_header == GOLDEN_HEADERS["cloud_d2"]


NO_SCIPY = """
import sys


class NoScipy:
    # refuse every scipy import, as on an environment without scipy installed
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not installed here")
        return None


sys.meta_path.insert(0, NoScipy())
import matwalk
from matwalk.cli import main

assert main(["list"]) == 0
for name in sys.argv[2:]:
    code = main(["run-builtin", name, "--out", f"{sys.argv[1]}/{name}"])
    assert code == 0, (name, code)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml")))
"""


def test_runs_without_scipy_or_yaml_loaded(tmp_path):
    # the Gaussian closed forms come from the stdlib, and PyYAML is read only
    # for scenario files, so the bundle runs on numpy alone
    names = ["brown_triangular_gaussian", "free_semigroup_sl2_clt", "example_nongaussian"]
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path), *names],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    for name in names:
        assert (tmp_path / name / "report.csv").is_file()


TOP_LEVEL_LIST = b"- name: a list\n"   # valid YAML, but not a mapping


@pytest.mark.parametrize("text", [
    b"name: [unclosed\n",
    b"name: \xff\xfe\n",            # not UTF-8
    b"\x80\x81\x82 binary\n",        # not UTF-8, from the first byte
    b"master_seed: 2001-13-45\n",    # a date that does not exist
    TOP_LEVEL_LIST,
])
def test_invalid_yaml_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "broken.yaml"
    path.write_bytes(text)
    assert main(["run", str(path)]) == 2
    expected = ("scenario file must hold a mapping" if text == TOP_LEVEL_LIST
                else "not valid YAML")
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("sub", [None, "sub"])
def test_out_naming_a_file_is_config_error(tmp_path, sub):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    out = target if sub is None else target / sub
    proc = subprocess.run([sys.executable, "-m", "matwalk", "run-builtin", "lil_scalar",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert str(out) in lines[0]
    assert target.read_text() == "not a directory\n"


@pytest.mark.parametrize("table, artifact", [
    ("lyapunov", "report.csv"),
    ("lyapunov", "summary.txt"),
    ("stationary", "cloud.csv"),
    ("clt", "histogram.svg"),
])
def test_unwritable_artifact_is_config_error(tmp_path, table, artifact):
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "matwalk", "run",
                           write_config(tmp_path, small_config(table)), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert str(out / artifact) in lines[0]


def test_one_runner_per_schedule_table():
    assert set(runner._RUNNERS) == set(scenarios.SCHEDULES)


def test_only_run_scenario_writes_report_and_summary():
    tree = ast.parse(Path(runner.__file__).read_text())
    callers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                if called in ("write_csv", "write_summary"):
                    callers.add((getattr(top, "name", None), called))
    assert callers == {("run_scenario", "write_csv"), ("run_scenario", "write_summary")}


def test_python_dash_m_matwalk_lists_the_bundle():
    proc = subprocess.run([sys.executable, "-m", "matwalk", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "lil_scalar" in proc.stdout


def test_python_dash_m_matwalk_help_exits_0():
    # the command line runs under the __main__ check, which importing skips
    proc = subprocess.run([sys.executable, "-m", "matwalk", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


# a bundled scenario per schedule table, at a size that runs in milliseconds
SMALL = {
    "lyapunov": ("lyapunov_free_semigroup", {"n": 20, "replicas": 4}),
    "clt": ("free_semigroup_sl2_clt", {"n": 20, "samples": 16}),
    "clt_cartan": ("cartan_sl3_clt", {"n": 20, "samples": 16}),
    "stationary": ("log_regularity_sl2", {"burn_in": 5, "particles": 50, "test_points": 3}),
    "cohomological": ("cohomological_residual_sl2",
                      {"burn_in": 5, "particles": 50, "test_points": 3,
                       "calibration_n": 20, "calibration_replicas": 4}),
    "large_deviation": ("large_deviation_sl2",
                        {"eps": 0.2, "n_values": [8, 16], "replicas": 16}),
    "lil": ("lil_scalar", {"n_max": 2000, "phi": 1.0, "lambda1": 0.0}),
    "martingale_lab/azuma": ("azuma_coinflip",
                             {"check": "azuma", "stream": "coin", "eps": 0.3,
                              "n_values": [8, 16], "trials": 16}),
    "martingale_lab/baum_katz": ("baum_katz_counterexample",
                                 {"check": "baum_katz", "stream": "counterexample_3i",
                                  "p": 2.0, "eps": 0.5, "n_values": [8, 16],
                                  "replicas": 16}),
    "martingale_lab/brown": ("brown_triangular_gaussian",
                             {"check": "brown", "array_kind": "iid_gaussian",
                              "row_sizes": [20, 50], "replicas": 16}),
}


def small_config(table, schedule=(), **top):
    """Scenario data for the bundled scenario of ``table``, shrunk, with changes."""
    name, small = SMALL[table]
    cfg = mw.bundled_scenarios()[name]
    data = {"name": cfg.name, "kind": cfg.kind, "dimension": cfg.dimension,
            "master_seed": 1,
            "measure": {"atoms": [a.ravel().tolist() for a in cfg.to_measure().atoms],
                        "weights": cfg.to_measure().weights.tolist()},
            "schedule": {**small, **dict(schedule)}}
    data.update(top)
    return data


def identity_measure(d):
    return {"atoms": [np.eye(d).ravel().tolist()]}


# (table, schedule changes, top-level changes, CLI arguments, MATWALK_SEED, named key)
BAD_INPUTS = {
    "n_zero": ("clt", {"n": 0}, {}, [], None, "'n'"),
    "samples_one": ("clt", {"samples": 1}, {}, [], None, "'samples'"),
    "n_text": ("clt", {"n": "abc"}, {}, [], None, "'n'"),
    "n_text_1e400": ("lyapunov", {"n": "1e400"}, {}, [], None, "'n'"),
    "n_inf": ("lyapunov", {"n": float("inf")}, {}, [], None, "'n'"),
    "n_fraction": ("clt", {"n": 20.7}, {}, [], None, "'n'"),
    "n_bool": ("clt", {"n": True}, {}, [], None, "'n'"),
    "lambda1_text": ("clt", {"lambda1": "x"}, {}, [], None, "'lambda1'"),
    "lil_lambda1_nan": ("lil", {"lambda1": float("nan")}, {}, [], None, "'lambda1'"),
    "lil_short_window": ("lil", {"n_max": 999}, {}, [], None, "'n_max'"),
    "replicas_negative": ("lyapunov", {"replicas": -3}, {}, [], None, "'replicas'"),
    "n_values_decreasing": ("large_deviation", {"n_values": [64, 32]}, {}, [], None,
                            "'n_values'"),
    "n_values_repeated": ("martingale_lab/azuma", {"n_values": [16, 16]}, {}, [], None,
                          "'n_values'"),
    "eps_zero": ("large_deviation", {"eps": 0}, {}, [], None, "'eps'"),
    "p_not_above_one": ("stationary", {"p": 1.0}, {}, [], None, "'p'"),
    "reference_unknown": ("clt", {"reference": "cauchy"}, {}, [], None, "'reference'"),
    "array_kind_unknown": ("martingale_lab/brown", {"array_kind": "nope"}, {}, [], None,
                           "'array_kind'"),
    "trials_on_brown": ("martingale_lab/brown", {"trials": 10}, {}, [], None, "'trials'"),
    "check_missing": ("martingale_lab/brown", {"check": None}, {}, [], None, "'check'"),
    "azuma_gaussian_stream": ("martingale_lab/azuma", {"stream": "gaussian"}, {}, [], None,
                              "'stream'"),
    "azuma_counterexample_stream": ("martingale_lab/azuma", {"stream": "counterexample_3i"},
                                    {}, [], None, "'stream'"),
    "lil_missing_phi": ("lil", {"phi": None}, {}, [], None, "'phi'"),
    "start_wrong_length": ("clt", {"start": [1.0, 0.0, 0.0]}, {}, [], None, "'start'"),
    "start_zero": ("clt", {"start": [0.0, 0.0]}, {}, [], None, "'start'"),
    "cartan_samples_3": ("clt_cartan", {"samples": 3}, {}, [], None, "'samples'"),
    "dimension_bool": ("lyapunov", {}, {"dimension": True, "measure": identity_measure(1)},
                       [], None, "'dimension'"),
    "stationary_dimension_13": ("stationary", {}, {"dimension": 13,
                                                   "measure": identity_measure(13)},
                                [], None, "'dimension'"),
    "cohomological_dimension_13": ("cohomological", {}, {"dimension": 13,
                                                         "measure": identity_measure(13)},
                                   [], None, "'dimension'"),
    "cartan_dimension_1": ("clt_cartan", {}, {"dimension": 1,
                                              "measure": identity_measure(1)},
                           [], None, "'dimension'"),
    # the walk degrees 1 to 2**63 - 1 are never listed: the table bound stops at r = 1
    "cartan_dimension_2_63": ("clt_cartan", {}, {"dimension": 2**63,
                                                 "measure": {"atoms": [[1.0]]}},
                              [], None, f"'dimension' {2**63} with 1 atoms needs"),
    "cartan_atom_not_unimodular": ("clt_cartan", {}, {"measure": {"atoms": [
        [2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]]}}, [], None,
        "atom 0: determinant 2.0 is not 1 within 1e-08; kind 'clt_cartan' needs unimodular"),
    # det = 1e450: named by its log, with no overflow warning
    "cartan_atom_determinant_overflows": ("clt_cartan", {}, {"measure": {"atoms": [
        [1e150, 0.0, 0.0, 0.0, 1e150, 0.0, 0.0, 0.0, 1e150]]}}, [], None,
        "atom 0: determinant 1 x e^1036.16 is not 1 within 1e-08"),
    # bounds from the range of the kernel that reads the value
    "stationary_p_1000": ("stationary", {"p": 1000.0}, {}, [], None,
                          "'p' in schedule for kind 'stationary' must be a finite real in "
                          "(1, 109.565]"),
    "baum_katz_p_2_64": ("martingale_lab/baum_katz", {"p": 2**64}, {}, [], None,
                         "'p' in schedule for martingale_lab/baum_katz must be at most "
                         "1 + log(DBL_MAX) / log(16) = 257 for 'n_values' up to 16"),
    "deviation_eps_1e308": ("large_deviation", {"eps": 1e308}, {}, [], None,
                            "'eps' in schedule for kind 'large_deviation' times the last of "
                            "'n_values' must be at most 1.79769e+308"),
    "azuma_eps_1e308": ("martingale_lab/azuma", {"eps": 1e308}, {}, [], None,
                        "'eps' in schedule for martingale_lab/azuma times the last"),
    "baum_katz_eps_1e308": ("martingale_lab/baum_katz", {"eps": 1e308}, {}, [], None,
                            "'eps' in schedule for martingale_lab/baum_katz times the last"),
    "clt_lambda1_1e300": ("clt", {"lambda1": 1e300}, {}, [], None,
                          "'lambda1' in schedule for kind 'clt' must be at most 0.481212 in "
                          "absolute value, the largest atom growth"),
    "lil_lambda1_minus_1e300": ("lil", {"lambda1": -1e300}, {}, [], None,
                                "'lambda1' in schedule for kind 'lil' must be at most 1 in "
                                "absolute value"),
    "atom_singular": ("lyapunov", {}, {"measure": {"atoms": [[1, 0, 0, 0], [1, 1, 0, 1]]}},
                      [], None, "atom 0"),
    "atom_nan": ("lyapunov", {}, {"measure": {"atoms": [[float("nan"), 0.0, 0.0, 1.0]]}},
                 [], None, "atom 0"),
    "atom_overflowing": ("lyapunov", {}, {"measure": {"atoms": [[1.0, 0.0, 0.0, 1.0],
                                                                [1.7e308, -1.7e308,
                                                                 1.7e308, 1.7e308]]}},
                         [], None, "atom 1: the largest singular value overflows"),
    "name_number": ("lyapunov", {}, {"name": 5}, [], None, "'name'"),
    "output_dir_number": ("lyapunov", {}, {"output_dir": 3}, [], None, "'output_dir'"),
    "assertion_text": ("lyapunov", {}, {"assertions": {"proximal": "yes"}}, [], None,
                       "'proximal'"),
    "master_seed_bool": ("lyapunov", {}, {"master_seed": True}, [], None, "'master_seed'"),
    "master_seed_2_64": ("lyapunov", {}, {"master_seed": 2**64}, [], None, "'master_seed'"),
    "seed_flag_2_64_plus_7": ("clt", {}, {}, ["--seed", str(2**64 + 7)], None, "--seed"),
    "seed_flag_negative": ("clt", {}, {}, ["--seed", "-1"], None, "--seed"),
    "seed_env_negative": ("clt", {}, {"master_seed": None}, [], "-5", "MATWALK_SEED"),
    "seed_env_text": ("clt", {}, {"master_seed": None}, [], "abc", "MATWALK_SEED"),
    "threads_zero": ("lyapunov", {}, {}, ["--threads", "0"], None, "--threads"),
    "threads_negative": ("lyapunov", {}, {}, ["--threads", "-2"], None, "--threads"),
    "threads_text": ("lyapunov", {}, {}, ["--threads", "x"], None,
                     "--threads: must be a positive integer, got 'x'"),
    "atoms_empty": ("lyapunov", {}, {"measure": {"atoms": []}}, [], None,
                    "'measure.atoms' must be a nonempty list"),
}


def run_cli(argv):
    # an unexpected exception propagates and fails the test, as a traceback would
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag value
        return exc.code


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_config_error(tmp_path, capsys, monkeypatch, case):
    table, schedule, top, args, env, key = BAD_INPUTS[case]
    data = small_config(table, schedule, **top)
    data["schedule"] = {k: v for k, v in data["schedule"].items() if v is not None}
    monkeypatch.delenv("MATWALK_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("MATWALK_SEED", env)
    out = tmp_path / "out"
    assert run_cli(["run", write_config(tmp_path, data), "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert key in err
    assert not out.exists()


# (table, schedule changes, named keys): each asks for more than the schema allows
TOO_LARGE = {
    "replicas": ("lyapunov", {"replicas": 10**6 + 1}, "'replicas'"),
    "samples": ("clt_cartan", {"samples": 10**6 + 1}, "'samples'"),
    "particles": ("stationary", {"particles": 10**6 + 1}, "'particles'"),
    "test_points": ("cohomological", {"test_points": 10**6 + 1}, "'test_points'"),
    "trials": ("martingale_lab/azuma", {"trials": 10**6 + 1}, "'trials'"),
    "n": ("clt", {"n": 10**7 + 1}, "'n'"),
    "n_max": ("lil", {"n_max": 10**7 + 1}, "'n_max'"),
    "n_values": ("martingale_lab/baum_katz", {"n_values": [8, 10**7 + 1]}, "'n_values'"),
    "row_sizes_2_70": ("martingale_lab/brown", {"row_sizes": [20, 2**70]}, "'row_sizes'"),
    # replicas x checkpoints past 2**25 values: 1e6 x 1000 would be 7.45 GiB of sums
    "azuma_checkpoints": ("martingale_lab/azuma",
                          {"trials": 10**6, "n_values": list(range(1, 1001))},
                          "'trials' and 'n_values'"),
    "baum_katz_checkpoints": ("martingale_lab/baum_katz",
                              {"replicas": 10**6, "n_values": list(range(1, 35))},
                              "'replicas' and 'n_values'"),
    "deviation_checkpoints": ("large_deviation",
                              {"replicas": 10**6, "n_values": list(range(1, 1001))},
                              "'replicas' and 'n_values'"),
}


@pytest.mark.parametrize("case", list(TOO_LARGE))
def test_schedule_upper_bounds_are_config_errors(case):
    # validation only: none of these is ever run
    table, schedule, key = TOO_LARGE[case]
    with pytest.raises(mw.ConfigError) as exc:
        mw.validate_config(small_config(table, schedule))
    assert len(exc.value.problems) == 1
    assert key in exc.value.problems[0]


def test_walk_block_bound_counts_one_block_of_replicas():
    # a walk block holds min(replicas, 4096) replicas and draws their words a
    # segment of letters at a time, whatever n, so validation bounds each key alone
    for replicas in (4096, 10**6):
        cfg = mw.validate_config(small_config("lyapunov", {"replicas": replicas, "n": 48_828}))
        assert cfg.schedule == {"n": 48_828, "replicas": replicas}
    mw.validate_config(small_config("clt", {"samples": 10**6, "n": 1000}))
    # with lambda1 given there is no calibration walk; without it the 256
    # calibration replicas walk 781250 letters
    mw.validate_config(small_config("clt", {"samples": 2, "n": 10**7, "lambda1": 0.4}))
    mw.validate_config(small_config("clt", {"samples": 2, "n": 781_250}))
    mw.validate_config(small_config("lil", {"n_max": 10**7}))


# (table, schedule changes): more than 2e8 letters in a block of min(replicas,
# 4096) replicas, whose words a walk draws a segment of letters at a time
LONG_WALKS = {
    "lyapunov_block": ("lyapunov", {"replicas": 10**6, "n": 48_829}),
    "clt_block": ("clt", {"samples": 4096, "n": 10**5}),
    "stationary_block": ("stationary", {"particles": 5000, "burn_in": 10**5}),
    "calibration_block": ("cohomological", {"calibration_replicas": 4096,
                                            "calibration_n": 10**5}),
    "deviation_block": ("large_deviation", {"replicas": 8192, "n_values": [8, 10**5]}),
    # 256 calibration replicas x 10**7 letters: lambda1 is estimated first
    "clt_calibration": ("clt", {"samples": 2, "n": 10**7}),
    "deviation_calibration": ("large_deviation", {"eps": 0.1, "n_values": [10**7],
                                                  "replicas": 1}),
}


@pytest.mark.parametrize("case", list(LONG_WALKS))
def test_long_walks_validate(case):
    # validation only: none of these is ever run
    table, schedule = LONG_WALKS[case]
    cfg = mw.validate_config(small_config(table, schedule))
    assert {k: cfg.schedule[k] for k in schedule} == {
        k: tuple(v) if isinstance(v, list) else v for k, v in schedule.items()}


@pytest.mark.parametrize("table, rows", [("martingale_lab/azuma", "trials"),
                                         ("martingale_lab/baum_katz", "replicas"),
                                         ("large_deviation", "replicas")])
def test_checkpoint_values_bound_is_inclusive(table, rows):
    # validation only: 2**15 replicas x 1024 checkpoints is exactly the bound
    ns = list(range(1, 1025))
    assert mw.validate_config(small_config(table, {rows: 2**15, "n_values": ns}))
    with pytest.raises(mw.ConfigError) as exc:
        mw.validate_config(small_config(table, {rows: 2**15, "n_values": ns + [1025]}))
    [problem] = exc.value.problems
    assert f"'{rows}' and 'n_values'" in problem
    assert "32768 x 1025 = 33587200 checkpoint values; at most 33554432" in problem


def test_checkpoint_values_bound_exits_2_before_running(tmp_path, capsys, monkeypatch):
    # the run is replaced, so no walk or sum is ever formed
    monkeypatch.setattr("matwalk.cli.run_scenario",
                        lambda *a, **k: pytest.fail("the config was run"))
    data = small_config("martingale_lab/azuma",
                        {"trials": 10**6, "n_values": list(range(1, 1001))})
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "'trials' and 'n_values'" in err
    assert not out.exists()


@pytest.mark.parametrize("table, dim, atoms, passes", [
    ("clt_cartan", 10, 2, True), ("clt_cartan", 10, 20, True),
    ("clt_cartan", 11, 1, False), ("clt_cartan", 12, 2, False),
    ("lyapunov", 38, 2, True), ("lyapunov", 39, 2, False), ("lyapunov", 100, 2, False),
    ("clt", 721, 2, True), ("clt", 722, 2, False),
])
def test_letter_tables_bound_the_dimension(table, dim, atoms, passes, monkeypatch):
    # (256 + atoms) x (sum of m^2 over the walked actions) x 8 bytes <= 2**30;
    # validation only: none of these is ever run.  The bound needs only the
    # atom count, so an oversized config is rejected without checking an atom.
    data = small_config(table, dimension=dim,
                        measure={"atoms": identity_measure(dim)["atoms"] * atoms})
    checked = []
    check = measures.check_group_element
    monkeypatch.setattr(measures, "check_group_element", lambda g: checked.append(1) or check(g))
    if passes:
        assert mw.validate_config(data).dimension == dim
        assert len(checked) == atoms
        return
    with pytest.raises(mw.ConfigError) as exc:
        mw.validate_config(data)
    assert len(exc.value.problems) == 1
    assert exc.value.problems[0].startswith(f"'dimension' {dim} with {atoms} atoms needs ")
    assert checked == []


def test_oversized_config_exits_2_naming_the_bound(tmp_path, capsys):
    data = small_config("clt_cartan", dimension=11, measure=identity_measure(11))
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'dimension' 11 with 1 atoms needs " in err and "walk letter tables" in err
    assert not out.exists()


@pytest.mark.parametrize("table", ["clt", "clt_cartan", "lyapunov"])
def test_huge_dimension_is_rejected_without_summing_every_table(table, monkeypatch):
    # the table sum stops once past the bound: clt_cartan would otherwise square
    # 10**6 binomials of up to 10**6 bits; a one-entry atom is never shape-checked
    data = small_config(table, dimension=10**6, measure={"atoms": [[1.0]]})
    checked = []
    monkeypatch.setattr(measures, "check_group_element", lambda g: checked.append(1))
    with pytest.raises(mw.ConfigError) as exc:
        mw.validate_config(data)
    assert exc.value.problems[0].startswith(f"'dimension' {10**6} with 1 atoms needs at least ")
    assert "walk letter tables" in exc.value.problems[0]
    assert checked == []


def test_three_bad_keys_listed_in_one_run(tmp_path, capsys):
    data = small_config("lyapunov", {"n": 0, "replicas": "many"}, master_seed=-1)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, data), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 3
    for key in ("'n'", "'replicas'", "'master_seed'"):
        assert sum(key in line for line in lines) == 1, key
    assert not out.exists()


def test_schedule_is_typed_with_every_default():
    clt = mw.validate_config(small_config("clt"))
    assert clt.schedule == {"n": 20, "samples": 16, "start": None, "reference": None,
                            "reference_var": 1.0, "lambda1": None}
    brown = mw.validate_config(small_config("martingale_lab/brown", {"eps": 1}))
    assert brown.schedule == {"check": "brown", "array_kind": "iid_gaussian",
                              "row_sizes": (20, 50), "eps": 1.0, "replicas": 16}
    assert type(brown.schedule["eps"]) is float
    for cfg in mw.bundled_scenarios().values():
        table = (cfg.kind if cfg.kind != "martingale_lab"
                 else f"martingale_lab/{cfg.schedule['check']}")
        extra = {"check"} if cfg.kind == "martingale_lab" else set()
        assert set(cfg.schedule) == set(scenarios.SCHEDULES[table]) | extra, cfg.name


ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8,
)
TARGETS = [(table, key) for table, rules in scenarios.SCHEDULES.items() for key in rules]
TARGETS += [("clt", "check"), ("martingale_lab/brown", "check")]
TARGETS += [("scenario", key) for key in ("name", "kind", "dimension", "master_seed",
                                          "output_dir", "measure", "schedule", "assertions")]
TARGETS += [("measure", "atoms"), ("measure", "weights"), ("assertions", "proximal")]


@given(target=st.sampled_from(TARGETS), value=ANY_VALUE)
def test_any_value_is_accepted_or_a_config_error(target, value):
    # validation only: an accepted value is never run, however large
    where, key = target
    table = where if where in scenarios.SCHEDULES else "clt"
    data = small_config(table, assertions={})
    parent = {"scenario": data, "measure": data["measure"],
              "assertions": data["assertions"]}.get(where, data["schedule"])
    parent[key] = value
    try:
        cfg = mw.validate_config(data)
    except mw.ConfigError as exc:
        assert exc.problems
        return
    if where in scenarios.SCHEDULES:
        assert cfg.schedule[key] == (tuple(value) if isinstance(value, list) else value)


def test_readme_schedule_table_matches_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z_/]+)` \| `(\w+)` \| ([^|]+) \|", readme, re.MULTILINE)
    table = {(kind, key): text.strip() for kind, key, text in rows}
    schema = {(kind, key): check.text
              for kind, rules in scenarios.SCHEDULES.items()
              for key, (check, _) in rules.items()}
    schema[("martingale_lab", "check")] = scenarios._CHECK.text
    assert table == schema
