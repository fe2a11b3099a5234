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
    "clt": "sample_index,normalized_value",
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


def test_atom_growth_past_the_bound_exits_3_without_warnings(tmp_path, capsys):
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
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "overflowing_atom" in err and "seed 5" in err
    assert "atom 0 has growth max(|log s_max|, |log s_min|) = 368.4, above 350" in err


def test_unknown_builtin_is_config_error(capsys):
    assert main(["run-builtin", "not_a_scenario"]) == 2
    assert "not_a_scenario" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2


def test_runtime_error_exit_code(tmp_path, capsys):
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


def test_clt_artifacts_include_svg(tmp_path):
    out = tmp_path / "clt_out"
    assert main(["run-builtin", "free_semigroup_sl2_clt", "--out", str(out),
                 "--seed", "5"]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == GOLDEN_HEADERS["clt"]
    svg = (out / "histogram.svg").read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert 'width="800" height="600"' in svg


def test_golden_headers_across_kinds(tmp_path):
    cases = {
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


@pytest.mark.parametrize("text", [
    b"name: [unclosed\n",
    b"name: \xff\xfe\n",            # not UTF-8
    b"\x80\x81\x82 binary\n",        # not UTF-8, from the first byte
    b"master_seed: 2001-13-45\n",    # a date that does not exist
])
def test_invalid_yaml_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "broken.yaml"
    path.write_bytes(text)
    assert main(["run", str(path)]) == 2
    assert "not valid YAML" in capsys.readouterr().err


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
    "lyapunov_block": ("lyapunov", {"replicas": 10**6, "n": 48_829}, "'replicas' and 'n'"),
    "clt_block": ("clt", {"samples": 4096, "n": 10**5}, "'samples' and 'n'"),
    "stationary_block": ("stationary", {"particles": 5000, "burn_in": 10**5},
                         "'particles' and 'burn_in'"),
    "calibration_block": ("cohomological", {"calibration_replicas": 4096,
                                            "calibration_n": 10**5},
                          "'calibration_replicas' and 'calibration_n'"),
    "deviation_block": ("large_deviation", {"replicas": 8192, "n_values": [8, 10**5]},
                        "'replicas' and 'n_values'"),
    # 256 calibration replicas x 10**7 letters: lambda1 is estimated first
    "clt_calibration": ("clt", {"samples": 2, "n": 10**7},
                        "'n' and the 256 replicas of the exponent calibration"),
    "deviation_calibration": ("large_deviation", {"eps": 0.1, "n_values": [10**7],
                                                  "replicas": 1},
                              "'n_values' and the 256 replicas of the exponent calibration"),
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
    # min(replicas, 4096) x n up to 2e8 letters passes: 4096 x 48828 < 2e8 < 4096 x 48829
    for replicas in (4096, 10**6):
        cfg = mw.validate_config(small_config("lyapunov", {"replicas": replicas, "n": 48_828}))
        assert cfg.schedule == {"n": 48_828, "replicas": replicas}
    mw.validate_config(small_config("clt", {"samples": 10**6, "n": 1000}))
    # with lambda1 given there is no calibration walk; 256 x 781250 letters is the bound
    mw.validate_config(small_config("clt", {"samples": 2, "n": 10**7, "lambda1": 0.5}))
    mw.validate_config(small_config("clt", {"samples": 2, "n": 781_250}))
    mw.validate_config(small_config("lil", {"n_max": 10**7}))


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
