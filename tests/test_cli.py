import filecmp
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import matwalk as mw
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


def test_bundle_is_complete_and_valid():
    bundle = mw.bundled_scenarios()
    assert len(bundle) >= 9
    assert REQUIRED_BUILTINS <= set(bundle)
    non_gaussian = bundle["example_nongaussian"]
    assert non_gaussian.schedule["reference"] == "folded_normal"
    for cfg in bundle.values():
        assert cfg.to_measure().dim == cfg.dimension


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


def test_library_value_error_is_runtime_error(tmp_path):
    # a zero start vector passes the config check and fails inside the library
    cfg = write_config(tmp_path, {
        "name": "zero_start",
        "kind": "clt",
        "dimension": 2,
        "master_seed": 4,
        "measure": {"atoms": [[2.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 2.0]]},
        "schedule": {"n": 20, "samples": 16, "start": [0, 0]},
    })
    proc = subprocess.run([sys.executable, "-m", "matwalk.cli", "run", cfg,
                           "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "zero_start" in proc.stderr and "seed 4" in proc.stderr


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
            "measure": {"atoms": [list(a) for a in cfg.atoms],
                        "weights": list(cfg.weights)},
            **shrink,
        }, name=f"{name}.yaml")
        out = tmp_path / f"out_{name}"
        assert main(["run", small, "--out", str(out)]) == 0, name
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == GOLDEN_HEADERS[header_key], name
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


def test_invalid_yaml_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("name: [unclosed\n")
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


def test_python_dash_m_matwalk_lists_the_bundle():
    proc = subprocess.run([sys.executable, "-m", "matwalk", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "lil_scalar" in proc.stdout
