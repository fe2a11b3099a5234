"""The benchmark's checks reject perturbed outputs.

Each workload's operations run for the rounds its statistical checks pool,
at the benchmark's sizes.  Every check must pass on the real output and fail
once that output (or the program output a check reads) is deliberately
perturbed.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from matwalk import stationary  # noqa: E402

SEED = 20261018
EPS = 1e-6


def scaled(obj, field, factor=1.0 + EPS):
    return dataclasses.replace(obj, **{field: getattr(obj, field) * factor})


def shifted(obj, field, delta):
    return dataclasses.replace(obj, **{field: getattr(obj, field) + delta})


def replaced(obj, **kw):
    return dataclasses.replace(obj, **kw)


def moved_cloud(cloud):
    rows = cloud.reps + EPS
    return replaced(cloud, reps=rows / np.linalg.norm(rows, axis=1)[:, None])


def psi_returning(mp, transform):
    original = stationary.psi_eval_many
    mp.setattr(stationary, "psi_eval_many", lambda psi, rows: transform(original(psi, rows)))


def with_column(arr, col, factor=1.0 + EPS):
    arr = arr.copy()
    arr[:, col] *= factor
    return arr


# (operation, check label) -> perturb(output, outputs, monkeypatch) -> output
PERTURB = {
    ("scalar_clt", "sampled replicas"): lambda o, os_, mp: scaled(o, "raw_values"),
    ("scalar_clt", "integer lattice"): lambda o, os_, mp: shifted(o, "raw_values", 0.25),
    ("folded_clt", "sampled replicas"): lambda o, os_, mp: scaled(o, "raw_values"),
    ("planar_clt", "sampled replicas"): lambda o, os_, mp: scaled(o, "raw_values"),
    ("planar_second_start", "sampled replicas"): lambda o, os_, mp: (o[0] * (1 + EPS), o[1]),
    ("cartan_sl3", "sampled top log singular value"):
        lambda o, os_, mp: replaced(o, raw_values=with_column(o.raw_values, 0)),
    ("cartan_sl3", "sampled bottom log singular value"):
        lambda o, os_, mp: replaced(o, raw_values=with_column(o.raw_values, 2)),
    ("cartan_sl3", "coordinate sums <= 1e-8"):
        lambda o, os_, mp: replaced(o, max_coordinate_sum=1e-3),
    ("deviation_curve", "frequencies of every replica"):
        lambda o, os_, mp: shifted(o, "frequencies", 2.0 / o.replicas),
    ("calibration", "rate in (0, log max norm]"):
        lambda o, os_, mp: replaced(o, lambda1=-0.1),
    ("calibration", "positive half-width"): lambda o, os_, mp: replaced(o, ci_halfwidth=0.0),
    ("dual_cloud", "sampled particles"): lambda o, os_, mp: moved_cloud(o),
    ("dual_cloud", "psi <= 0 at every test point"):
        lambda o, os_, mp: psi_returning(mp, lambda v: v + 0.5) or o,
    ("dual_cloud", "psi equals the direct cloud sum"):
        lambda o, os_, mp: psi_returning(mp, lambda v: v * (1 + EPS)) or o,
    ("primal_cloud", "sampled particles"): lambda o, os_, mp: moved_cloud(o),
    ("residual", "sampled residuals by direct sums"):
        lambda o, os_, mp: shifted(o, "residuals", EPS),
    ("direct_variance", "sampled replicas"):
        lambda o, os_, mp: (scaled(o[0], "raw_values"), o[1]),
    ("direct_variance", "positive variance"): lambda o, os_, mp: (o[0], replaced(o[1], value=0.0)),
    ("advance", "sampled particles one step on"): lambda o, os_, mp: moved_cloud(o),
    ("advance", "provenance"): lambda o, os_, mp: replaced(o, provenance=(0, 500, o.size)),
    ("advanced_residual", "sampled residuals by direct sums"):
        lambda o, os_, mp: shifted(o, "residuals", EPS),
    ("lyapunov_narrow", "rate in (0, log max norm]"):
        lambda o, os_, mp: replaced(o, lambda1=-0.1),
    ("lil", "running sums at every checkpoint"):
        lambda o, os_, mp: shifted(o, "normalized_at_checkpoints", EPS),
    ("power_walks", "log rho <= rate <= log rho + log cond(V) / n"):
        lambda o, os_, mp: [shifted(o[0], "lambda1", 0.01)] + o[1:],
    ("walk_sums", "sampled replicas"): lambda o, os_, mp: o * (1 + EPS),
}


def each_round(rounds, op, change):
    """The rounds with ``change`` applied to every round's output of ``op``."""
    return [dict(r, **{op: change(r[op])}) for r in rounds]


def first_round(rounds, op, change):
    return [dict(rounds[0], **{op: change(rounds[0][op])})] + rounds[1:]


def uniform_cloud(cloud):
    angles = np.random.default_rng(0).uniform(0.0, np.pi, cloud.size)
    return replaced(cloud, reps=np.column_stack([np.cos(angles), np.sin(angles)]))


def skewed(rep):
    z = (rep.raw_values - rep.raw_values.mean()) / rep.raw_values.std()
    return replaced(rep, raw_values=np.exp(z))


def gaussian(rep):
    z = np.random.default_rng(0).normal(size=rep.raw_values.shape)
    return replaced(rep, raw_values=z * np.sqrt(rep.n))


# pooled check label -> perturb(rounds) -> rounds
PERTURB_POOLED = {
    "scalar: KS to the exact walk law <= 0.02":
        lambda rs: each_round(rs, "scalar_clt", lambda o: shifted(o, "raw_values", 8.0)),
    "folded: KS to folded normal <= 0.03":
        lambda rs: each_round(rs, "folded_clt", lambda o: scaled(o, "raw_values", 1.2)),
    "folded: KS to fitted Gaussian >= 0.08": lambda rs: each_round(rs, "folded_clt", gaussian),
    "planar: KS to fitted Gaussian <= 0.02": lambda rs: each_round(rs, "planar_clt", skewed),
    "second start: two-sample KS <= 0.03":
        lambda rs: each_round(rs, "planar_second_start",
                              lambda o: (o[0] + 0.3 * np.sqrt(2000), o[1])),
    "cartan: rates ordered by 3 half-widths":
        lambda rs: first_round(rs, "cartan_sl3",
                               lambda o: replaced(o, lambda_used=np.array([0.1, 0.1, -0.2]))),
    "cartan: restricted covariance nondegenerate":
        lambda rs: first_round(rs, "cartan_sl3",
                               lambda o: replaced(o, restricted_min_eigenvalue=0.0)),
    "exponent pair: wedge rate consistent":
        lambda rs: first_round(rs, "exponent_pair",
                               lambda o: (o[0], shifted(o[1], "lambda1", 0.5))),
    "exponent pair: unimodular zero sum":
        lambda rs: first_round(rs, "exponent_pair",
                               lambda o: (shifted(o[0], "lambda2", 0.1), o[1])),
    "exponent pair: positive gap":
        lambda rs: first_round(rs, "exponent_pair",
                               lambda o: (replaced(o[0], lambda2=o[0].lambda1), o[1])),
    "dual cloud: mean |residual| <= 0.02":
        lambda rs: each_round(rs, "dual_cloud", uniform_cloud),
    "advanced cloud: mean |residual| <= 0.02":
        lambda rs: each_round(rs, "advance", uniform_cloud),
    "variance routes agree":
        lambda rs: first_round(rs, "corrector_variance", lambda o: shifted(o, "value", 1.0)),
    "S_n / n within 3 combined half-widths of lyapunov_top":
        lambda rs: first_round(rs, "lil",
                               lambda o: shifted(o, "normalized_at_checkpoints", 50.0)),
    "walk sums: mean zero within 4 standard errors":
        lambda rs: each_round(rs, "walk_sums", lambda o: o + 1.0),
}


def run_ops(ops):
    outputs = {}
    for op in ops:
        outputs[op.name] = op.run(outputs)
    return outputs


def assert_checks_reject(ops, outputs, monkeypatch, perturb=PERTURB):
    seen = 0
    for op in ops:
        if op.checks is None:
            continue
        for label, ok in op.checks(outputs[op.name], outputs):
            assert ok, f"{op.name}: {label} fails on the real output"
            assert (op.name, label) in perturb, f"no perturbation for {op.name}: {label}"
            with monkeypatch.context() as mp:
                bad = perturb[(op.name, label)](outputs[op.name], outputs, mp)
                verdicts = dict(op.checks(bad, dict(outputs, **{op.name: bad})))
            assert not verdicts[label], f"{op.name}: {label} accepts a perturbed output"
            seen += 1
    return seen


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_reject_perturbed_outputs(name, monkeypatch):
    wl = workloads.WORKLOADS[name]
    inputs = workloads.build_inputs(name)
    seeds = [workloads.round_seed(SEED, k) for k in range(workloads.POOLED_ROUNDS)]
    rounds, seen = [], 0
    for seed in seeds:
        ops = wl.ops(seed, inputs)
        rounds.append(run_ops(ops))
        if len(rounds) == 1:
            seen = assert_checks_reject(ops, rounds[0], monkeypatch)
            assert seen >= len([op for op in ops if op.checks is not None])
    for label, ok in wl.pooled(seeds, rounds):
        assert ok, f"pooled: {label} fails on the real outputs"
        assert label in PERTURB_POOLED, f"no perturbation for pooled: {label}"
        verdicts = dict(wl.pooled(seeds, PERTURB_POOLED[label](rounds)))
        assert not verdicts[label], f"pooled: {label} accepts perturbed outputs"


def test_cold_checks_reject_perturbed_artifacts(tmp_path):
    name = "free_semigroup_sl2_clt"
    t1, t2 = tmp_path / f"{name}_t1", tmp_path / f"{name}_t2"
    for threads, out in ((1, t1), (2, t2)):
        run.spawn_cold("fluctuation", name, out, SEED, threads, False)
    bundle = workloads.build_inputs("fluctuation")["bundle"]

    def verdicts():
        return dict(workloads.cold_checks(name, t1, t2, SEED, bundle))

    def add_byte(path):
        path.write_bytes(path.read_bytes() + b"\n")

    def perturb_value(path):
        lines = path.read_text().splitlines()
        index, value = lines[1].split(",")
        lines[1] = f"{index},{float(value) + 1e-3!r}"
        path.write_text("\n".join(lines) + "\n")

    perturb = {
        "byte-identical across threads": (t2 / "report.csv", add_byte),
        "CSVs present": (t1 / "report.csv", Path.unlink),
        "sampled replicas of report.csv": (t1 / "report.csv", perturb_value),
    }
    real = verdicts()
    assert set(real) == set(perturb) and all(real.values()), real
    for label, (path, edit) in perturb.items():
        original = path.read_bytes()
        edit(path)
        try:
            assert not verdicts()[label], f"{label} accepts a perturbed artifact"
        finally:
            path.write_bytes(original)
