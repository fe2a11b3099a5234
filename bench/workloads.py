"""The benchmark's workloads: timed operations, their inputs and their checks.

A workload is a list of operations run in a fixed order (one round).  Each
operation is a call into matwalk; wide walks and clouds run at a fifth of
the acceptance suite's sample sizes, so that a run times every operation
many times.  The first ``POOLED_ROUNDS`` rounds of a run are checked against
``reference`` and against properties the method guarantees, never against
stored output:

* exact checks on each of those rounds (recomputed replicas and particles,
  sign and lattice properties, recomputed frequencies);
* statistical checks once: distribution checks on the pooled samples of
  those rounds, which make up the acceptance suite's sample size, and
  confidence-interval checks on each of them.

Round ``k`` under seed ``s`` draws every input from ``round_seed(s, k)``.
Each workload also names the bundled scenarios its cold processes run.
"""

import filecmp
import math
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

import matwalk as mw
from matwalk import limits, martingales, rng, stationary, walks

POOLED_ROUNDS = 5            # rounds whose samples the statistical checks pool
SAMPLES = 10_000 // POOLED_ROUNDS   # replicas per wide walk (acceptance: 10k)
PARTICLES = 100_000 // POOLED_ROUNDS    # dual cloud particles (acceptance: 100k)
PRIMAL = 1000                # primal cloud particles (acceptance: 5000)
SAMPLED = 3                  # replicas or particles recomputed per walk
REL_TOL = 1e-9               # reference against program, relative to max(1, |value|)
PLANAR_PHI = 0.2             # fluctuation variance of the planar pair, for the LIL scale
GOLDEN_LOG = math.log((1.0 + math.sqrt(5.0)) / 2.0)  # log of the largest atom norm


def round_seed(seed, k):
    return (seed * 1_000_003 + k) & ((1 << 63) - 1)


def build_inputs(workload):
    """The measures and configs a workload's operations are called with."""
    pair = mw.free_semigroup_pair()
    inputs = {"pair": pair, "bundle": mw.bundled_scenarios()}
    if workload == "fluctuation":
        inputs.update(scalar=mw.scalar_exponential_pair(), rot=mw.rotating_diagonal_measure(),
                      sl3=mw.shear_pair_sl3(), wedge=limits.wedge_square_measure(pair))
    return inputs


def close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= REL_TOL * np.maximum(1.0, np.abs(b))))


def sampled(seed, total):
    """First, last and one seeded replica index."""
    middle = int(np.random.default_rng(seed).integers(1, total - 1))
    return [0, middle, total - 1][:SAMPLED]


def pooled_values(rounds, op, get=lambda out: out):
    return np.concatenate([np.asarray(get(r[op])) for r in rounds])


@dataclass
class Op:
    name: str
    run: object                      # callable(outputs) -> output
    checks: object = None            # callable(output, outputs) -> [(label, ok)]


@dataclass
class Workload:
    name: str
    threads: int                     # the program's thread count (walks.set_thread_count)
    scenarios: tuple                 # bundled scenarios of the cold processes
    ops: object                      # callable(seed, inputs) -> [Op]
    pooled: object                   # callable(round seeds, rounds) -> [(label, ok)]


# --- fluctuation -----------------------------------------------------------

FLUCT_N = {"scalar_clt": 1000, "folded_clt": 4000, "planar_clt": 2000, "cartan_sl3": 2000}
DEVIATION_SCHEDULE = [2**k for k in range(4, 11)]


def _fluctuation_ops(s, inp):
    pair, scalar, rot, sl3 = inp["pair"], inp["scalar"], inp["rot"], inp["sl3"]
    e1, e2 = mw.ProjectivePoint([1.0, 0.0]), mw.ProjectivePoint([0.0, 1.0])
    n = FLUCT_N

    def scalar_checks(rep, _):
        idx = sampled(s, SAMPLES)
        w = ref.words(s, rng.TAG_WALK, idx, n["scalar_clt"], scalar.weights)
        want = ref.product_log_norms(scalar.atoms, w)[:, -1]
        steps = np.rint(rep.raw_values)
        return [("sampled replicas", close(rep.raw_values[idx], want)),
                ("integer lattice", bool(np.all(np.abs(rep.raw_values - steps) <= 1e-9)))]

    def folded_checks(rep, _):
        idx = sampled(s + 1, SAMPLES)
        w = ref.words(s + 1, rng.TAG_WALK, idx, n["folded_clt"], rot.weights)
        want = ref.product_log_norms(rot.atoms, w)[:, -1]
        return [("sampled replicas", close(rep.raw_values[idx], want))]

    def planar_checks(rep, _):
        idx = sampled(s + 2, SAMPLES)
        w = ref.words(s + 2, rng.TAG_WALK, idx, n["planar_clt"], pair.weights)
        want, _ = ref.vector_walk(pair.atoms, w, np.tile(e1.rep, (len(idx), 1)))
        return [("sampled replicas", close(rep.raw_values[idx], want[:, -1]))]

    def second_checks(out, _):
        raw2, _ = out
        idx = sampled(s + 3, SAMPLES)
        w = ref.words(s + 2, rng.TAG_SECOND_WALK, idx, n["planar_clt"], pair.weights)
        want, _ = ref.vector_walk(pair.atoms, w, np.tile(e2.rep, (len(idx), 1)))
        return [("sampled replicas", close(raw2[idx], want[:, -1]))]

    def cartan_checks(rep, _):
        idx = sampled(s + 4, SAMPLES)
        w = ref.words(s + 4, rng.TAG_WALK, idx, n["cartan_sl3"], sl3.weights)
        top, bottom = ref.extreme_log_singular_values(sl3.atoms, w)
        return [("sampled top log singular value", close(rep.raw_values[idx, 0], top)),
                ("sampled bottom log singular value", close(rep.raw_values[idx, 2], bottom)),
                ("coordinate sums <= 1e-8", rep.max_coordinate_sum <= 1e-8)]

    def deviation_checks(curve, _):
        w = ref.words(s + 7, rng.TAG_WALK, range(curve.replicas), DEVIATION_SCHEDULE[-1],
                      pair.weights)
        logs = ref.product_log_norms(pair.atoms, w, DEVIATION_SCHEDULE)
        ns = np.asarray(DEVIATION_SCHEDULE, dtype=float)
        freqs = (np.abs(logs - ns * curve.lambda_used) >= 0.2 * ns).mean(axis=0)
        return [("frequencies of every replica",
                 bool(np.all(np.abs(freqs - curve.frequencies) <= 1.0 / curve.replicas)))]

    ref_normal = lambda t: mw.gaussian_cdf(t, 0.0, 1.0)      # noqa: E731
    ref_folded = lambda t: mw.folded_gaussian_cdf(t, 1.0)    # noqa: E731
    return [
        Op("scalar_clt", lambda o: limits.clt_experiment(
            scalar, x=None, n=n["scalar_clt"], samples=SAMPLES, seed=s, lambda1=0.0,
            reference=ref_normal), scalar_checks),
        Op("folded_clt", lambda o: limits.clt_experiment(
            rot, x=None, n=n["folded_clt"], samples=SAMPLES, seed=s + 1, lambda1=0.0,
            reference=ref_folded), folded_checks),
        Op("planar_clt", lambda o: limits.clt_experiment(
            pair, x=e1, n=n["planar_clt"], samples=SAMPLES, seed=s + 2), planar_checks),
        Op("planar_second_start", lambda o: walks.vector_walk(
            pair.atoms, pair.weights, e2.rep, n["planar_clt"], SAMPLES, s + 2,
            rng.TAG_SECOND_WALK), second_checks),
        Op("cartan_sl3", lambda o: limits.multidim_clt_cartan(
            sl3, n=n["cartan_sl3"], samples=SAMPLES, seed=s + 4), cartan_checks),
        Op("exponent_pair", lambda o: (
            limits.lyapunov_pair(pair, n=1000, replicas=400, seed=s + 5),
            limits.lyapunov_top(inp["wedge"], n=1000, replicas=400, seed=s + 6))),
        Op("deviation_curve", lambda o: limits.large_deviation_curve(
            pair, 0.2, DEVIATION_SCHEDULE, replicas=SAMPLES, seed=s + 7), deviation_checks),
    ]


def _fluctuation_pooled(_seeds, rounds):
    raw = lambda rep: rep.raw_values                           # noqa: E731
    scalar = np.rint(pooled_values(rounds, "scalar_clt", raw))    # on the lattice, checked exactly
    points, cdf = ref.lattice_walk_cdf(FLUCT_N["scalar_clt"])
    folded = pooled_values(rounds, "folded_clt", raw) / math.sqrt(FLUCT_N["folded_clt"])
    planar = pooled_values(rounds, "planar_clt", raw)
    second = pooled_values(rounds, "planar_second_start", lambda out: out[0])

    def ordered(rep):
        lam, ci = rep.lambda_used, rep.lambda_ci_halfwidth
        return all(lam[i] - lam[i + 1] > 3.0 * (ci[i] + ci[i + 1]) for i in range(2))

    def pair_ok(out, label):
        est, independent = out
        pair_sum = est.lambda1 + est.lambda2
        return {
            "wedge": abs(independent.lambda1 - pair_sum)
            <= 3.0 * (independent.ci_halfwidth + est.pair_sum_ci_halfwidth),
            "zero": abs(pair_sum) <= 3.0 * est.pair_sum_ci_halfwidth,
            "gap": est.simplicity_gap > 3.0 * est.simplicity_gap_ci_halfwidth,
        }[label]

    cartans = [r["cartan_sl3"] for r in rounds]
    pairs = [r["exponent_pair"] for r in rounds]
    return [
        ("scalar: KS to the exact walk law <= 0.02",
         ref.ks_against_steps(scalar / math.sqrt(FLUCT_N["scalar_clt"]), points, cdf) <= 0.02),
        ("folded: KS to folded normal <= 0.03",
         ref.ks_continuous(folded, ref.folded_normal_cdf) <= 0.03),
        ("folded: KS to fitted Gaussian >= 0.08", ref.ks_fitted_normal(folded) >= 0.08),
        ("planar: KS to fitted Gaussian <= 0.02", ref.ks_fitted_normal(planar) <= 0.02),
        ("second start: two-sample KS <= 0.03", ref.ks_two_sample(planar, second) <= 0.03),
        ("cartan: rates ordered by 3 half-widths", all(ordered(rep) for rep in cartans)),
        ("cartan: restricted covariance nondegenerate",
         all(rep.restricted_min_eigenvalue > 3.0 * rep.restricted_min_eigenvalue_ci
             for rep in cartans)),
        ("exponent pair: wedge rate consistent", all(pair_ok(p, "wedge") for p in pairs)),
        ("exponent pair: unimodular zero sum", all(pair_ok(p, "zero") for p in pairs)),
        ("exponent pair: positive gap", all(pair_ok(p, "gap") for p in pairs)),
    ]


# --- corrector -------------------------------------------------------------

BURN_IN = 500


def test_points(s):
    return np.random.default_rng(s).normal(size=(100, 2))


def _corrector_ops(s, inp):
    pair = inp["pair"]
    x_rows = np.stack([mw.ProjectivePoint(r).rep for r in test_points(s)])
    xs = [mw.ProjectivePoint(r) for r in x_rows]
    e1 = mw.ProjectivePoint([1.0, 0.0])
    dual_atoms = np.array([a.T for a in pair.atoms])

    def cloud_ok(cloud, tag, seed, steps, atoms):
        idx = sampled(seed + steps, cloud.size)
        w = ref.words(seed, tag, idx, steps, pair.weights)
        starts = np.stack([ref.half_circle_start(k, cloud.size) for k in idx])
        _, finals = ref.vector_walk(atoms, w, starts)
        return close(cloud.reps[idx], ref.canonical(finals))

    def calibration_checks(est, _):
        return [("rate in (0, log max norm]", 0.0 < est.lambda1 <= GOLDEN_LOG),
                ("positive half-width", est.ci_halfwidth > 0.0)]

    def dual_checks(dual, _):
        psi_x = stationary.psi_eval_many(mw.PsiFunction(dual), x_rows)
        idx = sampled(s + 9, len(xs))
        return [("sampled particles",
                 cloud_ok(dual, rng.TAG_DUAL_CLOUD, s, BURN_IN, dual_atoms)),
                ("psi <= 0 at every test point", bool(np.all(psi_x <= 0.0))),
                ("psi equals the direct cloud sum",
                 close(psi_x[idx], ref.psi(dual.reps, x_rows[idx])))]

    def primal_checks(nu, _):
        return [("sampled particles", cloud_ok(nu, rng.TAG_CLOUD, s + 1, BURN_IN, pair.atoms))]

    def residual_checks(res, outs, cloud_key):
        idx = sampled(s + 10, len(xs))
        want = ref.residual(pair.atoms, pair.weights, outs[cloud_key].reps,
                            outs["calibration"].lambda1, x_rows[idx])
        return [("sampled residuals by direct sums", close(res.residuals[idx], want))]

    def direct_checks(out, _):
        rep, direct = out
        idx = sampled(s + 2, SAMPLES)
        w = ref.words(s + 2, rng.TAG_WALK, idx, 2000, pair.weights)
        want, _ = ref.vector_walk(pair.atoms, w, np.tile(e1.rep, (len(idx), 1)))
        return [("sampled replicas", close(rep.raw_values[idx], want[:, -1])),
                ("positive variance", direct.value > 0.0)]

    def advance_checks(adv, outs):
        dual = outs["dual_cloud"]
        return [("sampled particles one step on",
                 cloud_ok(adv, rng.TAG_DUAL_CLOUD, s, BURN_IN + 1, dual_atoms)),
                ("provenance", adv.provenance == (s, BURN_IN + 1, dual.size))]

    return [
        Op("calibration", lambda o: limits.lyapunov_top(pair, n=2000, replicas=512, seed=s),
           calibration_checks),
        Op("dual_cloud", lambda o: stationary.estimate_dual_stationary(
            pair, burn_in=BURN_IN, particles=PARTICLES, seed=s), dual_checks),
        Op("primal_cloud", lambda o: stationary.estimate_stationary(
            pair, burn_in=BURN_IN, particles=PRIMAL, seed=s + 1), primal_checks),
        Op("residual", lambda o: stationary.cohomological_residual(
            pair, mw.PsiFunction(o["dual_cloud"]), o["calibration"].lambda1, xs),
           lambda r, o: residual_checks(r, o, "dual_cloud")),
        Op("direct_variance", lambda o: (lambda rep: (rep, limits.variance_estimate(rep)))(
            limits.clt_experiment(pair, x=e1, n=2000, samples=SAMPLES, seed=s + 2)),
           direct_checks),
        Op("corrector_variance", lambda o: limits.variance_via_corrector(
            pair, mw.PsiFunction(o["dual_cloud"]), o["calibration"].lambda1,
            o["primal_cloud"])),
        Op("advance", lambda o: stationary.advance_cloud(pair, o["dual_cloud"], 1),
           advance_checks),
        Op("advanced_residual", lambda o: stationary.cohomological_residual(
            pair, mw.PsiFunction(o["advance"]), o["calibration"].lambda1, xs),
           lambda r, o: residual_checks(r, o, "advance")),
    ]


def pooled_residual(pair, seed, rounds, cloud_key):
    """Mean |residual| at round 0's test points of the pooled clouds, by direct sums."""
    cloud = pooled_values(rounds, cloud_key, lambda c: c.reps)
    rate = float(np.mean([r["calibration"].lambda1 for r in rounds]))
    x_rows = ref.canonical(test_points(seed))
    return float(np.abs(ref.residual(pair.atoms, pair.weights, cloud, rate, x_rows)).mean())


def _corrector_pooled(seeds, rounds):
    pair = mw.free_semigroup_pair()

    def agree(r):
        direct, via = r["direct_variance"][1], r["corrector_variance"]
        return abs(direct.value - via.value) <= 3.0 * (direct.ci_halfwidth + via.ci_halfwidth)

    return [
        ("dual cloud: mean |residual| <= 0.02",
         pooled_residual(pair, seeds[0], rounds, "dual_cloud") <= 0.02),
        ("advanced cloud: mean |residual| <= 0.02",
         pooled_residual(pair, seeds[0], rounds, "advance") <= 0.02),
        ("variance routes agree", all(agree(r) for r in rounds)),
    ]


# --- long trajectories and narrow walks (part of fluctuation) --------------

LIL_STEPS = 200_000
WALK_SCHEDULE = [2**k for k in range(4, 12)]
TRAJECTORY_OFFSET = 10       # seed offset of these operations within a fluctuation round


def _trajectory_ops(s, inp):
    pair = inp["pair"]
    e1 = mw.ProjectivePoint([1.0, 0.0])
    singles = [mw.GeneratorMeasure.from_atoms([g]) for g in
               np.random.default_rng(s).normal(size=(10, 3, 3))]

    def narrow_checks(est, _):
        return [("rate in (0, log max norm]", 0.0 < est.lambda1 <= GOLDEN_LOG)]

    def lil_checks(rep, _):
        word = ref.words(s, rng.TAG_WALK, [0], LIL_STEPS, pair.weights)[0]
        want = ref.trajectory_sums(pair.atoms, word, e1.rep)[rep.checkpoints - 1]
        return [("running sums at every checkpoint", close(lil_sums(rep), want))]

    def power_checks(ests, _):
        ok = []
        for mu, est in zip(singles, ests):
            g = mu.atoms[0]
            vecs = np.linalg.eig(g)[1]
            slack = math.log(np.linalg.cond(vecs)) / 2000 + 1e-9
            gap = est.lambda1 - ref.log_spectral_radius(g)
            ok.append(-1e-9 <= gap <= slack)
        return [("log rho <= rate <= log rho + log cond(V) / n", all(ok))]

    def sums_checks(sums, _):
        idx = sampled(s + 2, 64)
        w = ref.words(s + 2, rng.TAG_MARTINGALE, idx, WALK_SCHEDULE[-1], pair.weights)
        want = ref.centered_walk_sums(pair.atoms, pair.weights, w, e1.rep, WALK_SCHEDULE)
        return [("sampled replicas", close(sums[idx], want))]

    stream = martingales.DifferenceStream(kind="walk_induced", seed=s + 2, measure=pair,
                                          start=e1)
    return [
        Op("lyapunov_narrow", lambda o: limits.lyapunov_top(
            pair, n=20_000, replicas=4, seed=s + 1), narrow_checks),
        Op("lil", lambda o: limits.lil_diagnostic(
            pair, e1, LIL_STEPS, s, lambda1=o["lyapunov_narrow"].lambda1, phi=PLANAR_PHI),
           lil_checks),
        Op("power_walks", lambda o: [limits.lyapunov_top(mu, n=2000, replicas=1, seed=s + 3)
                                     for mu in singles], power_checks),
        Op("walk_sums", lambda o: martingales.checkpoint_sums(stream, WALK_SCHEDULE, 64),
           sums_checks),
    ]


def lil_sums(rep):
    """The running sums ``S_n`` at the report's checkpoints."""
    ns = rep.checkpoints.astype(float)
    scale = np.sqrt(2.0 * rep.phi * ns * np.log(np.log(ns)))
    return rep.normalized_at_checkpoints * scale + ns * rep.lambda1


def _trajectory_pooled(_seeds, rounds):
    def rate_ok(r):
        est = r["lyapunov_narrow"]
        own = 1.96 * math.sqrt(PLANAR_PHI / LIL_STEPS)
        rate = lil_sums(r["lil"])[-1] / LIL_STEPS
        return abs(rate - est.lambda1) <= 3.0 * (est.ci_halfwidth + own)

    sums = np.vstack([r["walk_sums"] for r in rounds])
    se = sums.std(axis=0, ddof=1) / math.sqrt(len(sums))
    return [
        ("S_n / n within 3 combined half-widths of lyapunov_top",
         all(rate_ok(r) for r in rounds)),
        ("walk sums: mean zero within 4 standard errors",
         bool(np.all(np.abs(sums.mean(axis=0)) <= 4.0 * se))),
    ]


# --- cold processes --------------------------------------------------------

def cold_checks(scenario, t1, t2, seed, bundle):
    """Checks of one scenario's artifacts written with --threads 1 (t1) and 2 (t2)."""
    for base in (t1, t2):
        if not (base / "summary.txt").is_file():
            raise FileNotFoundError(f"{scenario}: a cold process left no artifacts")
    csvs = sorted(p.name for p in t1.glob("*.csv"))
    out = [("CSVs present", bool(csvs)),
           ("byte-identical across threads",
            all(filecmp.cmp(t1 / c, t2 / c, shallow=False) for c in csvs))]
    if scenario == "free_semigroup_sl2_clt":
        out.append(("sampled replicas of report.csv",
                    (t1 / "report.csv").is_file() and clt_rows_ok(t1, seed, bundle[scenario])))
    return out


def clt_rows_ok(base, seed, clt):
    """Sampled rows of a CLT scenario's report.csv against the walker."""
    n = clt.schedule["n"]
    values = np.loadtxt(base / "report.csv", delimiter=",", skiprows=1)[:, 1]
    line = next(ln for ln in (base / "summary.txt").read_text().splitlines()
                if ln.startswith("exponent_used:"))
    rate = float(line.split()[1])
    idx = sampled(seed, len(values))
    w = ref.words(seed, rng.TAG_WALK, idx, n, clt.to_measure().weights)
    want = ref.product_log_norms(clt.to_measure().atoms, w)[:, -1]
    return close(values[idx] * math.sqrt(n) + n * rate, want)


def _fluctuation_all_ops(s, inp):
    return _fluctuation_ops(s, inp) + _trajectory_ops(s + TRAJECTORY_OFFSET, inp)


def _fluctuation_all_pooled(seeds, rounds):
    return _fluctuation_pooled(seeds, rounds) + _trajectory_pooled(seeds, rounds)


WORKLOADS = {
    "fluctuation": Workload(
        "fluctuation", 1,
        ("free_semigroup_sl2_clt", "cartan_sl3_clt", "example_nongaussian",
         "large_deviation_sl2", "lil_scalar", "azuma_coinflip"),
        _fluctuation_all_ops, _fluctuation_all_pooled),
    "corrector": Workload(
        "corrector", len(os.sched_getaffinity(0)),
        ("cohomological_residual_sl2", "log_regularity_sl2", "lyapunov_free_semigroup",
         "baum_katz_counterexample", "brown_triangular_gaussian"),
        _corrector_ops, _corrector_pooled),
}
