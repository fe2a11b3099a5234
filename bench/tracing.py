"""Per-layer spans and counters recorded around matwalk's public functions.

The tracer replaces every binding of a traced function in the loaded
``matwalk`` modules (``limits.walks.vector_walk``, ``runner.clt_experiment``,
...) by a wrapper, so it sees the calls the program itself makes through
those names.  A span's self time is its duration minus the spans it
encloses; a layer's self time is the sum over its spans.  Spans are kept per
thread; the traced run sets the program to one thread so that self times
add up to the wall time.
"""

import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)     # span key -> self seconds
        self.total_s = defaultdict(float)    # span key -> inclusive seconds
        self.counts = Counter()
        self.spans = 0
        self.paused = False
        self.imports_s = []                  # import time of each traced cold process
        self.modules = []                    # modules each of those imports loaded
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, key):
        return any(frame[0] == key for frame in self._stack())

    def span(self, key, fn, count=None):
        """``fn`` wrapped in a span; ``count(args, kwargs, result)`` adds counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                tracer.spans += 1
                tracer.total_s[key] += dur
                tracer.self_s[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, fn, key, count=None):
        """Rebind every module-level name in ``matwalk`` that refers to ``fn``."""
        wrapper = self.span(key, fn, count)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "matwalk" or name.startswith("matwalk.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))

    def wrap_method(self, cls, attr, key, count=None):
        fn = getattr(cls, attr)
        setattr(cls, attr, self.span(key, fn, count))
        self._restore.append((cls, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def dump(self):
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "counts": dict(self.counts), "spans": self.spans,
                "imports_s": self.imports_s, "modules": self.modules}

    def merge(self, data):
        """Add the record of a traced child process (see ``dump``)."""
        for key, value in data["self_s"].items():
            self.self_s[key] += value
        for key, value in data["total_s"].items():
            self.total_s[key] += value
        self.counts.update(data["counts"])
        self.spans += data["spans"]
        self.imports_s += data["imports_s"]
        self.modules += data["modules"]

    def layer_self_s(self, layer, exclude=()):
        return sum(v for k, v in self.self_s.items()
                   if k.split(".")[0] == layer and k not in exclude)


class CountingGenerator:
    """A ``numpy.random.Generator`` whose draws are rng spans and counted."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def count(args, kwargs, result):
            self._tracer.counts["rng.uniforms"] += int(np.size(result))

        return self._tracer.span("rng.draw", attr, count)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def install(tracer):
    """Wrap the traced functions of every layer; returns the tracer."""
    from matwalk import (
        limits, martingales, reports, rng, runner, scenarios, stationary, stats, walks,
    )

    c = tracer.counts

    def uniforms(args, kwargs, _):
        replicas, count = _arg(args, kwargs, 2, "replicas"), _arg(args, kwargs, 3, "count")
        c["rng.streams"] += replicas
        c["rng.uniforms"] += replicas * count
        if tracer.inside("stationary.advance_cloud"):
            c["stationary.advance_uniforms"] += replicas * count

    tracer.wrap(rng.replica_uniforms, "rng.replica_uniforms", uniforms)
    tracer.wrap(rng.replica_words, "rng.replica_words")
    tracer.wrap(rng.indices_from_uniforms, "rng.indices_from_uniforms")
    raw_stream = tracer.span("rng.stream", rng.stream)

    def stream(*args, **kwargs):
        c["rng.streams"] += 1
        return CountingGenerator(raw_stream(*args, **kwargs), tracer)

    stream.__wrapped__ = rng.stream
    tracer._restore.append((rng, "stream", rng.stream))
    rng.stream = stream   # every caller reads it as ``rng.stream``

    def vector_steps(args, kwargs, _):
        steps = _arg(args, kwargs, 3, "n") * _arg(args, kwargs, 4, "replicas")
        c["walks.replica_steps"] += steps
        c["walks.vector.replica_steps"] += steps

    def matrix_steps(args, kwargs, _):
        sets = _arg(args, kwargs, 0, "atom_sets")
        steps = _arg(args, kwargs, 2, "n") * _arg(args, kwargs, 3, "replicas") * len(sets)
        c["walks.replica_steps"] += steps
        c["walks.matrix.replica_steps"] += steps

    def trajectory_steps(args, kwargs, _):
        c["walks.trajectory.steps"] += _arg(args, kwargs, 3, "n_max")

    tracer.wrap(walks.vector_walk, "walks.vector_walk", vector_steps)
    tracer.wrap(walks.matrix_walk_log_norms, "walks.matrix_walk_log_norms", matrix_steps)
    tracer.wrap(walks.trajectory_cocycle, "walks.trajectory_cocycle", trajectory_steps)
    tracer.wrap(walks.cloud_walk, "walks.cloud_walk")
    tracer.wrap(walks.rescale_interval, "walks.rescale_interval")

    def pairings(args, kwargs, _):
        psi, rows = args[0], args[1]
        c["stationary.psi_calls"] += 1
        c["stationary.pairings"] += len(rows) * psi.dual_cloud.size

    tracer.wrap(stationary.psi_eval_many, "stationary.psi_eval_many", pairings)
    for name in ("estimate_stationary", "estimate_dual_stationary", "advance_cloud",
                 "cohomological_residual", "log_regularity_integral", "start_cloud",
                 "canonicalize_rows"):
        tracer.wrap(getattr(stationary, name), f"stationary.{name}")

    for name in ("lyapunov_top", "lyapunov_pair", "clt_experiment", "multidim_clt_cartan",
                 "large_deviation_curve", "lil_diagnostic", "variance_estimate",
                 "variance_via_corrector", "wedge_square_measure"):
        tracer.wrap(getattr(limits, name), f"limits.{name}")

    def ranked(args, kwargs, _):
        c["stats.points_ranked"] += len(args[0])

    def ranked_two(args, kwargs, _):
        c["stats.points_ranked"] += len(args[0]) + len(args[1])

    tracer.wrap(stats.ks_statistic, "stats.ks_statistic", ranked)
    tracer.wrap(stats.ks_two_sample, "stats.ks_two_sample", ranked_two)
    for name in ("covariance_fit", "gaussian_cdf", "folded_gaussian_cdf",
                 "mean_ci_halfwidth", "variance_ci_halfwidth", "binomial_ci_halfwidth"):
        tracer.wrap(getattr(stats, name), f"stats.{name}")

    def walk_steps(args, kwargs, _):
        stream_, schedule, replicas = args[0], list(args[1]), args[2]
        if stream_.kind == "walk_induced":
            c["martingales.walk_replica_steps"] += replicas * schedule[-1]

    tracer.wrap(martingales.checkpoint_sums, "martingales.checkpoint_sums", walk_steps)
    for name in ("_walk_checkpoint_sums", "azuma_check", "baum_katz_sums",
                 "brown_triangular_check"):
        tracer.wrap(getattr(martingales, name), f"martingales.{name}")

    def written(args, kwargs, _):
        c["reports.bytes_written"] += os.path.getsize(args[0])

    def written_cloud(args, kwargs, _):
        c["reports.bytes_written"] += os.path.getsize(args[1])

    for name in ("write_csv", "write_summary", "svg_histogram"):
        tracer.wrap(getattr(reports, name), f"reports.{name}", written)
    tracer.wrap_method(stationary.EmpiricalMeasure, "to_csv", "reports.cloud_csv", written_cloud)

    for name in ("bundled_scenarios", "load_config", "validate_config"):
        tracer.wrap(getattr(scenarios, name), f"scenarios.{name}")
    tracer.wrap_method(scenarios.ScenarioConfig, "to_measure", "scenarios.to_measure")
    tracer.wrap(runner.run_scenario, "runner.run_scenario")
    return tracer


def span_cost_s(reps=20000):
    """Seconds one span adds to a call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.span("x.noop", noop)
    best = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best.append(time.perf_counter() - t0)
    return max(best[1] - best[0], 0.0) / reps


def layer_metrics(tracer):
    """The per-layer metric values recorded by ``tracer`` (times in seconds)."""
    c = tracer.counts
    s = tracer.self_s

    def per(num, den, scale=1e9):
        return num / den * scale if den else 0.0

    rng_s = tracer.layer_self_s("rng")
    psi_s = tracer.total_s["stationary.psi_eval_many"]
    return {
        "rng.busy_s": rng_s,
        "rng.streams": c["rng.streams"],
        "rng.uniforms": c["rng.uniforms"],
        "rng.ns_per_uniform": per(rng_s, c["rng.uniforms"]),
        "walks.self_s": tracer.layer_self_s("walks"),
        "walks.replica_steps": c["walks.replica_steps"],
        "walks.vector.ns_per_replica_step": per(s["walks.vector_walk"],
                                                c["walks.vector.replica_steps"]),
        "walks.matrix.ns_per_replica_step": per(s["walks.matrix_walk_log_norms"],
                                                c["walks.matrix.replica_steps"]),
        "walks.trajectory.ns_per_step": per(s["walks.trajectory_cocycle"],
                                            c["walks.trajectory.steps"]),
        "stationary.psi_s": psi_s,
        "stationary.psi_calls": c["stationary.psi_calls"],
        "stationary.pairings": c["stationary.pairings"],
        "stationary.ns_per_pairing": per(psi_s, c["stationary.pairings"]),
        "stationary.advance_s": tracer.total_s["stationary.advance_cloud"],
        "stationary.advance_uniforms": c["stationary.advance_uniforms"],
        "stationary.cloud_self_s": tracer.layer_self_s(
            "stationary", exclude=("stationary.psi_eval_many", "stationary.advance_cloud")),
        "limits.self_s": tracer.layer_self_s("limits"),
        "martingales.self_s": tracer.layer_self_s("martingales"),
        "martingales.walk_replica_steps": c["martingales.walk_replica_steps"],
        "stats.busy_s": tracer.layer_self_s("stats"),
        "stats.points_ranked": c["stats.points_ranked"],
        "reports.busy_s": tracer.layer_self_s("reports"),
        "reports.bytes_written": c["reports.bytes_written"],
        "scenarios.build_s": tracer.layer_self_s("scenarios"),
        "runner.self_s": tracer.layer_self_s("runner"),
    }
