"""Run one benchmark workload of matwalk and print its metrics.

    python3 bench/run.py --workload corrector --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (``src/matwalk`` beside ``bench/``).
Rounds of the workload's operations repeat until ``--seconds`` of measured
time are used up (at least ``workloads.POOLED_ROUNDS`` rounds; a round that
would end past the limit is not started).  Every operation is timed on its
own and paced by the kernel of ``pace.py`` read around it; ``wall_s`` is the
sum over operations of their median paced time.  Cold processes, each a
fresh interpreter that imports matwalk, builds the workload's inputs and
runs a bundled scenario, run every scenario of the workload with
``--threads 1`` before the rounds and with ``--threads 2`` after them;
``setup_s`` and ``scenario_p50_s`` are medians of their paced times.  The
outputs of the first rounds are checked after the round that made them, and
the statistical checks run on those rounds pooled.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from pace import pace_s, paced

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 60         # a cold process takes a few seconds
COLD_BATCHES = (1, 2)        # --threads of the cold processes before and after the rounds

# One BLAS thread in this process and every process it starts; numpy reads
# these when it is first imported, so they are set before any import of it.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Cold:
    setup_s: float        # start to "ready": interpreter, import, inputs built
    wall_s: float         # start to exit
    stdout: str
    pace_s: float         # mean of the process's own two pace_s() readings


class ColdFailure(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # cold processes read the cached bytecode
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn_cold(workload, scenario, out_dir, seed, threads, trace):
    """Start one cold process, time it from the outside, wait for its end."""
    cmd = [sys.executable, str(BENCH / "cold.py"), workload, scenario, str(out_dir),
           str(seed), str(threads)] + (["--trace"] if trace else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest, err = proc.communicate()
        t_end = time.perf_counter()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not first.startswith("ready "):
        raise ColdFailure(f"cold process {scenario} (threads {threads}) exited "
                          f"{proc.returncode}:\n{err}")
    # the process reads the kernel after set-up and before its exit; its time is taken out
    before = float(first.split()[1])
    after = float(err.strip().splitlines()[-1].split()[1])
    return Cold(t_ready - t0 - before, t_end - t0 - before - after, rest,
                (before + after) / 2)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def host_probe_s():
    """Median time of a fixed numpy kernel that does not touch matwalk."""
    import numpy as np

    a = np.random.default_rng(0).random((400, 400))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(20):
            b = a @ a
        np.sort(np.random.default_rng(1).random(1_000_000) + b[0, 0])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    def __init__(self, workload, seed, seconds, tracer):
        import workloads

        self.wl = workloads.WORKLOADS[workload]
        self.seed, self.seconds, self.tracer = seed, seconds, tracer
        self.attempted = self.failed = 0
        self.correct = True
        self.cold = {}                   # (scenario, batch) -> Cold
        self.rss_mb = 0.0
        self.paces = []                  # every pace_s() reading of this process
        self.out = OUT / f"{workload}-{os.getpid()}"

    def cold_dir(self, scenario, batch):
        return self.out / f"{scenario}_b{batch}"

    def spawn(self, scenario, batch):
        """One cold process; traced runs keep the program on one thread."""
        trace = self.tracer is not None
        threads = 1 if trace else COLD_BATCHES[batch]
        res = spawn_cold(self.wl.name, scenario, self.cold_dir(scenario, batch), self.seed,
                         threads, trace)
        self.cold[scenario, batch] = res
        if trace:
            self.tracer.merge(json.loads(res.stdout.strip().splitlines()[-1]))
        return res

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return False, None

    def pace(self):
        value = pace_s()
        self.paces.append(value)
        return value

    def cold_batch(self, batch):
        for scenario in self.wl.scenarios:
            self.attempt(self.spawn, scenario, batch)

    def execute(self):
        """Run the rounds; returns each operation's paced times, one per round."""
        import workloads

        from matwalk import walks

        walks.set_thread_count(1 if self.tracer else self.wl.threads)
        inputs = workloads.build_inputs(self.wl.name)
        self.cold_batch(0)
        op_times = {}
        pooled_seeds, pooled_rounds = [], []
        measured = 0.0
        k = 0
        while True:
            seed = workloads.round_seed(self.seed, k)
            ops = self.wl.ops(seed, inputs)
            outputs, raw = {}, []
            before = self.pace()
            for op in ops:
                t0 = time.perf_counter()
                ok, value = self.attempt(op.run, outputs)
                elapsed = time.perf_counter() - t0
                after = self.pace()
                op_times.setdefault(op.name, []).append(paced(elapsed, (before + after) / 2))
                before = after
                measured += elapsed
                raw.append(f"{op.name}={elapsed:.3f}")
                if ok:
                    outputs[op.name] = value
            sys.stderr.write(f"round {k} (raw s, pace {self.paces[-1] * 1e3:.2f} ms): "
                             + " ".join(raw) + "\n")
            self.rss_mb = max(self.rss_mb, peak_rss_mb())
            if k < workloads.POOLED_ROUNDS:
                self.check_round(ops, outputs)
                if len(outputs) == len(ops):
                    pooled_seeds.append(seed)
                    pooled_rounds.append(outputs)
            if k == workloads.POOLED_ROUNDS - 1 and len(pooled_rounds) == k + 1:
                # statistical checks speak only of rounds whose operations all ran
                self.report("pooled", self.guarded(self.wl.pooled, pooled_seeds, pooled_rounds))
            k += 1
            if k >= workloads.POOLED_ROUNDS and measured * (k + 1) / k > self.seconds:
                break
        self.cold_batch(1)
        self.rss_mb = max(self.rss_mb, peak_rss_mb())
        for scenario in self.wl.scenarios:
            if (scenario, 0) in self.cold and (scenario, 1) in self.cold:
                self.report(scenario, self.guarded(
                    workloads.cold_checks, scenario, self.cold_dir(scenario, 0),
                    self.cold_dir(scenario, 1), self.seed, inputs["bundle"]))
        return op_times

    def guarded(self, checks, *args):
        """The checks' verdicts, untraced; a check that raises fails."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            return checks(*args)
        except Exception:
            traceback.print_exc()
            return [("check raised", False)]
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def report(self, name, results):
        for label, ok in results:
            if not ok:
                self.correct = False
                sys.stderr.write(f"check failed: {name}: {label}\n")

    def check_round(self, ops, outputs):
        for op in ops:
            if op.name in outputs and op.checks is not None:
                self.report(op.name, self.guarded(op.checks, outputs[op.name], outputs))


def end_to_end(run, op_times):
    colds = run.cold.values()
    metrics = {
        "wall_s": (sum(statistics.median(times) for times in op_times.values()), "s"),
        "setup_s": (statistics.median(paced(c.setup_s, c.pace_s) for c in colds), "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
        "scenario_p50_s": (statistics.median(paced(c.wall_s, c.pace_s) for c in colds), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(tracer, run):
    import tracing

    layers = tracing.layer_metrics(tracer)
    layers["import.matwalk_s"] = statistics.median(tracer.imports_s)
    layers["import.modules"] = statistics.median(tracer.modules)
    layers["host.probe_s"] = host_probe_s()
    layers["host.pace_s"] = statistics.median(run.paces)
    layers["trace.overhead_s"] = tracer.spans * tracing.span_cost_s()
    return {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name == "reports.bytes_written":
        return "bytes"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matwalk" / "__init__.py").is_file():
        print(f"error: no matwalk sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # a terminated run still stops its cold process and removes its output
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False     # this import fills the bytecode cache
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())
    run = Run(args.workload, args.seed, args.seconds, tracer)
    try:
        op_times = run.execute()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run.out, ignore_errors=True)
    if not run.cold:
        print("error: every cold process failed", file=sys.stderr)
        return 1
    metrics = per_layer(tracer, run) if tracer else end_to_end(run, op_times)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
