"""One cold matwalk process, started the way a user starts one.

    python3 bench/cold.py WORKLOAD SCENARIO OUT_DIR SEED THREADS [--trace]

Imports matwalk, builds the workload's measures and the bundled scenario
configs, prints ``ready`` and one reading of ``pace.pace_s`` (the parent
reads set-up time off that line), then runs the bundled scenario through the
command line entry point ``matwalk.cli.main(["run-builtin", ...])``, and
writes a second reading as the last line of standard error.  With
``--trace`` the scenario runs through ``runner.run_scenario`` under the
tracer instead, and the last line of output is the tracer's record as
JSON.
"""

import sys
import time

t0 = time.perf_counter()
loaded = len(sys.modules)
import matwalk  # noqa: E402
import_s = time.perf_counter() - t0
modules = len(sys.modules) - loaded

import json  # noqa: E402

import workloads  # noqa: E402
from matwalk import cli, runner  # noqa: E402
from pace import pace_s  # noqa: E402


def main(argv):
    workload, scenario, out_dir, seed, threads = argv[:5]
    trace = "--trace" in argv[5:]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())
        tracer.imports_s.append(import_s)
        tracer.modules.append(modules)
    inputs = workloads.build_inputs(workload)
    print(f"ready {pace_s()!r}", flush=True)
    if not trace:
        code = cli.main(["run-builtin", scenario, "--out", out_dir, "--seed", seed,
                         "--threads", threads])
    else:
        runner.run_scenario(inputs["bundle"][scenario], out_dir=out_dir, seed=int(seed),
                            threads=int(threads))
        tracer.uninstall()
        print(json.dumps(tracer.dump()))
        code = 0
    print(f"pace {pace_s()!r}", file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
