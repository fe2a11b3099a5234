"""A fixed kernel that measures the host's pace, beside matwalk's own work.

The host's speed drops by up to two times for seconds to minutes at a
stretch, unseen by the guest (no steal time; process CPU time equals wall
time), and the drop is larger for code that makes many small numpy calls
than for a tight interpreter loop.  The kernel does half its work in each
kind, as matwalk's walks do, and the benchmark times it beside every timed
operation, reporting each time scaled by ``PACE_NOMINAL_S / pace``: the time
it would take on a host that runs the kernel in ``PACE_NOMINAL_S``.  The
kernel does not touch matwalk, so a change to matwalk moves the scaled time
in proportion.
"""

import time

LOOP_ITERATIONS = 60_000     # integer multiply-adds in the interpreter
CALL_ITERATIONS = 1_200      # 2x2 products and renormalisations through numpy
PACE_NOMINAL_S = 0.0070      # pace_s() on a calm host (2-vCPU VM, Python 3.11.7)


def pace_s():
    """Seconds the kernel takes now."""
    import numpy as np      # here, so that importing this module leaves BLAS unset

    rotation = np.array([[0.8, -0.6], [0.6, 0.8]])
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i
    x = np.array([1.0, 0.0])
    for _ in range(CALL_ITERATIONS):
        x = rotation @ x
        x = x / np.linalg.norm(x)
    return time.perf_counter() - t0


def paced(seconds, pace):
    """``seconds`` measured while the kernel took ``pace``, on the nominal host."""
    return seconds * PACE_NOMINAL_S / pace
