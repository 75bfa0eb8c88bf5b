"""The kernel integral's error estimate against mpmath on random gauss bumps.

Off-centre bumps inside the window: radius 0.2 to 3.0, N log-uniform from
16 to 6000, tol log-uniform from 1e-13 to 1e-8.  No estimate may read below
the true error, and the worst ratio of true error to estimate must leave a
margin of 10.  Too long for the test suite (3,000 cases take about 6
minutes on 2 vCPUs); run it from the repository root:

    PYTHONPATH=src python tests/estimate_sweep.py [cases] [seed]

It prints the worst ratio and exits 1 on a case that reads low.
"""

import math
import random
import sys

from test_soundness import action_outcome, gauss_kernel_integral, true_error
from zetacomb.testfn import gaussian_bump


def sweep(cases=3000, seed=2011):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(cases):
        radius = rng.uniform(0.2, 3.0)
        center = rng.uniform(radius - math.pi, math.pi - radius)
        N = int(math.exp(rng.uniform(math.log(16), math.log(6000))))
        tol = 10 ** rng.uniform(-13, -8)
        value, estimate, _ = action_outcome(gaussian_bump(center, radius), N, tol)
        error = true_error(value, gauss_kernel_integral(N, center, radius))
        if not error <= estimate:
            print(f"reads low: N={N} center={center!r} radius={radius!r} tol={tol!r}")
            return False
        worst = max(worst, float(error) / estimate)
    print(f"{cases} cases, worst true error / estimate {worst:.3g}")
    return worst <= 0.1


if __name__ == "__main__":
    sys.exit(0 if sweep(*map(int, sys.argv[1:3])) else 1)
