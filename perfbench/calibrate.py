"""Calibration: fixed work timed between ops to track how fast the machine runs now.

On the machine this benchmark was defined on, co-tenants slow the same code
by up to a third for tens of seconds at a time, differently on each CPU, in
CPU time as much as in wall time.  ``run.py`` pins itself to one CPU and
scales each op's wall time by a calibration's nominal time over its measured
time around the op.  The work uses only numpy and scipy, never the package,
so a faster package cannot speed it up.
"""

import math
from time import perf_counter

import numpy as np
from scipy.special import gammaln, ndtr


def imitate_test(x, y, rng) -> None:
    """One small permutation test as the seed package computed it, for calibration.

    Robust standardisation, the normal-CDF map, then per level a grouping of
    points by parent cell, quadrant counts and their log-gamma terms, dropping
    points alone in their cell.  Only the instruction mix matters here.
    """
    def unit(a):
        a = np.asarray(a, dtype=np.float64).copy()
        if not np.all(np.isfinite(a)):
            raise ValueError("calibration input is not finite")
        mid = float(np.median(a))
        return np.clip(ndtr((a - mid) / (1.4826 * float(np.median(np.abs(a - mid))))),
                       1e-15, 1.0 - 1e-15)

    u, v = unit(x), unit(rng.permutation(y))
    for k in range(1, 21):
        ix, iy = (u * 2.0**k).astype(np.int64), (v * 2.0**k).astype(np.int64)
        parents, inverse = np.unique(((iy >> 1) << (k - 1)) | (ix >> 1), return_inverse=True)
        quad = np.bincount(inverse * 4 + ((ix & 1) | ((iy & 1) << 1)),
                           minlength=4 * parents.size).reshape(-1, 4)
        kept = quad[quad.sum(axis=1) >= 2].astype(np.float64)
        if kept.size == 0:
            return
        a = 5.0 * k * k
        (gammaln(kept[:, 0] + kept[:, 2] + 2 * a) + gammaln(kept[:, 1] + kept[:, 3] + 2 * a)
         + gammaln(kept[:, 0] + kept[:, 1] + 2 * a) + gammaln(kept[:, 2] + kept[:, 3] + 2 * a)
         - gammaln(kept.sum(axis=1) + 4 * a) - gammaln(kept + a).sum(axis=1)).sum()
        _, cell, size = np.unique((iy << k) | ix, return_inverse=True, return_counts=True)
        keep = size[cell] >= 2
        u, v = u[keep], v[keep]
        if u.size < 2:
            return


class Calibration:
    """One kind of fixed work, its nominal time, and the times measured in a run.

    ``small`` imitates three permutation tests at n = 150; ``array`` sorts
    and groups 100 000 values.  Each workload uses the kind whose slowdowns
    tracked its ops' most closely.  ``NOMINAL_S`` is each kind's typical time
    on the 2-core machine the benchmark was defined on.
    """

    NOMINAL_S = {"small": 0.0035, "array": 0.006}
    INTERVAL_S = 0.2  # least op time between two calibrations
    REPEATS = 3  # the fastest repeat, so caches an op or a child process left cold do not count

    def __init__(self, kind: str):
        rng = np.random.default_rng(20150602)
        if kind == "small":
            x = rng.standard_normal(150)
            y = x + rng.standard_normal(150)

            def work():
                perm = np.random.default_rng(7)
                for _ in range(3):
                    imitate_test(x, y, perm)
        else:
            codes = rng.integers(0, 2**40, 100_000)
            values = rng.uniform(1.0, 1e4, 20_000)

            def work():
                _, inverse = np.unique(codes, return_inverse=True)
                np.bincount(inverse)
                gammaln(values)

        self.work = work
        self.nominal = self.NOMINAL_S[kind]
        self.history: list[list[float]] = []  # calibration times of each run_ops call
        self.work()  # warm caches before the first timed call

    def __call__(self) -> float:
        best = math.inf
        for _ in range(self.REPEATS):
            t0 = perf_counter()
            self.work()
            best = min(best, perf_counter() - t0)
        return best

    def speed(self, cals: list[float], before: int) -> float:
        """Nominal time over the mean of the calibrations just before and after an op."""
        return self.nominal / (0.5 * (cals[before] + cals[before + 1]))
