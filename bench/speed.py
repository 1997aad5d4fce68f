"""Reference work timed on the CLI child's core while the child runs.

The reference machine's cores change speed by up to 2x within seconds (other
tenants' load), and the two cores drift independently, so a wall time taken
alone spreads by up to 28 % between runs.  The harness and the child are pinned
to one core; every ``INTERVAL_S`` the harness wakes, runs a fixed burst of
small numpy operations shaped like dual SGD steps, and records the burst's
CPU time.  The scheduler interleaves the bursts with the child, so they
sample the speed the child saw.  The child's CPU time divided by the mean
CPU time of one reference step is then the child's work in reference steps,
which holds still while the core's speed moves (spread 2-8 % over ten runs
where the raw wall time spread 5-28 %).  The bursts take about 3 % of the core.

``setup_s`` must be in seconds, so the ``--help`` CPU time is rescaled from
the measured step time to the fixed ``REFERENCE_STEP_S``.
"""

from __future__ import annotations

import time

STEPS_PER_BURST = 40
INTERVAL_S = 0.05
# One reference step's CPU time on a core of the reference machine at its
# usual speed (it measured 35-45 us); ``setup_s`` is rescaled to it.
REFERENCE_STEP_S = 40e-6


class SpeedProbe:
    def __init__(self):
        import numpy

        self._np = numpy
        self._rng = numpy.random.default_rng(0)
        self._costs = self._rng.random((60, 20, 2))
        self._prices = numpy.zeros(20)
        self.cpu_s = 0.0
        self.steps = 0

    def burst(self):
        np, rng = self._np, self._rng
        start = time.thread_time()
        for _ in range(STEPS_PER_BURST):
            cells = self._costs[rng.integers(0, 60, size=100)] - self._prices[None, :, None]
            best = cells.reshape(100, -1).argmax(axis=1)
            self._prices -= 0.01 * (np.bincount(best // 2, minlength=20) / 100.0 - 0.05)
        self.cpu_s += time.thread_time() - start
        self.steps += STEPS_PER_BURST

    def step_s(self):
        """Mean CPU seconds of one reference step (at least one burst runs)."""
        if not self.steps:
            self.burst()
        return self.cpu_s / self.steps
