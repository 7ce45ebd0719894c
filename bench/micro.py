"""Microbenchmarks of single public functions, run in a fresh process:

    PYTHONPATH=src python3 bench/micro.py

Prints one JSON object: per-call medians in ms, keyed by metric name, and
the single-threaded FFT baseline behind ``spectral.fft.parallel_eff``.
Inputs are the Gaussian pair (0.8, 0.6) of the evolve64 workload.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np
from scipy import fft as sfft

from nls2lab.dynamics import (
    DiagnosticSeries,
    SolverConfig,
    State,
    linear_step,
    nonlinear_substep,
    strang_step,
)
from nls2lab.spectral import Field, fh_half_norm, make_grid

# (n, half_width) of the two grid sizes the workloads use
SIZES = {"n24": (24, 8.0), "n64": (64, 10.0)}
MIN_REPEATS = 3
MIN_SECONDS = 0.3


def per_call_ms(fn) -> float:
    """Median wall time of fn() after one warm-up call."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main():
    nproc = len(os.sched_getaffinity(0))
    metrics, fft_ms_workers1 = {}, {}
    for tag, (n, half_width) in SIZES.items():
        g = make_grid(3, n, half_width)
        u = Field(g, 0.8 * np.exp(-g.r2 / 2))
        v = Field(g, 0.6 * np.exp(-g.r2 / 2))
        state = State(u, v, 0.0)
        later = State(u, v, 0.05)  # records after t = 0 take the x_norm path
        cfg = SolverConfig(dt=1e-3, t_end=1.0)

        def roundtrip(workers, x=u.values):
            return sfft.ifftn(sfft.fftn(x, workers=workers), workers=workers)

        t_default = per_call_ms(lambda: roundtrip(-1))
        t_one = per_call_ms(lambda: roundtrip(1))
        fft_ms_workers1[tag] = t_one
        metrics[f"spectral.fft.roundtrip_ms.{tag}"] = t_default
        metrics[f"spectral.fft.parallel_eff.{tag}"] = t_one / (nproc * t_default)
        metrics[f"dynamics.linear_step.ms.{tag}"] = per_call_ms(lambda: linear_step(u, cfg.dt / 2, 1.0))
        metrics[f"dynamics.nonlinear_substep.ms.{tag}"] = per_call_ms(
            lambda: nonlinear_substep(state, cfg.dt)
        )
        metrics[f"dynamics.strang_step.ms.{tag}"] = per_call_ms(lambda: strang_step(state, cfg))
        metrics[f"dynamics.series_append.ms.{tag}"] = per_call_ms(
            lambda: DiagnosticSeries().append(later)
        )
        if tag == "n64":
            metrics[f"spectral.fh_half_norm.ms.{tag}"] = per_call_ms(lambda: fh_half_norm(u))
    print(json.dumps({"metrics": metrics, "fft_roundtrip_ms_workers1": fft_ms_workers1}))


if __name__ == "__main__":
    main()
