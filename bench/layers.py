"""Per-layer numbers of the traced run.

Most come from the spans of the traced iterations (summed per iteration,
median over iterations) and from TimeSeries.meta. The apply_kinetic n
sweep is timed right after each traced iteration. The rest are measured
once after the iterations: single-call costs (one scalar envelope value,
the dense kinetic matrix, the crossing search) and the computed ratios
(bounds_overshoot, kinetic_share_est). None of this is inside a timed
region. A metric whose layer the workload
does not use reads 0.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import eigvalsh
from scipy.sparse.linalg import LinearOperator, eigsh

from coldpa.grids import apply_kinetic, build_grid, kinetic_matrix
from coldpa.potentials import find_crossing

# name -> unit, in report order
PER_LAYER = {
    "config.parse_ms": "ms",
    "config.build_system_ms": "ms",
    "potentials.find_crossing_ms": "ms",
    "potentials.envelope_value_us": "us",
    "grids.build_grid_ms": "ms",
    "grids.kinetic_matrix_s": "s",
    "grids.apply_kinetic_us": "us",
    "grids.apply_kinetic_us.n_minus_1": "us",
    "grids.apply_kinetic_us.n_smooth": "us",
    "grids.fft_len": "count",
    "grids.fft_len_max_prime": "count",
    "grids.to_momentum_ms": "ms",
    "spectrum.continuum_state_s": "s",
    "spectrum.continuum_state_calls": "count",
    "spectrum.solve_levels_s": "s",
    "spectrum.solve_levels_calls": "count",
    "propagation.propagate_s": "s",
    "propagation.steps": "count",
    "propagation.matvecs": "count",
    "propagation.max_order": "count",
    "propagation.ms_per_step": "ms",
    "propagation.us_per_matvec": "us",
    "propagation.bounds_overshoot": "ratio",
    "propagation.kinetic_share_est": "ratio",
    "propagation.norm_drift": "abs",
    "propagation.pop_e_err": "abs",
    "impulsive.predict_k_peaks_ms": "ms",
    "impulsive.evolve_impulsive_ms": "ms",
    "observables.level_populations_ms": "ms",
    "observables.find_momentum_peaks_ms": "ms",
    "observables.detect_hole_ms": "ms",
    "io.save_timeseries_ms": "ms",
    "io.load_state_ms": "ms",
    "io.bytes_written": "bytes",
    "phase.setup_s": "s",
    "phase.solve_s": "s",
    "phase.analyze_s": "s",
    "trace.overhead_s": "s",
}

# metric -> (span name, scale of the per-iteration summed seconds)
_SPAN_TIMES = {
    "config.parse_ms": ("config.parse", 1e3),
    "config.build_system_ms": ("config.build_system", 1e3),
    "grids.build_grid_ms": ("grids.build_grid", 1e3),
    "grids.to_momentum_ms": ("grids.to_momentum", 1e3),
    "spectrum.continuum_state_s": ("spectrum.continuum_state", 1.0),
    "spectrum.solve_levels_s": ("spectrum.solve_levels", 1.0),
    "propagation.propagate_s": ("propagation.propagate", 1.0),
    "impulsive.predict_k_peaks_ms": ("impulsive.predict_k_peaks", 1e3),
    "impulsive.evolve_impulsive_ms": ("impulsive.evolve_impulsive", 1e3),
    "observables.level_populations_ms":
        ("observables.level_populations", 1e3),
    "observables.find_momentum_peaks_ms":
        ("observables.find_momentum_peaks", 1e3),
    "observables.detect_hole_ms": ("observables.detect_hole", 1e3),
    "io.save_timeseries_ms": ("io.save_timeseries", 1e3),
    "io.load_state_ms": ("io.load_state", 1e3),
    "phase.setup_s": ("phase.setup", 1.0),
    "phase.solve_s": ("phase.solve", 1.0),
    "phase.analyze_s": ("phase.analyze", 1.0),
}
_SPAN_CALLS = {
    "spectrum.continuum_state_calls": "spectrum.continuum_state",
    "spectrum.solve_levels_calls": "spectrum.solve_levels",
}

# above this the coupled H is probed by Lanczos instead of a dense solve
DENSE_MAX_N = 512


def _median_s(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def max_prime_factor(m: int) -> int:
    best, p = 1, 2
    while p * p <= m:
        while m % p == 0:
            best, m = p, m // p
        p += 1
    return max(best, m)


def nearest_smooth_n(n: int) -> int:
    """Nearest grid size whose kinetic FFT length 2(n+1) is 5-smooth
    (the smaller one on a tie)."""
    for d in range(n):
        for c in (n - d, n + d):
            if c >= 8 and max_prime_factor(2 * (c + 1)) <= 5:
                return c
    raise ValueError(f"no 5-smooth size near {n}")


def apply_kinetic_sweep(system, grid, cfg, rounds=6, block=10) -> dict:
    """One apply_kinetic on an (n, 2) complex channel pair, as the
    propagator applies it, at the workload's n, at n - 1 and at the
    nearest n with 5-smooth 2(n+1). The sizes take turns in blocks of
    consecutive calls: within a block the caches are as warm as in the
    propagator's loop, and taking turns makes a drift in machine speed
    during the measurement hit all sizes alike."""
    sizes = {"": grid.n, ".n_minus_1": grid.n - 1,
             ".n_smooth": nearest_smooth_n(grid.n)}
    rng = np.random.default_rng(0)
    cases = {}
    for key, n in sizes.items():
        g = grid if n == grid.n else build_grid(
            system, n, cfg["grid.r_lo"], cfg["grid.r_hi"],
            kind=cfg["grid.mapping"], beta=cfg["grid.beta"])
        pair = (rng.standard_normal((n, 2))
                + 1j * rng.standard_normal((n, 2)))
        apply_kinetic(g, pair)
        cases[key] = (g, pair, [])
    for _ in range(rounds):
        for g, pair, times in cases.values():
            for _ in range(block):
                t0 = time.perf_counter()
                apply_kinetic(g, pair)
                times.append(time.perf_counter() - t0)
    return {f"grids.apply_kinetic_us{key}": 1e6 * statistics.median(times)
            for key, (_, _, times) in cases.items()}


def envelope_value_us(envelope, t_end, calls=2000) -> float:
    """One scalar PulseEnvelope.value call, the propagator's per-step
    envelope lookup; median over times spread across the pulse."""
    times = []
    for t in np.linspace(0.0, t_end, calls):
        t = float(t)
        t0 = time.perf_counter()
        envelope.value(t)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def bounds_overshoot(system, grid, meta) -> float:
    """Declared Chebyshev span (e_hi - e_lo) over the measured extremal
    span of the coupled H at peak coupling, with the potentials capped as
    the propagator caps them. The kinetic matrix is the phi
    representation, which is similar to the operator the propagator
    applies, so both have the same spectrum."""
    n = grid.n
    cap = meta["v_cap"]
    vg = np.minimum(system.ground.value(grid.r), cap)
    ve = np.minimum(system.excited.value(grid.r), cap)
    w = system.coupling * system.envelope.flat_value
    t = kinetic_matrix(grid)
    if n <= DENSE_MAX_N:
        h = np.zeros((2 * n, 2 * n))
        h[:n, :n] = t + np.diag(vg)
        h[n:, n:] = t + np.diag(ve)
        h[:n, n:] = h[n:, :n] = w * np.eye(n)
        ev = eigvalsh(h)
        lo, hi = float(ev[0]), float(ev[-1])
    else:
        def matvec(x):
            x = np.ravel(x)
            g, e = x[:n], x[n:]
            return np.concatenate([t @ g + vg * g + w * e,
                                   t @ e + ve * e + w * g])

        op = LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=float)
        v0 = np.ones(2 * n)
        hi = float(eigsh(op, k=1, which="LA", v0=v0, tol=1e-8,
                         return_eigenvectors=False)[0])
        lo = float(eigsh(op, k=1, which="SA", v0=v0, tol=1e-8,
                         return_eigenvectors=False)[0])
    return (meta["e_hi"] - meta["e_lo"]) / (hi - lo)


def from_iteration(wl, st, totals) -> dict:
    """Per-layer values of one traced iteration."""
    out = {}
    for name, (span, scale) in _SPAN_TIMES.items():
        out[name] = totals.get(span, (0.0, 0))[0] * scale
    for name, span in _SPAN_CALLS.items():
        out[name] = totals.get(span, (0.0, 0))[1]
    if wl.propagates:
        s = st["series"]
        steps = len(s.t) - 1
        prop_s = out["propagation.propagate_s"]
        out.update({
            "propagation.steps": steps,
            "propagation.matvecs": s.meta["matvecs"],
            "propagation.max_order": s.meta["max_order"],
            "propagation.ms_per_step": 1e3 * prop_s / steps,
            "propagation.us_per_matvec": 1e6 * prop_s / s.meta["matvecs"],
            "propagation.norm_drift": s.norm_drift(),
            "propagation.pop_e_err": wl.pop_e_err(st),
        })
    if wl.fft_kinetic:
        # measured right after the iteration, close in time to the
        # propagation that kinetic_share_est compares it with
        out.update(apply_kinetic_sweep(st["system"], st["grid"], st["cfg"]))
        if wl.propagates:
            out["propagation.kinetic_share_est"] = (
                out["propagation.matvecs"]
                * out["grids.apply_kinetic_us"] * 1e-6
                / out["phase.solve_s"])
    return out


def single_calls(wl, keep) -> dict:
    """Single-call costs and bounds_overshoot, after the timed
    iterations. ``keep`` holds the cfg, system, grid and meta of the last
    traced iteration."""
    cfg, system, grid = keep["cfg"], keep["system"], keep["grid"]
    out = {"grids.kinetic_matrix_s":
           _median_s(lambda: kinetic_matrix(grid), 3)}
    if cfg["excited.c_n"] is None:          # the system was calibrated
        out["potentials.find_crossing_ms"] = 1e3 * _median_s(
            lambda: find_crossing(system), 5)
    if wl.propagates:
        out["potentials.envelope_value_us"] = envelope_value_us(
            system.envelope, system.envelope.t_end)
        out["propagation.bounds_overshoot"] = bounds_overshoot(
            system, grid, keep["meta"])
    if wl.fft_kinetic:
        out["grids.fft_len"] = 2 * (grid.n + 1)
        out["grids.fft_len_max_prime"] = max_prime_factor(2 * (grid.n + 1))
    return out


def assemble(wl, traced, untraced, keep) -> dict:
    """Every PER_LAYER metric: medians over the traced iterations, the
    single-call block, and the tracing overhead against the untraced
    iterations of the same run."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        got = [rec["layers"][name] for rec in traced
               if name in rec["layers"]]
        if got:
            values[name] = statistics.median(got)
    values["io.bytes_written"] = statistics.median(r["bytes"] for r in traced)
    values.update(single_calls(wl, keep))
    values["trace.overhead_s"] = (
        statistics.median(r["total_s"] for r in traced)
        - statistics.median(r["total_s"] for r in untraced))
    return values
