"""Correctness checks on workload outputs.

Each check returns a list of failure messages; an empty list means the
output passed. A benchmark iteration that misses any check counts as
failed. The tolerances are the acceptance contract of ROADMAP.md (norm
drift 1e-9, two-level agreement 1e-3) plus the stored-reference
tolerances derived in make_reference.py.
"""

from __future__ import annotations

import numpy as np

NORM_DRIFT_TOL = 1e-9
TWO_LEVEL_TOL = 1e-3
# analysis.json and the time series are two routes to the same numbers
# (the snapshot round-trips through '%.17g'); they agree to rounding
SERIES_AGREE_TOL = 1e-12
CLOSED_FORM_NORM_TOL = 1e-10
LEVEL_RTOL, LEVEL_ATOL = 1e-9, 1e-12      # hartree
PEAK_RTOL = 1e-7
STATE_RTOL = 1e-6                          # picks the stored reference


def norm_drift(drift: float, tol: float = NORM_DRIFT_TOL) -> list[str]:
    if not drift <= tol:
        return [f"norm drift {drift:.3e} exceeds {tol:.0e}"]
    return []


def two_level(pop_e: np.ndarray, ode_pop_e: np.ndarray,
              tol: float = TWO_LEVEL_TOL) -> list[str]:
    """P_e(t) of the offset pair against the uniform two-level ODE."""
    if len(pop_e) != len(ode_pop_e):
        return [f"{len(pop_e)} recorded steps vs {len(ode_pop_e)} ODE times"]
    err = float(np.max(np.abs(np.asarray(pop_e) - ode_pop_e)))
    if not err <= tol:
        return [f"max |P_e - ODE| {err:.3e} exceeds {tol:.0e}"]
    return []


def analysis_matches_series(report: dict, t_ps: float, pop_g: float,
                            pop_e: float) -> list[str]:
    """analysis.json written by `coldpa analyze` against the last step of
    the propagated time series."""
    fails = []
    got = report["populations"]
    for label, want, have in (("P_g", pop_g, got["g"]),
                              ("P_e", pop_e, got["e"]),
                              ("norm", np.sqrt(pop_g + pop_e), got["norm"])):
        if not abs(have - want) <= SERIES_AGREE_TOL * max(abs(want), 1e-300):
            fails.append(f"analysis.json {label} {have!r} != series {want!r}")
    if not abs(report["t_ps"] - t_ps) <= 1e-9:
        fails.append(f"analysis.json t {report['t_ps']} != series {t_ps}")
    return fails


def same_state(e_above: float, ref: dict) -> list[str]:
    """The drawn collision energy selected the box state the reference
    was computed for."""
    want = ref["e_above"]
    if not abs(e_above - want) <= STATE_RTOL * abs(want):
        return [f"continuum state at {e_above:.6e} hartree above threshold "
                f"has no stored reference (have {want:.6e})"]
    return []


def final_pop_e(pop_e: float, ref: dict) -> list[str]:
    """Final P_e against the stored dt/4 reference."""
    err = abs(pop_e - ref["pop_e_ref"]) / abs(ref["pop_e_ref"])
    if not err <= ref["pop_e_rtol"]:
        return [f"final P_e {pop_e!r} is {err:.2e} off the dt/4 reference "
                f"{ref['pop_e_ref']!r} (rtol {ref['pop_e_rtol']:.1e})"]
    return []


def closed_form_norm(weights: np.ndarray, psi_g: np.ndarray,
                     psi_e_density: np.ndarray, norm0: float) -> list[str]:
    total = float(np.sum(weights * (np.abs(psi_g) ** 2 + psi_e_density)))
    if not abs(total - norm0) <= CLOSED_FORM_NORM_TOL:
        return [f"frozen-nuclei norm {total!r} != initial {norm0!r}"]
    return []


def levels(energies: np.ndarray, stored: list[float],
           channel: str) -> list[str]:
    """Bound-level energies of one channel against the stored table."""
    energies = np.asarray(energies, dtype=float)
    if len(energies) != len(stored):
        return [f"{channel}: {len(energies)} bound levels, "
                f"stored {len(stored)}"]
    ref = np.asarray(stored, dtype=float)
    bad = np.abs(energies - ref) > LEVEL_ATOL + LEVEL_RTOL * np.abs(ref)
    if np.any(bad):
        v = int(np.argmax(bad))
        return [f"{channel} level {v}: {energies[v]!r} != stored {ref[v]!r}"]
    return []


def peaks(found: list[dict], stored: list[dict]) -> list[str]:
    """Predicted momentum peaks (r0, k) against the stored values."""
    if len(found) != len(stored):
        return [f"{len(found)} predicted peaks, stored {len(stored)}"]
    for i, (p, q) in enumerate(zip(found, stored)):
        for key in ("r0", "k"):
            if not abs(p[key] - q[key]) <= PEAK_RTOL * abs(q[key]):
                return [f"peak {i} {key} {p[key]!r} != stored {q[key]!r}"]
    return []
