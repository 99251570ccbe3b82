"""Command-line front end.

Subcommands mirror the analysis pipeline: calibrate -> spectrum ->
propagate -> analyze, plus the closed-form side channels (impulsive,
times). Every machine-readable output goes through the deterministic
writers in io, so identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys as _sys
import time

import numpy as np
from scipy import fft as sfft

from . import io
from .config import RunConfig
from .errors import (ColdpaError, ConfigError, DimensionError, DomainError,
                     GridMismatchError)
from .grids import TwoChannelState, to_momentum
from .impulsive import evolve_impulsive, predict_k_peaks
# level_populations is no longer called here, but stays importable under
# this module's name, where bench/spans.py wraps it
from .observables import (detect_hole, find_momentum_peaks, level_populations,
                          radius_from_momentum, thermal_yield)
from .potentials import find_crossing, rabi_period
from .propagation import propagate
from .spectrum import bound_populations, solve_levels
from .units import convert, ps2au


def _say(args, *parts):
    if not args.quiet:
        print(*parts)


def _need_out(args):
    if not args.out:
        raise ConfigError(f"{args.command} needs --out DIR")
    return io.make_run_dir(args.out)


# --- subcommand bodies ------------------------------------------------------

def cmd_calibrate(args, cfg: RunConfig):
    system = cfg.build_system()
    rc = find_crossing(system)
    w_cm = convert(system.coupling, "hartree", "cm-1")
    t_rabi_rc = rabi_period(system.coupling * system.envelope.flat_value,
                            0.0) / ps2au
    report = {
        "r_crossing_bohr": rc,
        "excited_cn_au": system.excited.cn,
        "coupling_cm": w_cm,
        "adiabatic_gap_cm": 2.0 * w_cm,
        "t_rabi_crossing_ps": t_rabi_rc,
    }
    _say(args, f"crossing at {rc:.4f} bohr")
    _say(args, f"adiabatic gap 2W = {2 * w_cm:.4f} 1/cm")
    _say(args, f"T_Rabi at the crossing = {t_rabi_rc:.2f} ps")
    if args.out:
        out = _need_out(args)
        io.write_json(os.path.join(out, "calibration.json"), report)
        io.write_manifest(out, "calibrate", cfg.text)
    return 0


def cmd_times(args, cfg: RunConfig):
    system = cfg.build_system()
    w = system.coupling * system.envelope.flat_value
    rows = [("crossing", 0.0, rabi_period(w, 0.0) / ps2au)]
    for d_cm in cfg["analysis.detunings_cm"]:
        d = convert(d_cm, "cm-1", "hartree")
        rows.append((f"detuning_{d_cm:g}", d_cm, rabi_period(w, d) / ps2au))
    delta_l = convert(cfg["system.detuning_cm"], "cm-1", "hartree")
    rows.append(("asymptotic_gap_period", cfg["system.detuning_cm"],
                 2.0 * np.pi / delta_l / ps2au))
    _say(args, f"{'where':<24}{'detuning (1/cm)':>18}{'period (ps)':>14}")
    for name, d_cm, t_ps in rows:
        _say(args, f"{name:<24}{d_cm:>18.4g}{t_ps:>14.2f}")
    if args.out:
        out = _need_out(args)
        io.write_csv(os.path.join(out, "times.csv"),
                     ["where", "detuning_cm", "period_ps"], rows)
        io.write_manifest(out, "times", cfg.text)
    return 0


def _level_rows(curve, levels):
    rel_cm = convert(levels.energies - curve.asymptote, "hartree", "cm-1")
    b_cm = convert(levels.rotational_constants(), "hartree", "cm-1")
    return [(v + levels.first_index, float(e), float(rel), float(b),
             "bound" if e < curve.asymptote else "box-continuum")
            for v, (e, rel, b) in enumerate(zip(levels.energies, rel_cm,
                                                b_cm))]


def cmd_spectrum(args, cfg: RunConfig):
    out = _need_out(args)
    system = cfg.build_system()
    grid = cfg.build_grid(system)
    header = ["v", "energy_hartree", "energy_rel_cm", "b_v_cm", "class"]
    timings = {}
    for name, curve in (("ground", system.ground),
                        ("excited", system.excited)):
        with _phase(timings, f"eigensolve_{name}_s"):
            levels = solve_levels(curve, grid, verify_resolution=args.verify)
        rows = _level_rows(curve, levels)
        del levels          # one channel's states alive at a time
        io.write_csv(os.path.join(out, f"levels_{name}.csv"), header, rows)
        n_bound = sum(1 for r in rows if r[4] == "bound")
        _say(args, f"{name}: {n_bound} bound levels "
                   f"({len(rows)} computed) on n = {grid.n}")
    io.write_manifest(out, "spectrum", cfg.text, extra={"timings": timings})
    return 0


@contextlib.contextmanager
def _phase(timings: dict, name: str):
    """Record the wall seconds of the with-block as timings[name]."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


def cmd_propagate(args, cfg: RunConfig):
    out = _need_out(args)
    timings = {}
    with _phase(timings, "system_s"):
        system = cfg.build_system()
    with _phase(timings, "grid_s"):
        grid = cfg.build_grid(system)
    with _phase(timings, "plan_s"):
        plan = cfg.build_plan()
    # analyze needs the endpoints even if the config forgot to ask
    snaps = set(plan.snapshots) | {plan.t_start, plan.t_end}
    plan = dataclasses.replace(plan, snapshots=tuple(sorted(snaps)))
    with _phase(timings, "initial_s"):
        state, info = cfg.build_initial(system, grid)
    with _phase(timings, "propagate_s"):
        series = propagate(system, grid, plan, state)
    with _phase(timings, "save_s"):
        io.save_grid(os.path.join(out, "grid.csv"), grid)
        io.save_timeseries(out, series)
    io.write_manifest(out, "propagate", cfg.text,
                      extra={"initial": info, "propagation": series.meta,
                             "timings": timings})
    _say(args, f"steps: {len(series.t) - 1}, "
               f"matvecs: {series.meta['matvecs']}, "
               f"max order: {series.meta['max_order']}")
    _say(args, f"final populations: g = {series.pop_g[-1]:.6e}, "
               f"e = {series.pop_e[-1]:.6e}")
    _say(args, f"norm drift: {series.norm_drift():.3e}")
    return 0


def cmd_analyze(args, cfg: RunConfig):
    if not args.run:
        raise ConfigError("analyze needs --run DIR from a propagate run")
    out = _need_out(args)
    system = cfg.build_system()
    grid = cfg.build_grid(system)
    snaps = io.read_json(os.path.join(args.run, "snapshots.json"))
    index = snaps["snapshots"]
    if len(index) < 2:
        raise ConfigError("run directory holds fewer than two snapshots")
    first = io.load_state(os.path.join(args.run, index[0]["file"]), grid,
                          t=index[0]["t_ps"] * ps2au)
    last = io.load_state(os.path.join(args.run, index[-1]["file"]), grid,
                         t=index[-1]["t_ps"] * ps2au)
    manifest = io.read_json(os.path.join(args.run, "manifest.json"))
    info = manifest.get("initial", {})

    av = cfg.values["analysis"]
    report = {
        "t_ps": last.t_ps,
        "populations": {"g": last.population_g(), "e": last.population_e(),
                        "norm": last.norm()},
    }

    rows = []
    timings = {}
    for ch, name, amp, curve in (("g", "ground", last.g, system.ground),
                                 ("e", "excited", last.e, system.excited)):
        with _phase(timings, f"eigensolve_{name}_s"):
            energies, pops = bound_populations(curve, grid, amp)
        for v, (e, p) in enumerate(zip(energies, pops)):
            rows.append((ch, v, float(e), float(p)))
        bound = float(np.sum(pops))
        report[f"bound_fraction_{ch}"] = bound
        report[f"continuum_fraction_{ch}"] = report["populations"][ch] - bound
    io.write_csv(os.path.join(out, "level_populations.csv"),
                 ["channel", "v", "energy_hartree", "population"], rows)

    spec = to_momentum(grid, last.g)
    peaks = find_momentum_peaks(spec, k_min=av["k_min"],
                                floor_sigmas=av["k_floor_sigmas"])
    try:
        rc = find_crossing(system)
    except ColdpaError:
        rc = None       # then each inversion below fails as it would alone
    peak_rows = []
    for p in peaks:
        try:
            r0 = radius_from_momentum(system, p.k, rc=rc)
        except ColdpaError:
            r0 = None
        gap_cm = convert(p.k**2 / (2.0 * system.mu), "hartree", "cm-1")
        peak_rows.append({"k": p.k, "height": p.height,
                          "gap_cm": gap_cm, "r_source_bohr": r0})
    report["momentum_peaks"] = peak_rows
    io.write_csv(os.path.join(out, "momentum_ground.csv"),
                 ["k_au", "abs_amp"],
                 zip(spec.k, np.abs(spec.amp)))

    try:
        hole = detect_hole(grid, first.g, last.g,
                           threshold=av["hole_threshold"],
                           smooth_width=av["hole_smooth"])
        report["hole"] = dataclasses.asdict(hole)
    except DomainError:
        report["hole"] = None

    if info.get("de_dn"):
        ty = thermal_yield(
            p_single=report["bound_fraction_e"],
            temperature_k=av["temperature_mk"] * 1e-3,
            de_dn=info["de_dn"], mu=system.mu,
            volume=convert(av["volume_cm3"], "cm3", "bohr3"),
            n_atoms=av["n_atoms"], spin_factor=av["spin_factor"],
        )
        report["thermal"] = dataclasses.asdict(ty)
    else:
        report["thermal"] = None

    io.write_json(os.path.join(out, "analysis.json"), report)
    io.write_manifest(out, "analyze", cfg.text, extra={"timings": timings})
    _say(args, f"populations at {last.t_ps:.1f} ps: "
               f"g = {report['populations']['g']:.4e}, "
               f"e = {report['populations']['e']:.4e}")
    _say(args, f"bound fraction (e) = {report['bound_fraction_e']:.4e}")
    _say(args, f"momentum peaks: {len(peak_rows)}")
    if report["thermal"]:
        _say(args, f"molecules per pulse = "
                   f"{report['thermal']['n_molecules']:.3e}")
    return 0


def cmd_impulsive(args, cfg: RunConfig):
    out = _need_out(args)
    system = cfg.build_system()
    grid = cfg.build_grid(system)
    state, info = cfg.build_initial(system, grid)
    if info["e_g"] is None:
        raise ConfigError(
            "impulsive analysis needs a stationary initial state "
            "(initial.kind = continuum or level)"
        )
    peaks = predict_k_peaks(system, grid, state.g)
    for t_ps in args.t_ps:
        pred = evolve_impulsive(system, grid, state.g, info["e_g"],
                                t_ps * ps2au)
        tag = f"{t_ps:g}ps"
        io.save_state(os.path.join(out, f"state_ia_{tag}.csv"),
                      TwoChannelState(grid, pred.psi_g,
                                      np.zeros_like(pred.psi_g), pred.t))
        spec = pred.momentum()
        io.write_csv(os.path.join(out, f"momentum_ia_{tag}.csv"),
                     ["k_au", "abs_amp"], zip(spec.k, np.abs(spec.amp)))
    io.write_json(os.path.join(out, "predicted_peaks.json"),
                  io.peaks_to_json(peaks))
    io.write_manifest(out, "impulsive", cfg.text)
    _say(args, f"{'r0 (bohr)':>10}{'k (a.u.)':>10}{'factor':>10}"
               f"{'t_match (ps)':>14}{'valid':>7}")
    for p in peaks:
        t_m = f"{p.t_match_ps:.1f}" if np.isfinite(p.t_match) else "-"
        _say(args, f"{p.r0:>10.2f}{p.k:>10.2f}{p.amplitude_factor:>10.4f}"
                   f"{t_m:>14}{str(p.valid):>7}")
    return 0


# --- wiring -----------------------------------------------------------------

_HANDLERS = {
    "calibrate": cmd_calibrate,
    "times": cmd_times,
    "spectrum": cmd_spectrum,
    "propagate": cmd_propagate,
    "analyze": cmd_analyze,
    "impulsive": cmd_impulsive,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="INI run configuration")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--threads", type=int, default=0,
                        help="FFT worker threads of the kinetic step "
                             "(0 = scipy's default of 1); BLAS threads "
                             "follow the environment at start-up "
                             "(OMP_NUM_THREADS, OPENBLAS_NUM_THREADS)")
    common.add_argument("--quiet", action="store_true")

    p = argparse.ArgumentParser(
        prog="coldpa",
        description="coupled-channel wavepacket dynamics for pulsed "
                    "photoassociation of cold atom pairs",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("calibrate", parents=[common],
                        help="fit the excited tail to a target crossing")
    sp = sub.add_parser("times", parents=[common],
                        help="characteristic-period table")
    sp = sub.add_parser("spectrum", parents=[common],
                        help="channel level tables")
    sp.add_argument("--verify", action="store_true",
                    help="double the grid and check eigenvalue drift")
    sp = sub.add_parser("propagate", parents=[common],
                        help="run the pulse and store the time series")
    sp = sub.add_parser("analyze", parents=[common],
                        help="observables from a stored run")
    sp.add_argument("--run", default=None,
                    help="directory written by propagate")
    sp = sub.add_parser("impulsive", parents=[common],
                        help="frozen-nuclei predictions")
    sp.add_argument("--t-ps", type=float, nargs="+", default=[300.0],
                    help="evaluation times (ps)")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 0:
        parser.error(f"argument --threads: must be 0 or more, "
                     f"got {args.threads}")
    workers = (sfft.set_workers(args.threads) if args.threads > 0
               else contextlib.nullcontext())
    try:
        try:
            cfg = RunConfig.load(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        with workers:
            return _HANDLERS[args.command](args, cfg)
    except (ConfigError, DomainError, DimensionError,
            GridMismatchError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=_sys.stderr)
        return 2
    except ColdpaError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
