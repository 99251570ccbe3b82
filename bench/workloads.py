"""The three workloads: inputs drawn from a seed, the pipeline each one
drives through coldpa, and the checks on what it produced.

Each workload goes the way a user does: INI config text -> RunConfig ->
system -> grid -> initial state -> propagation or survey -> analysis. The
seed changes the inputs (collision energies from the 0.11 mK thermal
distribution; the Gaussian centre and width on `smallgrid`) but never the
amount of work: step counts, grid sizes and Chebyshev orders do not depend
on it.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
from scipy.integrate import solve_ivp

from coldpa import cli, io
from coldpa.config import RunConfig
from coldpa.grids import TwoChannelState, to_momentum
from coldpa.impulsive import evolve_impulsive, predict_k_peaks
from coldpa.observables import find_momentum_peaks
from coldpa.propagation import propagate
from coldpa.spectrum import continuum_state
from coldpa.units import convert, hartree2cm, kb_hartree, ps2au

import checks

TEMPERATURE_K = 0.11e-3
# Draws above this many kT are redrawn. On both box sizes used here the
# first box level above threshold lies below it and the second above it
# (3.3 kT and 24.7 kT on [2, 200] bohr), so every draw selects a box state
# that has a stored reference.
MAX_KT = 10.0

# sin^2 rise, flat top, sin^2 fall, dark tail (ps): the shape of the
# desk-scale analog run in tests/test_acceptance.py, compressed in time
SIZES = {
    "full": {
        "analog": {"n": 1400, "r_hi": 200.0, "pulse": (0.1, 0.25, 0.1, 0.1)},
        "smallgrid": {"pulse": (2.5, 5.0, 1.5, 1.0)},
        "survey": {"n": 1400, "r_hi": 200.0, "energies": 2,
                   "t_ps": (10.0, 30.0, 60.0)},
    },
    # seconds-long versions for the benchmark's own tests
    "tiny": {
        "analog": {"n": 420, "r_hi": 60.0, "pulse": (0.05, 0.1, 0.05, 0.05)},
        "smallgrid": {"pulse": (0.25, 0.5, 0.15, 0.1)},
        "survey": {"n": 420, "r_hi": 60.0, "energies": 1, "t_ps": (10.0,)},
    },
}


def _pulse_section(rise, flat, fall, dark):
    return (f"[pulse]\nrise_ps = {rise!r}\nflat_until_ps = {rise + flat!r}\n"
            f"off_ps = {rise + flat + fall!r}\n"
            f"tail_until_ps = {rise + flat + fall + dark!r}\n")


def _reference_config(n, r_hi, pulse, energy_cm):
    """The reference system (Cs pair, 13.17 1/cm, crossing at 29.3 bohr);
    [ground] and [excited] keep their defaults, which are that system."""
    t_end = sum(pulse)
    return (
        "[system]\ndetuning_cm = 140.0\ncoupling_cm = 13.17\n"
        "r_min = 2.0\nr_max = 1000.0\n\n"
        "[excited]\ncalibrate_rc = 29.3\n\n"
        f"[grid]\nn = {n}\nr_lo = 2.0\nr_hi = {r_hi!r}\nmapping = adaptive\n\n"
        + _pulse_section(*pulse) +
        f"\n[propagation]\nt_end_ps = {t_end!r}\ndt_ramp_ps = 0.01\n"
        "dt_flat_ps = 0.05\n\n"
        f"[initial]\nkind = continuum\nenergy_cm = {energy_cm!r}\n"
    )


def _offset_pair_config(pulse, r0, sigma):
    """The offset pair of tests/test_acceptance.py: identical Morse wells
    60 1/cm apart, W = 13 1/cm, mu = 5000, on a 64-point uniform grid."""
    c6 = 100.0 / hartree2cm
    well = (f"depth_cm = 300.0\nr_e = 6.0\na = 0.7\nc_n = {c6!r}\nn = 6\n"
            "switch_radius = 9.0\n")
    t_end = sum(pulse)
    return (
        "[system]\nmu = 5000.0\ndetuning_cm = 60.0\ncoupling_cm = 13.0\n"
        "r_min = 2.5\nr_max = 14.0\n\n"
        f"[ground]\n{well}\n[excited]\n{well}\n"
        "[grid]\nn = 64\nr_lo = 3.0\nr_hi = 12.0\nmapping = uniform\n\n"
        + _pulse_section(*pulse) +
        f"\n[propagation]\nt_end_ps = {t_end!r}\ndt_ramp_ps = 0.005\n"
        "dt_flat_ps = 0.005\n\n"
        f"[initial]\nkind = gaussian\nr0 = {r0!r}\nsigma = {sigma!r}\n"
    )


def thermal_energies_cm(rng, count):
    """Collision energies (1/cm above threshold) from the Maxwell-Boltzmann
    energy distribution at 0.11 mK, E/kT ~ Gamma(3/2), capped at MAX_KT."""
    kt_cm = convert(kb_hartree * TEMPERATURE_K, "hartree", "cm-1")
    out = []
    while len(out) < count:
        x = rng.gamma(1.5)
        if x <= MAX_KT:
            out.append(float(x * kt_cm))
    return out


def _dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


class Workload:
    """One workload at one size and seed. A benchmark iteration calls
    setup, solve and analyze in turn, then check; ``st`` carries what one
    iteration produced."""

    name = ""
    # whether the kinetic step of the workload goes through the FFT
    # transforms (propagation on n > 256, or dense eigensolves); the
    # apply_kinetic sweep and FFT-length counts are reported only then
    fft_kinetic = True
    propagates = False
    # times the solve phase runs again alone, on the same set-up, after
    # each untraced iteration; see Analog
    extra_solves = 0

    def __init__(self, size, seed, refs, work_dir):
        self.size = size
        self.params = SIZES[size][self.name]
        self.rng = np.random.default_rng(seed)
        self.refs = refs.get(size, {}).get(self.name, {}) if refs else {}
        self.work_dir = work_dir
        self.text = self.config_text()
        self.cfg_path = os.path.join(work_dir, f"{self.name}.ini")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.write(self.text)

    def config_text(self) -> str:
        raise NotImplementedError

    def setup(self, tr) -> dict:
        with tr.span("config.parse"):
            cfg = RunConfig.parse(self.text)
        with tr.span("config.build_system"):
            system = cfg.build_system()
        with tr.span("grids.build_grid"):
            grid = cfg.build_grid(system)
        return {"cfg": cfg, "system": system, "grid": grid}

    def solve(self, tr, st, out):
        raise NotImplementedError

    def analyze(self, tr, st, out):
        """Post-solve CLI step; only `analog` has one."""

    def check(self, st) -> list[str]:
        raise NotImplementedError

    def bytes_written(self, out) -> int:
        return _dir_bytes(out)


class _Propagating(Workload):
    """Set-up and propagate step shared by `analog` and `smallgrid`."""

    propagates = True

    def setup(self, tr):
        st = super().setup(tr)
        cfg = st["cfg"]
        with tr.span("config.build_plan"):
            plan = cfg.build_plan()
        # analyze needs the endpoints, as `coldpa propagate` arranges
        snaps = set(plan.snapshots) | {plan.t_start, plan.t_end}
        st["plan"] = dataclasses.replace(plan, snapshots=tuple(sorted(snaps)))
        with tr.span("config.build_initial"):
            st["state"], st["info"] = cfg.build_initial(st["system"],
                                                        st["grid"])
        return st

    def solve(self, tr, st, out):
        """`propagate` plus the run directory, as `coldpa propagate`."""
        with tr.span("io.make_run_dir"):
            run_dir = io.make_run_dir(os.path.join(out, "run"))
        with tr.span("propagation.propagate"):
            series = propagate(st["system"], st["grid"], st["plan"],
                               st["state"])
        with tr.span("io.save_grid"):
            io.save_grid(os.path.join(run_dir, "grid.csv"), st["grid"])
        with tr.span("io.save_timeseries"):
            io.save_timeseries(run_dir, series)
        with tr.span("io.write_manifest"):
            io.write_manifest(run_dir, "propagate", st["cfg"].text,
                              extra={"initial": st["info"]})
        st["series"], st["run_dir"] = series, run_dir


class Analog(_Propagating):
    name = "analog"
    # propagation is under a third of an iteration, so whole iterations
    # alone give too few solve samples for a steady median
    extra_solves = 1

    def config_text(self):
        p = self.params
        energy_cm = thermal_energies_cm(self.rng, 1)[0]
        return _reference_config(p["n"], p["r_hi"], p["pulse"], energy_cm)

    def analyze(self, tr, st, out):
        """In-process `coldpa analyze` on the run directory."""
        an_dir = os.path.join(out, "analysis")
        with tr.span("cli.analyze"):
            rc = cli.main(["analyze", "--config", self.cfg_path, "--run",
                           st["run_dir"], "--out", an_dir, "--quiet"])
        if rc != 0:
            raise RuntimeError(f"coldpa analyze exited with {rc}")
        st["an_dir"] = an_dir

    def check(self, st):
        s = st["series"]
        pop_e = float(s.pop_e[-1])
        fails = checks.norm_drift(s.norm_drift())
        if "an_dir" in st:          # a solve repeated alone has no analysis
            if "analysis" not in st:
                st["analysis"] = io.read_json(os.path.join(st["an_dir"],
                                                           "analysis.json"))
            fails += checks.analysis_matches_series(
                st["analysis"], float(s.t_ps[-1]), float(s.pop_g[-1]),
                pop_e)
        if not self.refs:
            return fails + ["no stored analog reference; run "
                            "make_reference.py"]
        return fails + (checks.same_state(st["info"]["e_above"], self.refs)
                        or checks.final_pop_e(pop_e, self.refs))

    def pop_e_err(self, st):
        return abs(float(st["series"].pop_e[-1]) - self.refs["pop_e_ref"])


class SmallGrid(_Propagating):
    name = "smallgrid"
    fft_kinetic = False       # n = 64 takes the dense kinetic matrix
    _ode = None               # (times, P_e) of the two-level reference

    def config_text(self):
        r0 = float(self.rng.uniform(5.6, 6.4))
        sigma = float(self.rng.uniform(0.35, 0.55))
        return _offset_pair_config(self.params["pulse"], r0, sigma)

    def two_level_pop_e(self, st):
        """P_e of the uniform 2x2 problem driven by W f(t), at the recorded
        times. It depends on the pulse only, so one solve serves the run."""
        t = st["series"].t
        if self._ode is not None and np.array_equal(self._ode[0], t):
            return self._ode[1]
        sys_ = st["system"]
        w = sys_.coupling
        delta = sys_.excited.asymptote - sys_.ground.asymptote
        env = sys_.envelope

        def rhs(tt, c):
            wf = w * env.value(tt)
            return [-1j * wf * c[1], -1j * (wf * c[0] + delta * c[1])]

        sol = solve_ivp(rhs, (float(t[0]), float(t[-1])), [1.0 + 0j, 0j],
                        t_eval=t, method="DOP853", rtol=1e-11, atol=1e-13)
        pop = np.abs(sol.y[1]) ** 2
        self._ode = (t.copy(), pop)
        return pop

    def check(self, st):
        s = st["series"]
        return (checks.norm_drift(s.norm_drift())
                + checks.two_level(s.pop_e, self.two_level_pop_e(st)))

    def pop_e_err(self, st):
        ode = self.two_level_pop_e(st)
        return float(np.max(np.abs(st["series"].pop_e - ode)))


class Survey(Workload):
    name = "survey"
    propagates = False

    def config_text(self):
        p = self.params
        self.energies_cm = thermal_energies_cm(self.rng, p["energies"])
        # the config carries the first energy, the other energies only
        # move the target of their own continuum_state call; the pulse
        # does not enter the survey
        return _reference_config(p["n"], p["r_hi"], (1.0, 1.0, 1.0, 1.0),
                                 self.energies_cm[0])

    def setup(self, tr):
        st = super().setup(tr)
        ground = st["system"].ground
        st["refs"] = []
        for e_cm in self.energies_cm:
            target = ground.asymptote + convert(e_cm, "cm-1", "hartree")
            with tr.span("spectrum.continuum_state"):
                st["refs"].append(continuum_state(ground, st["grid"],
                                                  target))
        return st

    def solve(self, tr, st, out):
        """Level tables as `coldpa spectrum`, then per energy the
        frozen-nuclei predictions and their files as `coldpa impulsive`."""
        lev_dir = os.path.join(out, "levels")
        with tr.span("cli.spectrum"):
            rc = cli.main(["spectrum", "--config", self.cfg_path, "--out",
                           lev_dir, "--quiet"])
        if rc != 0:
            raise RuntimeError(f"coldpa spectrum exited with {rc}")
        system, grid, cfg = st["system"], st["grid"], st["cfg"]
        k_min, floor = cfg["analysis.k_min"], cfg["analysis.k_floor_sigmas"]
        st["preds"], st["peaks"] = [], []
        for j, ref in enumerate(st["refs"]):
            with tr.span("io.make_run_dir"):
                d = io.make_run_dir(os.path.join(out, f"impulsive_{j}"))
            with tr.span("impulsive.predict_k_peaks"):
                peaks = predict_k_peaks(system, grid, ref.state)
            for t_ps in self.params["t_ps"]:
                with tr.span("impulsive.evolve_impulsive"):
                    pred = evolve_impulsive(system, grid, ref.state,
                                            ref.energy, t_ps * ps2au)
                with tr.span("grids.to_momentum"):
                    spec = to_momentum(grid, pred.psi_g)
                with tr.span("observables.find_momentum_peaks"):
                    found = find_momentum_peaks(spec, k_min=k_min,
                                                floor_sigmas=floor)
                tag = f"{t_ps:g}ps"
                with tr.span("io.save_state"):
                    io.save_state(os.path.join(d, f"state_ia_{tag}.csv"),
                                  TwoChannelState(grid, pred.psi_g,
                                                  np.zeros_like(pred.psi_g),
                                                  pred.t))
                with tr.span("io.write_csv"):
                    io.write_csv(os.path.join(d, f"momentum_ia_{tag}.csv"),
                                 ["k_au", "abs_amp"],
                                 zip(spec.k, np.abs(spec.amp)))
                with tr.span("io.write_json"):
                    io.write_json(
                        os.path.join(d, f"momentum_peaks_{tag}.json"),
                        [dataclasses.asdict(p) for p in found])
                st["preds"].append((ref, pred))
            with tr.span("io.write_json"):
                io.write_json(os.path.join(d, "predicted_peaks.json"),
                              io.peaks_to_json(peaks))
            with tr.span("io.write_manifest"):
                io.write_manifest(d, "impulsive", cfg.text)
            st["peaks"].append(peaks)
        st["lev_dir"] = lev_dir

    def level_tables(self, st):
        """Bound-level energies per channel, read back from the CSV files
        `coldpa spectrum` wrote."""
        out = {}
        for ch in ("ground", "excited"):
            _, cols = io.read_csv(os.path.join(st["lev_dir"],
                                               f"levels_{ch}.csv"))
            energies, klass = cols[1], cols[4]
            out[ch] = energies[klass == "bound"]
        return out

    def check(self, st):
        grid = st["grid"]
        fails = []
        for ref, pred in st["preds"]:
            norm0 = float(np.sum(grid.w * np.abs(ref.state) ** 2))
            fails += checks.closed_form_norm(grid.w, pred.psi_g,
                                             pred.psi_e_density, norm0)
        if not self.refs:
            return fails + ["no stored survey reference; run "
                            "make_reference.py"]
        for ch, energies in self.level_tables(st).items():
            fails += checks.levels(energies, self.refs[f"levels_{ch}"], ch)
        for ref, peaks in zip(st["refs"], st["peaks"]):
            fails += (checks.same_state(ref.e_above, self.refs)
                      or checks.peaks(io.peaks_to_json(peaks),
                                      self.refs["peaks"]))
        return fails


WORKLOADS = {w.name: w for w in (Analog, SmallGrid, Survey)}
