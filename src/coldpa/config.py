"""Run configuration: strict INI parsing and construction of the model
objects a run needs (system, grid, plan, initial state).

Every key is declared below with a parser; unknown sections or keys are
rejected with their full path so typos fail loudly instead of silently
falling back to defaults. Values carry explicit units in the key name
(``_cm``, ``_ps``, ``_mk`` ...); everything is converted to atomic units
on the way in.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .grids import RadialGrid, TwoChannelState, build_grid, gaussian
from .potentials import (CoupledSystem, PotentialCurve, PulseEnvelope,
                         calibrate_crossing)
from .spectrum import continuum_state, solve_levels
from .units import convert, coupling_from_intensity, mu_cs2, ps2au


def _f(raw):
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError("not a finite number")
    return v


def _s(raw):
    return raw.strip()


def _floats(raw):
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_f(tok) for tok in raw.replace(",", " ").split())


# section -> key -> (parser, default)
_SCHEMA = {
    "system": {
        "mu": (_f, mu_cs2),
        "detuning_cm": (_f, 140.0),
        "coupling_cm": (_f, None),
        "intensity_wcm2": (_f, None),
        "dipole_au": (_f, None),
        "r_min": (_f, 1.0),
        "r_max": (_f, 1000.0),
    },
    "ground": {
        "depth_cm": (_f, 279.0),
        "r_e": (_f, 12.0),
        "a": (_f, 0.35),
        "c_n": (_f, 6890.0),
        "n": (int, 6),
        "switch_radius": (_f, 16.0),
    },
    "excited": {
        "depth_cm": (_f, 400.0),
        "r_e": (_f, 10.0),
        "a": (_f, 0.45),
        "c_n": (_f, None),           # filled by calibration when absent
        "n": (int, 3),
        "switch_radius": (_f, 14.0),
        "calibrate_rc": (_f, 29.3),
    },
    "grid": {
        "n": (int, 512),
        "r_lo": (_f, 1.0),
        "r_hi": (_f, 200.0),
        "mapping": (_s, "adaptive"),
        "beta": (_f, 0.7),
        "e_env_cm": (_f, None),
    },
    "pulse": {
        "rise_ps": (_f, 100.0),
        "flat_until_ps": (_f, 295.0),
        "off_ps": (_f, 310.0),
        "tail_until_ps": (_f, 395.0),
    },
    "propagation": {
        "t_start_ps": (_f, 0.0),
        "t_end_ps": (_f, 395.0),
        "dt_ramp_ps": (_f, 0.01),
        "dt_flat_ps": (_f, 0.5),
        "cheb_tol": (_f, 1e-14),         # Chebyshev and Lanczos series
        "spectral_margin": (_f, 0.05),
        "v_cap_cm": (_f, None),
        "snapshots_ps": (_floats, ()),
    },
    "initial": {
        "kind": (_s, "continuum"),       # continuum | gaussian | level
        "energy_cm": (_f, 3.5e-5),       # above the ground asymptote
        "v": (int, 0),
        "r0": (_f, 50.0),
        "sigma": (_f, 5.0),
        "k0": (_f, 0.0),
    },
    "analysis": {
        "k_floor_sigmas": (_f, 5.0),
        "k_min": (_f, 1.0),
        "hole_threshold": (_f, 0.5),
        "hole_smooth": (_f, 2.0),
        "temperature_mk": (_f, 0.11),
        "volume_cm3": (_f, 1e-3),
        "n_atoms": (_f, 1e8),
        "spin_factor": (_f, 0.75),
        "detunings_cm": (_floats, (67.4, 70.0)),
    },
}


@dataclass
class RunConfig:
    """Validated, unit-normalized view of one INI file."""

    values: dict = field(default_factory=dict)
    text: str = ""               # verbatim source, echoed into manifests

    def __getitem__(self, path: str):
        sec, key = path.split(".", 1)
        return self.values[sec][key]

    # ---- construction -----------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        cp = configparser.ConfigParser(interpolation=None)
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config does not parse: {exc}") from exc
        values = {}
        for sec in cp.sections():
            if sec not in _SCHEMA:
                raise ConfigError(f"unknown section [{sec}]")
            values[sec] = {}
            for key, raw in cp[sec].items():
                if key not in _SCHEMA[sec]:
                    raise ConfigError(f"unknown key {sec}.{key}")
                parser, _ = _SCHEMA[sec][key]
                try:
                    values[sec][key] = parser(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for {sec}.{key}: {raw!r} ({exc})"
                    ) from exc
        # fill defaults
        for sec, keys in _SCHEMA.items():
            values.setdefault(sec, {})
            for key, (_, default) in keys.items():
                values[sec].setdefault(key, default)
        cfg = cls(values=values, text=text)
        cfg._validate()
        return cfg

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def _validate(self):
        sysv = self.values["system"]
        has_w = sysv["coupling_cm"] is not None
        has_i = sysv["intensity_wcm2"] is not None
        has_d = sysv["dipole_au"] is not None
        if has_w and (has_i or has_d):
            raise ConfigError(
                "system: give either coupling_cm or intensity_wcm2 + "
                "dipole_au, not both"
            )
        if has_i != has_d:
            raise ConfigError(
                "system: intensity_wcm2 and dipole_au belong together"
            )
        if not has_w and not has_i:
            raise ConfigError(
                "system: one of coupling_cm or intensity_wcm2 + dipole_au "
                "is required"
            )
        if self["grid.mapping"] not in ("uniform", "adaptive"):
            raise ConfigError(
                f"grid.mapping must be uniform or adaptive, "
                f"got {self['grid.mapping']!r}"
            )
        if self["initial.kind"] not in ("continuum", "gaussian", "level"):
            raise ConfigError(
                f"initial.kind must be continuum, gaussian or level, "
                f"got {self['initial.kind']!r}"
            )
        if self["initial.v"] < 0:
            raise ConfigError(
                f"initial.v must be >= 0, got {self['initial.v']}")
        # detect_hole would refuse these, and analyze would report no hole
        if not 0.0 < self["analysis.hole_threshold"] < 1.0:
            raise ConfigError(
                f"analysis.hole_threshold must lie inside (0, 1), "
                f"got {self['analysis.hole_threshold']}")
        if self["analysis.hole_smooth"] <= 0.0:
            raise ConfigError(
                f"analysis.hole_smooth must be > 0 bohr, "
                f"got {self['analysis.hole_smooth']}")
        # the thermal chain would refuse these, but only at the end of
        # analyze, after both eigensolves and two of its files
        for key in ("temperature_mk", "volume_cm3", "n_atoms"):
            if self[f"analysis.{key}"] <= 0.0:
                raise ConfigError(f"analysis.{key} must be > 0, "
                                  f"got {self[f'analysis.{key}']}")
        if not 0.0 < self["analysis.spin_factor"] <= 1.0:
            raise ConfigError(
                f"analysis.spin_factor must lie in (0, 1], "
                f"got {self['analysis.spin_factor']}")

    # ---- builders ----------------------------------------------------
    def coupling_au(self) -> float:
        sysv = self.values["system"]
        if sysv["coupling_cm"] is not None:
            return convert(sysv["coupling_cm"], "cm-1", "hartree")
        return coupling_from_intensity(sysv["intensity_wcm2"],
                                       sysv["dipole_au"])

    def build_system(self) -> CoupledSystem:
        sysv = self.values["system"]
        g, e = self.values["ground"], self.values["excited"]
        delta_l = convert(sysv["detuning_cm"], "cm-1", "hartree")
        ground = PotentialCurve(
            de=convert(g["depth_cm"], "cm-1", "hartree"), re=g["r_e"],
            a=g["a"], cn=g["c_n"], n=g["n"], asymptote=-delta_l,
            switch_radius=g["switch_radius"], name="ground",
        )
        cn_e = e["c_n"] if e["c_n"] is not None else 1.0
        excited = PotentialCurve(
            de=convert(e["depth_cm"], "cm-1", "hartree"), re=e["r_e"],
            a=e["a"], cn=cn_e, n=e["n"], asymptote=0.0,
            switch_radius=e["switch_radius"], name="excited",
        )
        p = self.values["pulse"]
        env = PulseEnvelope.default(
            rise_ps=p["rise_ps"], flat_until_ps=p["flat_until_ps"],
            off_ps=p["off_ps"], end_ps=p["tail_until_ps"],
        )
        sys = CoupledSystem(
            ground=ground, excited=excited, coupling=self.coupling_au(),
            mu=sysv["mu"], envelope=env,
            working_range=(sysv["r_min"], sysv["r_max"]),
        )
        if e["c_n"] is None:
            sys, _, _ = calibrate_crossing(sys, e["calibrate_rc"])
        return sys

    def build_grid(self, sys: CoupledSystem) -> RadialGrid:
        gv = self.values["grid"]
        e_env = gv["e_env_cm"]
        if e_env is not None:
            e_env = convert(e_env, "cm-1", "hartree")
        return build_grid(sys, n=gv["n"], r_lo=gv["r_lo"], r_hi=gv["r_hi"],
                          kind=gv["mapping"], beta=gv["beta"], e_env=e_env)

    def build_plan(self):
        from .propagation import PropagationPlan

        p = self.values["propagation"]
        v_cap = p["v_cap_cm"]
        if v_cap is not None:
            v_cap = convert(v_cap, "cm-1", "hartree")
        return PropagationPlan.from_ps(
            t_start=p["t_start_ps"], t_end=p["t_end_ps"],
            dt_ramp=p["dt_ramp_ps"], dt_flat=p["dt_flat_ps"],
            snapshots=p["snapshots_ps"], cheb_tol=p["cheb_tol"],
            spectral_margin=p["spectral_margin"], v_cap=v_cap,
        )

    def build_initial(self, sys: CoupledSystem, grid: RadialGrid):
        """(state, info): ground-channel start and how it was made.

        info carries the stationary energy and, for the continuum kind,
        the local level spacing dE/dn needed by the thermal chain, the
        eigenpair's relative residual and the factor solves that found it
        (see :class:`ContinuumRef`).
        """
        iv = self.values["initial"]
        kind = iv["kind"]
        t0 = self["propagation.t_start_ps"] * ps2au
        if kind == "gaussian":
            amp = gaussian(grid, iv["r0"], iv["sigma"], iv["k0"])
            state = TwoChannelState(grid, amp, np.zeros_like(amp), t0)
            return state, {"kind": kind, "e_g": None, "de_dn": None}
        if kind == "level":
            levels = solve_levels(sys.ground, grid,
                                  window=(-np.inf, sys.ground.asymptote))
            if iv["v"] >= levels.n_levels:
                raise ConfigError(
                    f"initial.v = {iv['v']} but only {levels.n_levels} "
                    "bound levels exist on this grid"
                )
            amp = levels.state(iv["v"]).astype(complex)
            state = TwoChannelState(grid, amp, np.zeros_like(amp), t0)
            return state, {"kind": kind,
                           "e_g": float(levels.energies[iv["v"]]),
                           "de_dn": None}
        e_target = (sys.ground.asymptote
                    + convert(iv["energy_cm"], "cm-1", "hartree"))
        ref = continuum_state(sys.ground, grid, e_target)
        amp = ref.state.astype(complex)
        state = TwoChannelState(grid, amp, np.zeros_like(amp), t0)
        return state, {"kind": kind, "e_g": ref.energy,
                       "de_dn": ref.de_dn, "e_above": ref.e_above,
                       "residual": ref.residual, "solves": ref.solves}


def reference_system(mu: float = None,
                     envelope: PulseEnvelope = None) -> CoupledSystem:
    """The demonstration system: the defaults above with W = 13.17 1/cm
    and a working range of [2, 1000] bohr.

    Ground channel: shallow triplet-like Morse with a -C6/R^6 tail, dressed
    asymptote at -delta_L. Excited channel: Morse with a -C3/R^3 tail whose
    coefficient is calibrated so the dressed curves cross at 29.3 bohr.
    ``mu`` and ``envelope``, when given, replace the default Cs2 reduced
    mass and pulse.
    """
    sys = RunConfig.parse("[system]\ncoupling_cm = 13.17\nr_min = 2.0\n"
                          ).build_system()
    return replace(sys, mu=sys.mu if mu is None else mu,
                   envelope=sys.envelope if envelope is None else envelope)
