"""Physical constants and unit conversions.

Everything inside the package runs in atomic units (hartree, bohr, m_e,
hbar = 1). Conversions happen only at the I/O boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

# energy
hartree2cm = 219474.6313705          # cm^-1 per hartree
hartree2ev = 27.211386245988
hartree2joule = 4.3597447222071e-18

# time, length
autime2s = 2.4188843265e-17          # s per atomic time unit
bohr2m = 5.29177210903e-11
ps2au = 1e-12 / autime2s             # atomic time units per picosecond

# thermodynamics, fields
kb_cm = 0.69503476                   # Boltzmann constant, cm^-1 per K
kb_hartree = kb_cm / hartree2cm
au_intensity = 3.50944758e16         # W/cm^2 per atomic intensity unit

# masses
amu2me = 1822.888486                 # electron masses per unified amu
cs_mass_amu = 132.905451933
mu_cs2 = cs_mass_amu * amu2me / 2.0  # Cs2 reduced mass in m_e


# unit registry: canonical name -> (dimension, factor to atomic units)
_REGISTRY = {
    "hartree": ("energy", 1.0),
    "cm-1": ("energy", 1.0 / hartree2cm),
    "eV": ("energy", 1.0 / hartree2ev),
    "J": ("energy", 1.0 / hartree2joule),
    "bohr": ("length", 1.0),
    "m": ("length", 1.0 / bohr2m),
    "au": ("time", 1.0),
    "s": ("time", 1.0 / autime2s),
    "ps": ("time", ps2au),
    "K": ("temperature", 1.0),
    "mK": ("temperature", 1e-3),
    "W/cm2": ("intensity", 1.0 / au_intensity),
    "MW/cm2": ("intensity", 1e6 / au_intensity),
    "p_au": ("momentum", 1.0),
    "bohr3": ("volume", 1.0),
    "cm3": ("volume", (1e-2 / bohr2m) ** 3),
    "m3": ("volume", (1.0 / bohr2m) ** 3),
}

_ALIASES = {
    "cm^-1": "cm-1",
    "1/cm": "cm-1",
    "wavenumber": "cm-1",
    "ev": "eV",
    "joule": "J",
    "a0": "bohr",
    "au_time": "au",
    "atu": "au",
    "mk": "mK",
    "kelvin": "K",
    "W/cm^2": "W/cm2",
    "MW/cm^2": "MW/cm2",
    "momentum_au": "p_au",
    "cm^3": "cm3",
    "m^3": "m3",
}


def _lookup(unit: str):
    name = _ALIASES.get(unit, unit)
    try:
        return name, _REGISTRY[name]
    except KeyError:
        raise DimensionError(f"unknown unit {unit!r}") from None


def convert(value, src: str, dst: str):
    """Convert ``value`` from unit ``src`` to unit ``dst``.

    Raises
    ------
    DimensionError
        If the units belong to different dimensions or are unknown.
    """
    sname, (sdim, sfac) = _lookup(src)
    dname, (ddim, dfac) = _lookup(dst)
    if sdim != ddim:
        raise DimensionError(
            f"cannot convert {sname} ({sdim}) to {dname} ({ddim})"
        )
    return value * (sfac / dfac)


def kinetic_energy(k_au, mu: float):
    """hbar^2 k^2 / (2 mu) in hartree; k in atomic momentum units."""
    if mu <= 0:
        raise DomainError(f"reduced mass must be positive, got {mu}")
    return np.asarray(k_au) ** 2 / (2.0 * mu)


def coupling_from_intensity(intensity_w_cm2: float, dipole_au: float) -> float:
    """Peak coupling |W| = E0 * D / 2 in hartree.

    Parameters
    ----------
    intensity_w_cm2 : float
        Laser intensity in W/cm^2.
    dipole_au : float
        Transition dipole moment in atomic units.
    """
    if intensity_w_cm2 < 0:
        raise DomainError(f"negative intensity {intensity_w_cm2} W/cm^2")
    field = np.sqrt(intensity_w_cm2 / au_intensity)   # peak field, a.u.
    return 0.5 * field * abs(dipole_au)
