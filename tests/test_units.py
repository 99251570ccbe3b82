import numpy as np
import pytest

from coldpa import units
from coldpa.errors import DimensionError, DomainError


def test_energy_scale_constants():
    assert units.hartree2cm == pytest.approx(219474.6313705, rel=1e-12)
    assert units.convert(1.0, "hartree", "cm-1") == pytest.approx(
        219474.6313705)
    assert units.convert(1.0, "hartree", "eV") == pytest.approx(
        27.211386245988)


def test_time_scale():
    # 1 ps is about 4.134e4 atomic time units
    assert units.ps2au == pytest.approx(1e-12 / 2.4188843265e-17)
    assert units.convert(1.0, "ps", "s") == pytest.approx(1e-12)


def test_boltzmann_consistency():
    # the two housings of k_B agree through the energy scale
    assert units.kb_hartree * units.hartree2cm == pytest.approx(
        units.kb_cm, rel=1e-12)
    # 100 microkelvin in wavenumbers, textbook value ~0.695e-4
    e = units.kb_hartree * 1e-4
    assert units.convert(e, "hartree", "cm-1") == pytest.approx(
        6.9503476e-5, rel=1e-9)


def test_reduced_mass():
    # two identical heavy alkali atoms, m/2 in electron masses
    assert units.mu_cs2 == pytest.approx(
        132.905451933 * 1822.888486 / 2.0, rel=1e-12)


def test_convert_round_trip():
    rng = np.random.default_rng(7)
    pairs = [("hartree", "cm-1"), ("hartree", "eV"), ("bohr", "m"),
             ("ps", "au"), ("K", "mK"), ("cm3", "bohr3")]
    for src, dst in pairs:
        x = rng.uniform(0.1, 10.0)
        assert units.convert(units.convert(x, src, dst), dst, src) == \
            pytest.approx(x, rel=1e-14)


def test_convert_aliases():
    assert units.convert(1.0, "1/cm", "cm-1") == 1.0
    assert units.convert(1.0, "a0", "bohr") == 1.0


def test_convert_dimension_mismatch():
    with pytest.raises(DimensionError):
        units.convert(1.0, "hartree", "bohr")
    with pytest.raises(DimensionError):
        units.convert(1.0, "nope", "bohr")


def test_kinetic_momentum_round_trip():
    mu = units.mu_cs2
    for k in (0.5, 6.0, 12.2):
        e = units.kinetic_energy(k, mu)
        assert np.sqrt(2.0 * mu * e) == pytest.approx(k)
    for bad in (0.0, -mu):
        with pytest.raises(DomainError):
            units.kinetic_energy(1.0, bad)


def test_momentum_energy_scale():
    # k = 12.2 a.u. at the heavy-pair reduced mass sits near 134.8 1/cm
    e_cm = units.convert(units.kinetic_energy(12.2, 121135.9),
                         "hartree", "cm-1")
    assert e_cm == pytest.approx(134.8, rel=5e-3)


def test_coupling_intensity_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        w = rng.uniform(1e-6, 1e-3)
        d = rng.uniform(0.5, 12.0)
        i = (2.0 * w / d) ** 2 * units.au_intensity   # E0 = 2 W / D
        assert units.coupling_from_intensity(i, d) == pytest.approx(
            w, rel=1e-12)


def test_coupling_scaling():
    # W scales as sqrt(I) and linearly with the dipole
    w1 = units.coupling_from_intensity(1e6, 1.0)
    assert units.coupling_from_intensity(4e6, 1.0) == pytest.approx(2 * w1)
    assert units.coupling_from_intensity(1e6, 3.0) == pytest.approx(3 * w1)
