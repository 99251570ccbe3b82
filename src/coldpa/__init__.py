"""coldpa: coupled-channel wavepacket dynamics for pulsed photoassociation
of a cold atom pair.

The package models two field-dressed electronic channels coupled by a
pulsed laser: grids (uniform or density-adapted), channel eigenspectra,
Chebyshev time propagation, frozen-nuclei closed forms, and the
observables used to interpret a run (level populations, momentum peaks,
thermal molecule counts, density holes).
"""

# defined before the submodules load: io stamps it into run manifests
__version__ = "0.1.0"

from .config import RunConfig, reference_system
from .errors import (CalibrationError, ColdpaError, ConfigError,
                     DimensionError, DomainError, GridCapacityError,
                     GridMismatchError, NumericsError, RangeError,
                     ResolutionError, SpectralBoundsError)
from .grids import (MomentumSpectrum, RadialGrid, TwoChannelState,
                    apply_kinetic, build_adaptive, build_grid, build_uniform,
                    from_momentum, gaussian, inner, kinetic_matrix, normalize,
                    to_momentum)
from .impulsive import (ImpulsivePrediction, PredictedPeak,
                        decompose_impulsive, evolve_impulsive,
                        predict_k_peaks)
from .observables import (HoleReport, MomentumPeak, ThermalYield,
                          detect_hole, find_momentum_peaks, level_populations,
                          momentum_at_radius, radius_from_momentum,
                          thermal_yield)
from .potentials import (AdiabaticPair, CoupledSystem, PotentialCurve,
                         PulseEnvelope, Segment, adiabatic_potentials,
                         calibrate_crossing, find_crossing, local_detuning,
                         rabi_period)
from .propagation import PropagationPlan, TimeSeries, propagate
from .spectrum import (ContinuumRef, LevelSet, adiabatic_period,
                       continuum_state, count_nodes, hamiltonian_matrix,
                       solve_levels)
from .units import convert

__all__ = [
    "AdiabaticPair", "CalibrationError", "ColdpaError", "ConfigError",
    "ContinuumRef", "CoupledSystem", "DimensionError", "DomainError",
    "GridCapacityError", "GridMismatchError", "HoleReport",
    "ImpulsivePrediction", "LevelSet", "MomentumPeak", "MomentumSpectrum",
    "NumericsError", "PotentialCurve", "PredictedPeak", "PropagationPlan",
    "PulseEnvelope", "RadialGrid", "RangeError",
    "ResolutionError", "RunConfig", "Segment", "SpectralBoundsError",
    "ThermalYield", "TimeSeries", "TwoChannelState", "adiabatic_period",
    "adiabatic_potentials", "apply_kinetic", "build_adaptive", "build_grid",
    "build_uniform", "calibrate_crossing", "continuum_state", "convert",
    "count_nodes", "decompose_impulsive", "detect_hole", "evolve_impulsive",
    "find_crossing", "find_momentum_peaks", "from_momentum", "gaussian",
    "hamiltonian_matrix", "inner", "kinetic_matrix", "level_populations",
    "local_detuning", "momentum_at_radius", "normalize", "reference_system",
    "predict_k_peaks", "propagate", "rabi_period", "radius_from_momentum",
    "solve_levels", "thermal_yield", "to_momentum",
]
