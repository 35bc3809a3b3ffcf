"""vibrolang: vibrational relaxation, vibronic/phononic lineshapes and
cavity polariton observables for molecules embedded in crystalline hosts."""

from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    InstabilityError,
    RegimeError,
    ResolutionError,
    TruncationError,
    VibrolangError,
)
from .model import (
    DiscreteBath,
    MoleculeParams,
    SpectralDensity,
    ThermalState,
    chain_eigenmodes,
    derived_markov_params,
    kelvin_to_angfreq,
    vibron_phonon_couplings,
)
from .kernels import (
    KernelParams,
    effective_params,
    gamma_freq,
    gamma_time,
    momentum_correlation,
    momentum_correlation_numeric,
    susceptibility,
    thermal_spectrum,
)
from .microsim import (
    Trajectory,
    TrajectoryConfig,
    energy_envelope,
    fit_decay_rate,
    simulate,
)
from .spectra import (
    LineSpectrum,
    absorption_bessel,
    absorption_discrete,
    absorption_full,
    absorption_multimode_discrete,
    debye_waller,
    dephasing_rate,
    displacement_correlation_vibron,
    franck_condon,
    mirror_emission,
    phonon_correlation,
    polaron_shift,
    spectral_density,
)
from .cavity import (
    CavityParams,
    effective_rabi,
    molecular_response,
    polariton_populations,
    polariton_rates,
    transmission,
)

__version__ = "0.1.0"
