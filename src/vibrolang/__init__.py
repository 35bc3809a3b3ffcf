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
    vibron_phonon_couplings,
)
from .kernels import (
    KernelParams,
    effective_params,
    gamma_freq,
    momentum_correlation,
)
from .microsim import (
    Trajectory,
    TrajectoryConfig,
    simulate,
)
from .spectra import (
    absorption_bessel,
    absorption_discrete,
    absorption_full,
    debye_waller,
    dephasing_rate,
    franck_condon,
    mirror_emission,
    molecular_response,
    phonon_correlation,
    polaron_shift,
    spectral_density,
)
from .cavity import (
    CavityParams,
    effective_rabi,
    polariton_populations,
    polariton_rates,
    transmission,
)

__version__ = "0.1.0"
