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
    derived_markov_params,
)
from .kernels import KernelParams
from .microsim import (
    Trajectory,
    TrajectoryConfig,
    simulate,
)
from .spectra import (
    absorption_bessel,
    absorption_full,
    debye_waller,
    mirror_emission,
    phonon_correlation,
)
from .cavity import (
    CavityParams,
    polariton_populations,
    polariton_rates,
    transmission,
)

__version__ = "0.1.0"
