"""Mono-energetic quantum gas: occupation statistics, order-3/2 series,
self-consistent fugacity solvers, regime classification and sweeps."""

# Each module declares its public names in __all__; importing it also binds its name here.
from .errors import *
from .gas import *
from .polylog import *
from .regime import *
from .sweep import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__ + gas.__all__ + polylog.__all__ + regime.__all__ + sweep.__all__
    + ["__version__"]
)
