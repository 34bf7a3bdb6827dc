"""trafficlab: bursty traffic synthesis, exact FIFO queueing, and the
estimators and shuffling experiments used to probe long-range burst
structure. The package re-exports each module's ``__all__``."""

__version__ = "0.1.0"

from . import estimators, experiments, queue_sim, rng, synth, traces
from .estimators import *
from .experiments import *
from .queue_sim import *
from .rng import *
from .synth import *
from .traces import *

__all__ = ["__version__"]
__all__ += [name for mod in (estimators, experiments, queue_sim, rng, synth, traces) for name in mod.__all__]
