"""Wave-packet revivals on finite tight-binding chains.

Exact spectral time evolution of states on an open uniform-hopping chain,
Gaussian wave-packet construction, closed-form fractional-revival
predictions via Gauss sums, fidelity diagnostics, and a reproduction
harness for the standard revival experiments.

The public names are each module's ``__all__``, re-exported here.
"""

from . import chain, fidelity, harness, propagator, revival, wavepacket
from .chain import *
from .fidelity import *
from .harness import *
from .propagator import *
from .revival import *
from .wavepacket import *

__all__ = [
    name
    for module in (chain, fidelity, harness, propagator, revival, wavepacket)
    for name in module.__all__
]

__version__ = "0.1.0"
