"""Entanglement purification toolkit for pairs and groups of qudits.

Simulates and analyzes purification of noisy maximally entangled
d-level states: adaptive and fixed recurrence protocols on Bell-diagonal
weight matrices, closed-form dynamics of the twirl-based protocol,
hashing yields with finite-size bounds, multiparty GHZ
hashing, and an oracle that validates every coefficient-level shortcut
against literal gates on pure Bell-product inputs.

The root re-exports each library module's ``__all__``; ``oracle`` and
``cli`` are imported as modules.
"""

from .indices import *
from .states import *
from .recurrence import *
from .hashing import *
from .multipartite import *

__version__ = "0.1.0"
