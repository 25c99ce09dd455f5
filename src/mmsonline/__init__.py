"""Online maximin-share allocation for k known agent types.

Exact-rational instances and verification, an exact share solver with an
independent brute-force oracle, online allocators for adversarial and
stochastic (known or learned distribution) arrivals, the hard-instance
constructions behind their limits, and a seeded Monte-Carlo harness.
The package exports the quick tour's names and the exception classes;
every other name is imported from its module, e.g. ``mmsonline.core``.
"""

from .core import (
    CapacityError, InputError, InvariantViolation, MmsOnlineError, PoolExhausted, ValidationError,
    TypeDistribution, normalize,
)
from .solver import mms_exact
from .adversarial import run_adversarial
from .stochastic import run_known_d
from .unknown import run_unknown_d
from .generators import gen_random, sample_arrivals
from .harness import run_algorithm

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
