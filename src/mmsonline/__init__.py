"""Online maximin-share allocation for k known agent types.

Exact-rational instances and verification, an exact share solver with an
independent brute-force oracle, online allocators for adversarial and
stochastic (known or learned distribution) arrivals, the hard-instance
constructions behind their limits, and a seeded Monte-Carlo harness.
"""

from .core import (
    Allocation,
    Bundle,
    CapacityError,
    EMPTY_BUNDLE,
    FailureReason,
    InputError,
    Instance,
    InvariantViolation,
    MmsOnlineError,
    MmsResult,
    NormalizedInstance,
    PoolExhausted,
    TrialReport,
    TypeDistribution,
    ValidationError,
    as_fraction,
    normalize,
    value,
    verify_allocation,
)
from .solver import mms_brute_force, mms_exact
from .adversarial import (
    TentativeState,
    adaptive_lower_bound_adversary,
    below_sqrt_bound,
    greedy_policy,
    preprocess,
    run_adversarial,
    step_adversarial,
    tentative_policy,
)
from .stochastic import (
    LowCState,
    known_d_engine,
    preprocess_low_c,
    reservation_cap,
    run_high_c,
    run_known_d,
    run_low_c,
    universal_items,
)
from .unknown import (
    UnknownParams,
    basket_value_ok,
    learn_distribution,
    random_split,
    run_unknown_d,
)
from .generators import (
    LowerBoundConstruction,
    all_sequences,
    gen_adv_counterexample,
    gen_example1,
    gen_lower_bound,
    gen_normalized_random,
    gen_random,
    gen_tightness_half,
    gen_tightness_pk,
    presaturation_bundles,
    sample_arrivals,
)
from .harness import (
    AggregateReport,
    McConfig,
    degradation_trial,
    monte_carlo,
    perturb,
    run_algorithm,
    run_trial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
