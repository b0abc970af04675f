"""Security-analysis toolkit for continuous-variable QKD.

Computes secret-key-rate lower bounds from Alice/Bob covariance data,
simulates Gaussian and non-Gaussian channel attacks to generate such
data, estimates differential entropies from samples, and numerically
certifies the entropy inequalities the bounds rest on.
"""

from .errors import (
    CapacityError,
    ConfigurationError,
    CvqkdError,
    DegenerateDataError,
    DomainError,
    InconsistentStatisticsError,
    InsufficientDataError,
    ParseError,
    UnphysicalInputError,
)
from .estimators import (
    EntropyEstimate,
    SampleSet,
    conditional_entropy_estimate,
    estimate_covariance,
    knn_differential_entropy,
)
from .rates import (
    Covariance2,
    HeterodyneTransform,
    ProtocolKind,
    RateReport,
    apply_sifting,
    coherent_rate_bound,
    conditional_squeezing_check,
    conditional_variance,
    gaussian_conditional_entropy,
    gaussian_entropy,
    heterodyne_covariance_transform,
    rate_bound,
    squeezed_rate_bound,
    vacuum_entropy,
)
from .records import read_record, write_record
from .simulator import (
    ATTACK_CATALOG,
    CATALOG_SOURCE,
    BlockRecord,
    ChannelModel,
    DiscreteDisplacement,
    EprSource,
    GaussianNoise,
    SiftingMode,
    TwoComponentMixture,
    UniformNoise,
    analytic_covariance,
    apply_attack,
    measure_alice,
    run_session,
    simulate_epr_pulse,
)
from .verify import (
    DiscreteJoint,
    InequalityReport,
    check_gaussian_dominance,
    check_mixture_lemma,
    check_pure_state_entropic_sum,
    check_subadditivity_chain,
)

__version__ = "0.1.0"
