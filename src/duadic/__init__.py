"""Binary duadic codes of length 2^m - 1 from 2-weight residue classes.

Construction of the weight-class cyclic codes, certification of their
duadic splitting and BCH-based distance lower bounds, dual and extended
codes with self-dual/doubly-even certificates, and exact minimum
distances at enumeration scale.
"""

from .bounds import (
    BchCertificate,
    HypothesisError,
    best_certificate,
    default_v_candidates,
    max_ap_run,
    sqrt_bounds,
    verify_lemma_membership,
)
from .code import (
    CyclicCode,
    ExtendedCode,
    dual,
    extend,
    from_defining_set,
    is_doubly_even,
    is_self_dual,
)
from .cyclotomic import (
    CyclotomicCoset,
    DefiningSet,
    WeightClassSpec,
    complement_spec,
    coset,
    defining_set,
)
from .gf2m import GF2m, field
from .mindist import (
    CertifiedBound,
    WeightDistribution,
    bounded_min_distance,
    exact_min_distance,
    weight_distribution,
)
from .pairs import (
    TheoremVerdict,
    classify,
    enumerate_catalog,
    is_duadic,
)

__all__ = [
    "BchCertificate",
    "CertifiedBound",
    "CyclicCode",
    "CyclotomicCoset",
    "DefiningSet",
    "ExtendedCode",
    "GF2m",
    "HypothesisError",
    "TheoremVerdict",
    "WeightClassSpec",
    "WeightDistribution",
    "best_certificate",
    "bounded_min_distance",
    "classify",
    "complement_spec",
    "coset",
    "default_v_candidates",
    "defining_set",
    "dual",
    "enumerate_catalog",
    "exact_min_distance",
    "extend",
    "field",
    "from_defining_set",
    "is_doubly_even",
    "is_duadic",
    "is_self_dual",
    "max_ap_run",
    "sqrt_bounds",
    "verify_lemma_membership",
    "weight_distribution",
]

__version__ = "0.1.0"
