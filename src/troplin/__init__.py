"""Exact tropical convexity, valuated matroids, and tropical linear spaces.

All arithmetic is exact rational.  The package recognizes, via balancing and
chains-of-flats combinatorics, whether a weighted polyhedral fan or complex
is supported on the tropical linear space of a (valuated) matroid.

The exact simplex `troplin.lp` is not public API: it is the tests' hull
oracle, loaded with the package for the benchmark's traced mode, which wraps
`lp.lp_feasible` and then checks that every module binding is restored.
"""

from .complexes import (
    Cell,
    WeightedComplex,
    chain_fan,
    chn_cell_of,
    is_balanced,
    point_in_support,
    primitive_normal,
    recession_fan,
    segment_in_support,
    star_fan,
)
from .errors import (
    InvalidInputError,
    LoopyMatroidError,
    NotAMatroidError,
    ResourceLimitError,
)
from . import lp  # noqa: F401
from .matroids import (
    ChainFamily,
    Matroid,
    enumerate_matroids,
    matroid_from_bases,
    matroid_from_flats,
    verify_flat_family,
)
from .points import (
    Partition,
    Polytrope,
    TropPoint,
    canonicalize,
    flat_direction,
    heterogeneity,
    imax,
    imin,
    partition,
    segment,
    tconv_contains,
    trop_ball,
    trop_combine,
    trop_norm,
)
from .recognize import (
    LocalCheckReport,
    ProbeResult,
    RecognitionReport,
    convexity_probe,
    decide_complex,
    local_check,
    recognize_fan,
    recover_flat_family,
)
from .valuated import (
    ValuatedMatroid,
    certify_cell,
    check_pluecker,
    member,
)
