"""Exact arithmetic for weighted projective spaces over Q: weighted
heights, weighted gcds, subscheme heights, bounded-height point search,
and an empirical harness for gcd-bound inequalities."""

__version__ = "1.0.0"

from .exactnum import (
    INFINITE_PLACE,
    INFINITY,
    DomainError,
    FormalLog,
    ParseError,
    Place,
    PrimeFactorization,
    factor,
    ord_at,
    ord_plus,
)
from .wspace import (
    WeightVector,
    classify,
    is_singular,
    parse_weights,
    reduce_weights,
    well_formalize,
)
from .wpoint import (
    WPoint,
    act,
    canonicalize,
    equals,
    integralize,
    normalize,
    parse_point,
    veronese,
    wgcd,
    wgcd_tuple,
)
from .wheight import (
    SplitHeight,
    classical_height_log,
    hgcd,
    hwgcd_mult,
    local_height,
    log_hwgcd_point,
    log_hwgcd_tuple,
    lwh,
    split_height_S,
    wh_m_power,
)
from .wpoly import (
    SubschemeSpec,
    WPoly,
    global_height_Y,
    local_height_Y,
    log_gcd_Y,
    log_gcd_residual,
    parse as parse_poly,
    parse_wpoly_file,
)
from .search import (
    PackedHits,
    SearchConfig,
    SearchHit,
    SearchReport,
    brute_force_oracle,
    enumerate_bounded,
    search,
    search_hypersurface,
)
from .vojtalab import (
    DeltaEstimate,
    ExceptionalCandidate,
    ScanConfig,
    ScanRecord,
    ScanReport,
    estimate_delta,
    exceptional_candidates,
    scan,
)
