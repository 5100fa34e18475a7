"""Certified counting of closed manifolds assembled from glued blocks.

The pipeline: exact arithmetic over Q, local invariants of diagonal
quadratic forms, two one-parameter form families (over Q and Q(sqrt(2)))
whose members are FamilyForm(family, a, n) values with pairwise
non-commensurability certificates, index-k subgroup enumeration in the rank-2
free group, decorated Schreier graphs with a common-cover decision, and
graph-of-spaces assembly with a volume-budget counting bound.
"""

from .assembler import (
    CountReport,
    ManifoldDescriptor,
    Parcel,
    TraceResult,
    assemble,
    commensurability_verdict,
    count_lower_bound,
    default_parcel,
    descriptor_from_json,
    descriptor_to_json,
    emit_descriptors,
    trace_word,
    volume_bound,
)
from .decorated_graphs import (
    DecoratedGraph,
    check_cover,
    from_subgroup,
    graph_from_text,
    graph_to_text,
    has_common_decorated_cover,
)
from .exact_arith import (
    PrimalityRangeError,
    factor_int,
    is_prime,
    legendre_symbol,
    padic_valuation,
    sqrt_mod,
    squarefree_part,
)
from .form_families import (
    FamilyForm,
    NonCommensurabilityCertificate,
    make_q,
    make_r,
    noncommensurability_certificate,
    search_primes_anisotropic,
    search_primes_isotropic,
)
from .free_groups import (
    Word,
    distinguishing_word,
    enumerate_subgroups,
    hall_count,
    subgroup_table,
)
from .local_invariants import (
    DYADIC,
    REAL,
    Place,
    hasse_witt,
    hilbert,
    odd_place,
)

__version__ = "0.1.0"
