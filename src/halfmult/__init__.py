"""Half-multiplicity Ramsey toolkit.

Exact and Monte Carlo independence probabilities on clique-free graphs, the
symplectic graph over F2, the neighborhood recursion and its bounds, and
verifiable random-homomorphism multicolor colorings.
"""

from .bounds import (
    BoundReport,
    KnownRamseyTable,
    cf_upper,
    multicolor_lower,
    n_binomial_diag_rate,
    n_binomial_lower,
    n_recursion,
    n_recursion_crossing,
    optimize_p,
    ramsey_lower_half,
    ramsey_upper_half,
    random_exponent,
    standard_report,
    stationarity_residual,
)
from .coloring import (
    ColoringCertificate,
    ConstructionFailure,
    VerifyResult,
    certificate_from_text,
    construct_coloring,
    pair_index,
    verify_certificate,
)
from .errors import BudgetError, CertificateFormatError, RamseyTableError
from .f2 import (
    SymplecticSpace,
    build_cf_graph,
    count_isotropic_subspaces,
    f2_rank,
)
from .graphs import (
    Graph,
    IndependenceProfile,
    complement,
    complete,
    cycle,
    edgeless,
    find_clique,
    from_edges,
    from_graph6,
    has_clique,
    independence_profile,
    max_clique_size,
    sample_er_graph,
    to_graph6,
)
from .prob import McEstimate, exact_independence_prob, mc_independence_prob, stirling2
from .search import SearchResult, enumerate_ktfree, min_independence_prob

__version__ = "0.1.0"
