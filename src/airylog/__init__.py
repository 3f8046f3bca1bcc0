"""airylog: log-Airy integrals through independent analytic pipelines with
a quadrature oracle.

The package computes the two integrals of (Ai'(x)/Ai'(0))^alpha times its
logarithm (alpha = 1, 2) through root-based series, closed-form ODE
solutions, incomplete Mellin transforms and zeta-accelerated sums, and
certifies every route against adaptive quadrature.
"""

from .ddreal import XReal
from .errors import (
    AccuracyError,
    ConvergenceError,
    DependencyError,
    DomainError,
    IterationError,
    RangeError,
    StabilityError,
)
from .kernel import (
    AI0,
    AIP0,
    ETA,
    HypSeries,
    compensated_sum,
    hyp_pfq,
    pochhammer,
    smalla_sum,
)
from .airy import AiryState, JPair, airy
from .roots import RootTable, refine_root, root_seed, roots_upto
from .zeta import zeta_closed, zeta_eta_poly, zeta_incomplete, zeta_tail
from .oracle import (
    integrate_halfline,
    oracle_integral1,
    oracle_integral2,
    oracle_mellin,
    oracle_stieltjes,
)
from .results import TransformResult, TruncationConfig
from .mellin1 import (
    PQPoly,
    amatrix_row,
    mellin_closed,
    mellin_family,
    mellin_prime,
    pq_row,
    xi_lambda_derivs,
)
from .mellin2 import (
    Jn_smalla,
    PqrPoly,
    PQRPoly2,
    calI,
    calI_bform,
    irreducible_neg1,
    mellin2,
    pqr2_row,
    pqr_row,
)
from .stieltjes1 import (
    StieltjesContext,
    bigI1_closed,
    bigI_asym,
    bigI_recurrence,
    bigI_relations,
    bigI_smalla,
    integral1_accelerated,
    integral1_series,
)
from .stieltjes2 import (
    J1Solution,
    J_recurrences,
    bigJ_asym,
    bigJ_closed,
    bigJ_term,
    constants_c,
    integral2_accelerated,
    integral2_series,
    solve_J1,
)

__version__ = "0.1.0"
