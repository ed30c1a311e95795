"""Extended-precision evaluation and verification of hypergeometric,
bilateral, basic, and bilateral basic hypergeometric series identities."""

from .catalog import CATALOG, IdentityCase, phi_sum, phi_via_3f2, tolerance_rule
from .errors import (
    AccelerationFailed,
    BudgetExceeded,
    CancellationError,
    DivergentError,
    DivisionByZero,
    DomainError,
    HyperidError,
    IndeterminateError,
    LowerPoleError,
    NotConvergent,
    PoleError,
    SamplingExhausted,
    UnknownIdentityError,
)
from .gammafn import gamma_ratio
from .harness import SuiteConfig, run_suite, sample_parameters, verify_one
from .precision import INF, PrecisionContext, to_mp
from .qseries import (
    QContext,
    QSeriesSpec,
    principal_sqrt,
    q_bracket,
    q_pochhammer,
    split_psi,
    sum_q_series,
)
from .series import (
    ConvergenceClass,
    SeriesResult,
    SeriesSpec,
    classify,
    split_bilateral,
    sum_bilateral,
    sum_unilateral,
)

__version__ = "0.1.0"
