"""gompkit: greedy multi-index sparse recovery with isometry certification.

Recovers sparse signals from linear observations by generalized orthogonal
matching pursuit (N indices per iteration; N = 1 is plain OMP), computes
restricted-isometry constants exactly by enumeration or analytically for
diagonal-times-orthogonal matrices, verifies the selection guarantees
numerically, and reproduces noise-free and noisy recovery experiments from
seeded instances.
"""

from .exceptions import BudgetExceeded, GompkitError, RankDeficient
from .greedy import (
    GompParams,
    IterationRecord,
    RecoveryTrace,
    Termination,
    gomp_run,
    select_top_n,
)
from .harness import (
    CellResult,
    Instance,
    TrialReport,
    emit_report,
    gen_instance,
    run_trials,
    write_instance,
)
from .linops import (
    SensingMatrix,
    least_squares,
    orthogonal_factor,
    project_complement,
)
from .metrics import SparseSignal, mar, snr, snr_threshold
from .rip import (
    Condition,
    RicEstimate,
    RicKind,
    check_recovery_condition,
    condition_threshold,
    du_ric_bound,
    exact_ric,
    spectral_ric_bound,
)
from .verify import (
    LemmaInstance,
    lemma4_sides,
    random_lemma_instance,
    verify_lemma4,
    verify_selection_condition,
    verify_stopping,
)

__all__ = [
    "BudgetExceeded",
    "CellResult",
    "Condition",
    "GompParams",
    "GompkitError",
    "Instance",
    "IterationRecord",
    "LemmaInstance",
    "RankDeficient",
    "RecoveryTrace",
    "RicEstimate",
    "RicKind",
    "SensingMatrix",
    "SparseSignal",
    "Termination",
    "TrialReport",
    "check_recovery_condition",
    "condition_threshold",
    "du_ric_bound",
    "emit_report",
    "exact_ric",
    "gen_instance",
    "gomp_run",
    "least_squares",
    "lemma4_sides",
    "mar",
    "orthogonal_factor",
    "project_complement",
    "random_lemma_instance",
    "run_trials",
    "select_top_n",
    "snr",
    "snr_threshold",
    "spectral_ric_bound",
    "verify_lemma4",
    "verify_selection_condition",
    "verify_stopping",
    "write_instance",
]

__version__ = "0.1.0"
