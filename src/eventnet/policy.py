"""Central numeric policy.

Every tolerance, floor and cap a run can set lives in one frozen
dataclass, and it is the only way to set one, so a run is reproducible
from its echoed policy block alone.  The branch cap is ``branch_cap``; a
run config sets it, like any other field, in its ``policy`` block.
Values are checked on construction.
"""

import numbers
import sys
from dataclasses import dataclass, asdict, fields


def is_integer_at_least(value, low: int) -> bool:
    """True for an integer of at least ``low``; bools and floats are refused."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low)


def is_real_number(value) -> bool:
    """True for a real number; bools are refused."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances and limits shared by all numeric routines.

    Raises ``ValueError`` when an int field is not an integer of at least
    1, or a float field is not a non-negative real number a float can hold
    (NaN, infinities and integers beyond float range are refused); bools
    are refused for both.
    """

    # linear algebra on operator spans
    tol_basis: float = 1e-10        # Hilbert-Schmidt orthonormality of algebra bases
    tol_closure: float = 1e-10      # span-membership residuals and null-space cutoffs
    tol_proj: float = 1e-9          # projection-family checks (idempotent, orthogonal, complete)

    # states
    tol_psd: float = 1e-12          # allowed negative slack on state eigenvalues
    tol_trace: float = 1e-12        # allowed deviation of a state trace from 1
    trace_floor: float = 1e-9       # smallest trace surviving support clamping

    # state representations and conditioning
    tol_gns_null: float = 1e-10     # relative cutoff for null directions of the Gram matrix
    eps_floor: float = 1e-6         # smallest admissible projection weight when conditioning

    # events and branching
    gap_min: float = 1e-6           # eigenvalue clustering threshold
    prob_floor: float = 1e-9        # smallest probability counted as strictly positive
    tol_tree: float = 1e-9          # read by nothing in the package; report checks use it
                                    # as the slack on listed leaves + pruned_mass = 1
    tol_commutation: float = 1e-9   # spacelike commutator norms treated as zero
    match_threshold: float = 0.5    # projection matching radius in operator norm

    # retries and caps
    max_retries: int = 8            # generic-element retries in minimal-projection search
    dimension_cap: int = 4096       # largest ambient Hilbert dimension a net may use
    branch_cap: int = 10_000        # largest number of live branches a tree may hold

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int:
                if not is_integer_at_least(value, 1):
                    raise ValueError(f"{f.name}: {value!r} is not an integer of at least 1")
            elif not is_real_number(value) or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"{f.name}: {value!r} is not a finite, non-negative number")

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_POLICY = NumericPolicy()
