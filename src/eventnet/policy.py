"""Central numeric policy.

Every tolerance, floor and cap a run can set lives in one frozen
record, and it is the only way to set one, so a run is reproducible
from its echoed policy block alone.  The branch cap is ``branch_cap``; a
run config sets it, like any other field, in its ``policy`` block.
Values are checked on construction.
"""

import numbers
import sys


def is_integer_at_least(value, low: int) -> bool:
    """True for an integer of at least ``low``; bools and floats are refused."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low)


def is_real_number(value) -> bool:
    """True for a real number; bools are refused."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class FrozenRecord:
    """Base of a plain class whose fields, named in ``_fields``, are set once.

    ``__init__`` writes them to the instance ``__dict__``; assigning or
    deleting one afterwards raises ``AttributeError``.  Two records are
    equal when they are of one class and their fields are equal.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class NumericPolicy(FrozenRecord):
    """Tolerances and limits shared by all numeric routines.

    Built by keyword only; each field left out takes the default below.
    Raises ``TypeError`` for a name that is not a field, and ``ValueError``
    when an int field is not an integer of at least 1, or a float field is
    not a non-negative real number a float can hold (NaN, infinities and
    integers beyond float range are refused); bools are refused for both.
    """

    # linear algebra on operator spans
    tol_closure: float = 1e-10      # span-membership residuals, rank and null-space cutoffs,
                                    # algebra-basis orthonormality and GNS null directions
    tol_proj: float = 1e-9          # projection-family checks (idempotent, orthogonal, complete)

    # states
    tol_psd: float = 1e-12          # allowed negative slack on state eigenvalues
    tol_trace: float = 1e-12        # allowed deviation of a state trace from 1

    # conditioning
    eps_floor: float = 1e-6         # smallest admissible projection weight when conditioning

    # events and branching
    gap_min: float = 1e-6           # eigenvalue clustering threshold
    prob_floor: float = 1e-9        # smallest branch weight or clamped support trace kept
    tol_tree: float = 1e-9          # read by no package code; echoed in the report, where
                                    # the benchmark's tree-mass check reads it as the slack
                                    # on listed leaves + pruned_mass = 1
    tol_commutation: float = 1e-9   # spacelike commutator norms treated as zero
    match_threshold: float = 0.5    # projection matching radius in operator norm

    # caps
    dimension_cap: int = 4096       # largest ambient Hilbert dimension a net may use
    branch_cap: int = 10_000        # largest number of live branches a tree may hold

    _fields = tuple(__annotations__)

    def __init__(self, **values):
        if unknown := values.keys() - self.__annotations__.keys():
            raise TypeError(f"NumericPolicy has no fields {sorted(unknown)}")
        for name, kind in self.__annotations__.items():
            value = values.get(name, getattr(NumericPolicy, name))
            if kind is int:
                if not is_integer_at_least(value, 1):
                    raise ValueError(f"{name}: {value!r} is not an integer of at least 1")
            elif not is_real_number(value) or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"{name}: {value!r} is not a finite, non-negative number")
            self.__dict__[name] = value

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


DEFAULT_POLICY = NumericPolicy()
