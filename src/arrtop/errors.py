"""Exception hierarchy.

InputError covers malformed input data, PreconditionError violated
mathematical preconditions, and InternalInconsistency an identity the
computation guarantees that failed; each carries the CLI's exit code for
its family (2, 3, 4).  The work bound that stages count against is read
here, and the value records of the other modules share their base here.
"""

import os as _os

DEFAULT_WORK_BOUND = 10 ** 6
WORK_BOUND_ENV = "ARRTOP_WORK_BOUND"


class ArrtopError(Exception):
    pass


class InputError(ArrtopError):
    exit_code = 2


class PreconditionError(ArrtopError):
    exit_code = 3


class InternalInconsistency(ArrtopError):
    """An identity that holds for every valid input failed: a defect in the
    computation, not in the input.  Raised, not asserted, so the checks
    still run under python -O."""

    exit_code = 4


# exact arithmetic

class ZeroConstantTerm(PreconditionError):
    """Power-series expansion of p/q needs q(0) != 0."""


class InexactDivision(PreconditionError):
    """Polynomial division left a nonzero remainder."""


# arrangements

class ZeroForm(InputError):
    """A defining covector is identically zero."""


class EmptyArrangement(InputError):
    """No hyperplanes remain after normalization."""


class NotEssential(PreconditionError):
    """Operation requires an essential arrangement."""


class HyperplaneContainsSubspace(PreconditionError):
    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"hyperplane {index} contains the subspace")


class NotL0Generic(PreconditionError):
    """Some hyperplane contains the subspace; level-0 genericity fails."""


class RankOutOfRange(PreconditionError):
    pass


class SamplingFailed(PreconditionError):
    """Seeded rejection sampling drew no subspace of the requested
    dimension and genericity level within its attempt budget."""


# Orlik-Solomon / enveloping algebra

class WorkBoundExceeded(PreconditionError):
    """A stage's work size (a tensor-slice dimension, lcs max_k^2, or the
    flats of a lattice) exceeds the configured work bound."""


def _work_bound(override=None):
    """The work bound: the override, else ARRTOP_WORK_BOUND, else the
    default.  A set, nonempty ARRTOP_WORK_BOUND must be a positive decimal
    integer."""
    if override is not None:
        return override
    env = _os.environ.get(WORK_BOUND_ENV) or str(DEFAULT_WORK_BOUND)
    if not (env.isascii() and env.isdigit() and int(env) > 0):
        raise ParseError(
            f"{WORK_BOUND_ENV} must be a positive integer, got {env!r}"
        )
    return int(env)


# polar / singularity formulas

class InconsistentMilnorData(PreconditionError):
    """Milnor numbers exceed (d-1)^n; the input data is inconsistent."""


class NonIntegerMu(PreconditionError):
    """Weighted-homogeneous Milnor product is not an integer."""


class NonIsolated(PreconditionError):
    """Weights admit no isolated singularity (some factor <= 0)."""


class InconsistentCount(PreconditionError):
    """Critical-point count below the smooth contribution."""


# graded homotopy data

class NotSupersolvable(PreconditionError):
    def __init__(self, level, message=None):
        self.level = level
        super().__init__(
            message or f"no modular coatom chain extends at rank level {level}"
        )


class NonIntegerRank(PreconditionError):
    """A rank that must be a nonnegative integer came out otherwise."""


class NegativeCoefficient(PreconditionError):
    """A series guaranteed nonnegative produced a negative coefficient."""


class FrameworkNotApplicable(PreconditionError):
    """Section is not at least 2-generic; the homotopy framework does not apply."""


class NotProperSection(PreconditionError):
    """Section rank equals the ambient rank; no nontrivial homotopy group."""


# I/O

class ParseError(InputError):
    pass


# value records

_set = object.__setattr__


class _Record:
    """Base of the immutable value records.  A record names its fields,
    in constructor order, in _fields, holds them in __slots__, and sets
    them in its own __init__ through _set; assigning or deleting one
    afterwards raises AttributeError.  Records equal records of their own
    class with equal fields, hash as the tuple of their fields, print as
    Name(field=value, ...) and copy (copy, deepcopy, pickle) by calling
    the constructor on their fields."""

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
