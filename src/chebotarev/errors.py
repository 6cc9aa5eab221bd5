"""Exception hierarchy shared across the package."""


class ChebotarevError(Exception):
    """Base class for all package-specific errors."""


class DegreeMismatchError(ChebotarevError):
    """A permutation has the wrong degree for the requested operation."""


class InvariantError(ChebotarevError):
    """An internal invariant failed: a package bug or inconsistent hand-built input."""


class OrderCapError(ChebotarevError):
    """A group (or enumeration) exceeds the configured desk-scale cap."""


class NotNormalError(ChebotarevError):
    """The given subgroup is not normal in its parent."""


class BadSectionError(ChebotarevError):
    """X/Y is not a valid section: X or Y lies in another group or is not normal,
    Y is not inside X, or X/Y is nonabelian (the subclass ``NotAbelianFactorError``)."""


class TrivialGroupError(ChebotarevError):
    """The operation is undefined for the trivial group."""


class NotAbelianFactorError(BadSectionError):
    """The section is nonabelian where an abelian one is required."""


class NotChiefFactorError(ChebotarevError):
    """X/Y is trivial, not elementary abelian, or has a normal subgroup strictly between."""


class NotIrreducibleError(ChebotarevError):
    """The commutant of the module action is not a field, so the module is not irreducible."""


class TooManySievesError(ChebotarevError):
    """More reduced conjugate-unions than the exact engine's cap allows."""


class NotPrimeError(ChebotarevError):
    """An argument required to be prime is not."""


class BadProbabilityError(ChebotarevError):
    """A probability argument lies outside (0, 1]."""


class UnclassifiedRatioError(ChebotarevError):
    """The waiting-time ratio check failed but matches none of the known exceptional cases."""


class TrialCapError(ChebotarevError):
    """A Monte Carlo trial could never end: some union is all of G (sieve-system bug)."""


class ParseError(ChebotarevError):
    """A group specification string is malformed."""


class SingularMatrixError(ChebotarevError):
    """A matrix given as a linear-group generator is not invertible mod p."""
