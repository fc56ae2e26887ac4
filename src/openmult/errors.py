"""Exception hierarchy shared by all openmult modules."""


class OpenMultError(Exception):
    """Base class for all library errors."""

    # CLI exit status: 1 for an internal invariant failure; subclasses that
    # refuse the input (a violated bound, a malformed or out-of-scope input) set 2.
    exit_code = 1


class DomainMismatch(OpenMultError):
    """Two functions live on different domains."""

    exit_code = 2


class PreconditionViolated(OpenMultError):
    """An operation was called outside its admissible input region."""

    exit_code = 2

    def __init__(self, message, *, bound=None, value=None, limit=None):
        super().__init__(message)
        self.bound = bound
        self.value = value
        self.limit = limit


class PerturbationTooLarge(PreconditionViolated):
    """The prescribed perturbation exceeds the certified radius."""


class EqualModulusRoots(OpenMultError):
    """Quadratic root selection is undefined: both roots have the same modulus."""

    exit_code = 2

    def __init__(self, message, *, index=None):
        super().__init__(message)
        self.index = index  # when named: the first tying node's flat index


class ZeroArgument(OpenMultError):
    """A nonzero complex argument was required."""

    exit_code = 2


class NonUnimodularInput(OpenMultError):
    """A value expected on the unit circle was not unimodular."""

    exit_code = 2


class CoverInfeasible(OpenMultError):
    """The grid is too coarse to place sublevel-cover seams; refine the grid."""

    exit_code = 2


class BoundaryMismatch(OpenMultError):
    """Prescribed boundary data is inconsistent with the target product."""

    exit_code = 2


class NormBudgetExceeded(OpenMultError):
    """Input data exceeds the norm budget of a factorization step."""

    exit_code = 2


class VertexInconsistency(OpenMultError):
    """Edge-local construction disagrees with the pinned vertex values."""


class DegeneratePair(OpenMultError):
    """The pair is not jointly non-degenerate."""

    exit_code = 2


class ClaimViolation(OpenMultError):
    """A per-iteration invariant of the inversion scheme failed."""

    def __init__(self, iteration, which, message=""):
        super().__init__(f"claim {which} failed at iteration {iteration}" + (f": {message}" if message else ""))
        self.iteration = iteration
        self.which = which


class NonConvergence(OpenMultError):
    """The iterative scheme hit its iteration cap before reaching tolerance."""
