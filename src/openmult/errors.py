"""Exception hierarchy shared by all openmult modules: every OpenMultError is
a refusal of the input (exit code 2) unless it is an InternalInvariantError (1)."""


class OpenMultError(Exception):
    """Base class for all library errors; a refusal names, where known, the
    violated `bound`, the offending `value` and the `limit` it breaks."""

    exit_code = 2

    def __init__(self, message, *, bound=None, value=None, limit=None):
        super().__init__(message)
        self.bound = bound
        self.value = value
        self.limit = limit


class InternalInvariantError(OpenMultError):
    """A certified step failed its own check: reaching this is a bug."""

    exit_code = 1


class PreconditionViolated(OpenMultError):
    """An operation was called outside its admissible input region."""


class DomainMismatch(PreconditionViolated):
    """Inputs live on different domains (bound "common domain")."""


class PerturbationTooLarge(PreconditionViolated):
    """The prescribed perturbation exceeds the certified radius."""


class EqualModulusRoots(OpenMultError):
    """Quadratic root selection is undefined: both roots have the same modulus."""

    def __init__(self, message, *, index=None, value=None):
        super().__init__(message, bound="distinct root moduli", value=index if value is None else value)
        self.index = index  # when named: the first tying node's flat index


class ZeroArgument(OpenMultError):
    """A nonzero complex argument was required."""


class NonUnimodularInput(OpenMultError):
    """A value expected on the unit circle was not unimodular."""


class CoverInfeasible(OpenMultError):
    """The grid is too coarse to place sublevel-cover seams; refine the grid."""


class BoundaryMismatch(OpenMultError):
    """Prescribed boundary data is inconsistent with the target product."""


class NormBudgetExceeded(OpenMultError):
    """Input data exceeds the norm budget of a factorization step."""


class VertexInconsistency(InternalInvariantError):
    """Edge-local construction disagrees with the pinned vertex values."""


class DegeneratePair(OpenMultError):
    """The pair is not jointly non-degenerate."""


class ClaimViolation(InternalInvariantError):
    """A per-iteration invariant of the inversion scheme failed."""

    def __init__(self, iteration, which, message=""):
        super().__init__(f"claim {which} failed at iteration {iteration}" + (f": {message}" if message else ""))
        self.iteration = iteration
        self.which = which


class NonConvergence(InternalInvariantError):
    """The iterative scheme hit its iteration cap before reaching tolerance."""
