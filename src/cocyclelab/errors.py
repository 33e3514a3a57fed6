"""Exception types shared across the package."""


class CocycleLabError(Exception):
    """Base class for all package-specific errors."""


class BadOrder(CocycleLabError):
    """Cyclic order parameter below 2."""


class IndexOut(CocycleLabError, IndexError):
    """Face index outside the valid range of a tuple."""


class DegenerateConfig(CocycleLabError):
    """A simplex evaluation hit an undefined join."""


class QuadratureDiverged(CocycleLabError):
    """Two successive quadrature refinements disagree badly."""


class DomainGuard(CocycleLabError):
    """A cochain was evaluated on an inadmissible tuple."""


class NotNormal(CocycleLabError):
    """Subgroup is not normal in the ambient group."""


class BadReps(CocycleLabError):
    """Coset representatives do not represent each coset exactly once."""


class PredicateNotFaceClosed(CocycleLabError):
    """A tuple predicate admits a tuple but rejects one of its faces."""


class NotWellConfigured(CocycleLabError):
    """Chain complex is not exact in the degrees a construction requires."""


class NotAChainMap(CocycleLabError):
    """A retraction fails one of the identities a comparison map needs."""


class KernelObstruction(CocycleLabError):
    """Cochain does not vanish on a kernel basis vector."""


class StepTooLarge(CocycleLabError):
    """Finite-difference step left the domain of a cochain."""


class UnknownSuite(CocycleLabError):
    """Verification suite name not recognised."""


class ConfigParse(CocycleLabError):
    """Malformed key=value configuration input."""
