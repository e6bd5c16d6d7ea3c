"""Exception types shared across the package."""


class DomainUQError(Exception):
    """Base class for all numerical and usage errors raised by domainuq.

    `index`, when not None, is the position of the failing item within
    the block being worked on: a column of a block solve, a realization of
    a block of them, or an item of a `uq` solve block.
    """

    def __init__(self, *args, index: int | None = None):
        super().__init__(*args)
        self.index = index


class DegenerateDeformation(DomainUQError):
    """A displaced mesh contains a triangle with non-positive signed area."""


class NonPositiveCoefficient(DomainUQError):
    """A diffusion coefficient was not strictly positive at a quadrature point."""


class SolverDiverged(DomainUQError):
    """The iterative linear solver hit its iteration cap before converging."""


class NonFiniteValue(DomainUQError):
    """A load, matrix or residual of a linear solve held a NaN or an infinity."""


class WorkerDied(DomainUQError):
    """A worker process ended before it returned the result of its task."""


class NotPSD(DomainUQError):
    """A pivot diagonal of the covariance fell significantly below zero."""


class EigFailed(DomainUQError):
    """The dense symmetric eigensolver did not converge."""


class OutOfHoldAll(DomainUQError):
    """A point lies outside the hold-all box on which the coefficient is defined."""


class MeshMismatch(DomainUQError):
    """Two nodal quantities refer to different meshes."""


class NonPositiveData(DomainUQError):
    """Log-log slope fitting received non-positive abscissae or ordinates."""


class ConfigError(DomainUQError):
    """An experiment configuration is missing, malformed, or inconsistent."""
