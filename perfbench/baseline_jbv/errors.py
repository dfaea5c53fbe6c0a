"""Exception types shared across the package."""


class DegenerateBlockError(ValueError):
    """A transfer block has |trace| at 2, so the eigenvalue pair collapses."""


class NonDiagonalizableFrameError(ValueError):
    """The lower-left entry of a transfer block vanishes, so the eigenvector
    frame used for diagonalization is singular."""


class OutsideBandError(ValueError):
    """A real energy lies outside the open band region required here."""


class HorizonError(ValueError):
    """A coefficient index lies beyond the realized horizon of a finitely
    constructed schedule."""


class PoleOfMError(ArithmeticError):
    """The Weyl function has (numerically) a pole at the requested point."""


class PreconditionError(ValueError):
    """A checked precondition of a verification routine failed; the message
    names the offending check."""


class RootIsolationError(RuntimeError):
    """Root isolation for a discriminant did not account for every band edge;
    the message carries diagnostics."""
