"""Exception types shared across the package."""


class DimensionError(ValueError):
    """An input vector does not match the dimension a function expects."""


class IntegrationError(RuntimeError):
    """Leapfrog integration produced a non-finite energy, gradient or state.

    Carries the offending position ``x`` and momentum ``v`` and, when raised
    from a chain run, whatever samples were collected before the failure.
    """

    def __init__(self, message, x=None, v=None, partial_chain=None):
        super().__init__(message)
        self.x, self.v = x, v
        self.partial_chain = partial_chain


class DegenerateLadderError(ValueError):
    """A ladder-derived matrix has a state with no outgoing transitions."""


class DegenerateChainError(ValueError):
    """A chain has zero variance in some dimension, so autocorrelation is undefined."""


class DecayFitError(RuntimeError):
    """Every candidate decay rate produced a non-finite objective."""
