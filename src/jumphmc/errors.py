"""Exception types shared across the package."""


class DimensionError(ValueError):
    """An input vector does not match the dimension a function expects."""


class IntegrationError(RuntimeError):
    """Leapfrog integration produced a non-finite energy, gradient or state.

    Carries the offending position ``x`` and momentum ``v``.  A chain run
    sets ``partial_chain`` to the rows it recorded before the failure.
    """

    def __init__(self, message, x=None, v=None):
        super().__init__(message)
        self.x, self.v, self.partial_chain = x, v, None


class DegenerateLadderError(ValueError):
    """A ladder-derived matrix has a state with no outgoing transitions."""


class DegenerateChainError(ValueError):
    """A chain has zero variance in some dimension, so autocorrelation is undefined."""


class DecayFitError(RuntimeError):
    """No decay rate can be fit: no finite objective, or a lag window inside one step."""
