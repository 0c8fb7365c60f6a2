"""The leapfrog operator L on a phase-space point (x, v), as one call.

No module of the package calls :func:`leapfrog_with_grad`: the samplers
call the target's ``trajectory`` directly.  It stays for
``bench/hooks.py``, whose ``phase.leapfrog`` span wraps it and reads
``grad0`` as the fourth positional argument.
"""

from __future__ import annotations

import numpy as np


def leapfrog_with_grad(zeta, params, ef, grad0=None):
    """L of ``zeta = (x, v)`` with ``params = (epsilon, steps)``: the endpoint
    (x, v, grad, potential) that ``ef.trajectory`` returns.

    ``grad0``, the gradient at x, saves one evaluation where a caller has
    it.  Raises IntegrationError from ``ef.trajectory``.
    """
    x, v = zeta
    if grad0 is None:
        with np.errstate(over="ignore", invalid="ignore"):
            grad0 = ef.gradient(x)
    return ef.trajectory(x, v, grad0, *params)
