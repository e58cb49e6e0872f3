"""Default tolerances and the failures of the solver and the chain analysis.

They live apart from the numerical modules, which import scipy, so the CLI
can read its defaults and map failures to exit codes without loading them.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10      # bound a solve's certified gap on |V - V*| must meet
DEFAULT_TAIL_TOL = 1e-8  # discounted cost a Monte Carlo path may leave unsampled


def check_integer(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is a Python or numpy integer, not a bool, and ``>= least``."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


class NonConvergenceError(RuntimeError):
    """No answer within tolerance: an iteration budget exhausted, a proper
    policy's system singular, out of memory or off its tolerance, or a
    certified gap above tol.  ``last`` is the
    last iterate, ``step`` its step, defect or gap."""

    def __init__(self, message: str, last: np.ndarray, step: float, iterations: int):
        super().__init__(message)
        self.last = last
        self.step = step
        self.iterations = iterations

    def __reduce__(self):  # so a worker process can hand it back
        return type(self), (self.args[0], self.last, self.step, self.iterations)


class ImproperChainError(RuntimeError):
    """Impulse chains fail to reach the gradual region.

    Raised when a sampled chain exceeds the guard, or when a policy's chain
    analysis, which its evaluation asks first, finds I - M singular or its
    landing mass off one.
    """

    def __init__(self, message: str, state: str):
        super().__init__(message)
        self.state = state

    def __reduce__(self):
        return type(self), (self.args[0], self.state)
