"""Exception types shared across the package."""


class SplitAvgError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SplitAvgError, ValueError):
    """Invalid configuration (bad shapes, non-PSD covariance, bad parameters)."""


class DivisibilityError(ConfigError):
    """Machine count does not divide the sample count."""


class UnsupportedDerivativeError(SplitAvgError, ValueError):
    """Requested derivative order exceeds the loss's smoothness."""


class NonDifferentiableError(SplitAvgError, ValueError):
    """Derivative requested at a point where the loss is not differentiable."""


class NumericalError(SplitAvgError, RuntimeError):
    """A numerical routine failed to produce a reliable result."""


class ProxFailureError(NumericalError):
    """Proximal-operator Newton iteration did not converge."""


class SingularHessianError(NumericalError):
    """Hessian (or normal-equations matrix) is numerically singular.

    From a stacked fit, ``index`` is the lowest singular slice, counting a
    stack in C order, and ``reports`` holds the Newton fits of the slices
    below it.
    """

    def __init__(self, message, index=0, reports=()):
        super().__init__(message)
        self.index = index
        self.reports = list(reports)


class RankError(SingularHessianError):
    """Closed-form least-squares system is rank deficient."""


class SolverFailureError(NumericalError):
    """Coupled residual-equation solver did not converge."""

    def __init__(self, message, residual_trace=None):
        super().__init__(message)
        self.residual_trace = residual_trace if residual_trace is not None else []


class DegenerateLossError(NumericalError):
    """Loss curvature moment is non-positive; perturbation series undefined."""


class InfeasiblePlanError(SplitAvgError):
    """No machine count satisfies the requested error bound."""

    def __init__(self, message, error_at_one=None):
        super().__init__(message)
        self.error_at_one = error_at_one


class MachineFitError(NumericalError):
    """A per-machine fit failed inside a replication."""

    def __init__(self, message, machine_index):
        super().__init__(message)
        self.machine_index = machine_index
