"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A circuit parameter violates its invariants (message names the field)."""


class ConfigError(ValueError):
    """A basis/run configuration is unusable."""


class BracketError(ConfigError):
    """A search bracket does not contain the minimum."""


class NumericsError(RuntimeError):
    """A numerical operation failed (ill-conditioning, overflow...)."""


class SolverError(NumericsError):
    """The eigensolver failed to reach its residual contract."""


class TruncationError(SolverError):
    """The hierarchical product basis leaves out levels that move the result beyond its tolerance.

    Carries the refused ``spectrum`` (when available) and the estimated
    ``zeta_shift_khz`` from the left-out levels.
    """

    def __init__(self, message, spectrum=None, zeta_shift_khz=None):
        super().__init__(message)
        self.spectrum = spectrum
        self.zeta_shift_khz = zeta_shift_khz


class LabelingError(RuntimeError):
    """Dressed-state labeling could not produce the required confident labels.

    Carries the offending ``SpectrumResult`` (when available) as ``spectrum``
    for diagnosis.
    """

    def __init__(self, message, spectrum=None, candidates=None):
        super().__init__(message)
        self.spectrum = spectrum
        self.candidates = candidates


class ModelError(ValueError):
    """The perturbative model left its domain of validity."""


class FitError(RuntimeError):
    """A decay fit failed or produced an invalid result."""
