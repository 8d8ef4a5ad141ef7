"""Exception types shared across the package.

Every numerical failure derives from ``NumericsError`` (the CLI's exit 3);
a usage, parameter or configuration error is a ``ValueError`` (exit 2).
"""


class ParameterError(ValueError):
    """A circuit parameter violates its invariants (message names the field)."""


class ConfigError(ValueError):
    """A basis/run configuration is unusable."""


class BracketError(ConfigError):
    """A search bracket does not contain the minimum."""


class NumericsError(RuntimeError):
    """A numerical operation failed (ill-conditioning, overflow...)."""


class SolverError(NumericsError):
    """An eigensolve failed its residual contract, or its operator is too large."""


class TruncationError(SolverError):
    """The product basis did not settle below its largest energy cutoff, or left out a product it must keep."""


class LabelingError(NumericsError):
    """Dressed-state labeling could not produce the required confident labels.

    Carries the offending ``SpectrumResult`` (when available) as ``spectrum``
    for diagnosis.
    """

    def __init__(self, message, spectrum=None, candidates=None):
        super().__init__(message)
        self.spectrum = spectrum
        self.candidates = candidates


class ModelError(NumericsError):
    """The perturbative model left its domain of validity."""


class FitError(NumericsError):
    """A decay fit failed or produced an invalid result."""
