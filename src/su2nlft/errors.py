"""Exception hierarchy.

Two broad families, mirroring the CLI exit codes: ``ValidationError``
(malformed input, bad sizes, unattested weights) and ``NumericalError``
(a numerical hypothesis of the method failed on otherwise well-formed
input).
"""


class NlftError(Exception):
    """Base class for all library errors."""


class ValidationError(NlftError):
    """Malformed or inconsistent input (CLI exit code 1)."""


class GridSizeError(ValidationError):
    """Grid too small for the requested support, or not a power of two."""


class CombinatoricsError(ValidationError):
    """Multilinear enumeration would exceed the term-count guard."""


class WeightError(ValidationError):
    """Weight fails a required property or lacks an attestation."""


class NumericalError(NlftError):
    """A numerical hypothesis failed (CLI exit code 2)."""


class VanishingSymbolError(NumericalError):
    """A symbol passed to grid division comes too close to zero."""


class SzegoMarginError(NumericalError):
    """sup |b| is too close to 1 for the logarithmic integral to make sense."""


class OuternessError(NumericalError):
    """Computed spectral factor has winding (zeros inside the disk)."""


class ConvergenceError(NumericalError):
    """A solve's residual exceeds the requested tolerance."""


class ConsistencyError(NumericalError):
    """An internal cross-check failed (e.g. non-positive leading value)."""


class DeterminantError(NumericalError):
    """A pair violates the determinant identity beyond tolerance."""
