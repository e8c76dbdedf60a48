"""Exception hierarchy for the toolkit.

Exit-code mapping used by the CLI: UsageError -> 1, DataError -> 2,
NumericalError -> 3.
"""


class AtlasFuseError(Exception):
    """Base class for all toolkit errors."""


class UsageError(AtlasFuseError):
    """Bad arguments or configuration."""


class DataError(AtlasFuseError):
    """Malformed or inconsistent input data."""


class NumericalError(AtlasFuseError):
    """A numerical procedure failed to produce a usable result."""


# --- imgio ---

class MissingFile(DataError):
    pass


class BadMagic(DataError):
    """File is not single-file NIfTI-1 (magic != 'n+1'), or its header is unusable."""


class UnsupportedDatatype(DataError):
    pass


class DimMismatch(DataError):
    """dim[0] not 3 (or 4 with a size-1 fourth axis), or fewer data bytes than dim declares."""


class IoFailure(DataError):
    pass


class LabelOverflow(DataError):
    """Label code does not fit the int16 on-disk datatype."""


# --- grid ---

class GeometryMismatch(DataError):
    pass


class NonInvertibleTransform(NumericalError):
    pass


class EmptyBox(DataError):
    pass


class AllBackground(DataError):
    pass


# --- synth ---

class NonPositiveTI(UsageError):
    pass


# --- register ---

class DegenerateInput(DataError):
    """A constant-intensity or non-finite image cannot drive a similarity metric."""


class NoOverlap(DataError):
    """Fixed and moving fields of view are disjoint in world space."""


class FoldingDetected(NumericalError):
    """Deformable result folds space (positive-Jacobian fraction too low)."""


class InversionDiverged(NumericalError):
    pass


# --- fusion ---

class EmptyAtlasList(UsageError):
    pass


class SingularDependency(NumericalError):
    """JLF dependency matrix solve failed even with regularization."""


# --- metrics ---

class EmptyStructure(DataError):
    pass


class LengthMismatch(UsageError):
    pass


class RowMismatch(DataError):
    pass


class InsufficientSubjects(DataError):
    pass


# --- phantom ---

class OverlappingNuclei(DataError):
    pass


class JacobianViolation(NumericalError):
    pass
