"""Exception hierarchy shared by all modules."""


class ArithFractalError(Exception):
    """Base class for all library errors."""

    code = "Error"


class SpaceMismatchError(ArithFractalError):
    code = "SpaceMismatch"


class ZeroProjectivePointError(ArithFractalError):
    code = "ZeroProjectivePoint"


class UnsupportedMapKindError(ArithFractalError):
    code = "UnsupportedMapKind"


class UnsupportedSpaceError(ArithFractalError):
    code = "UnsupportedSpace"


class NonExpandingWeightError(ArithFractalError):
    code = "NonExpandingWeight"


class GridExceedsBoundError(ArithFractalError):
    code = "GridExceedsBound"


class InsufficientDataError(ArithFractalError):
    code = "InsufficientData"


class BoundTooLargeError(ArithFractalError):
    code = "BoundTooLarge"


class UndecidedError(ArithFractalError):
    code = "Undecided"


class PointNotOnCurveError(ArithFractalError):
    code = "PointNotOnCurve"


class PrecisionNotReachedError(ArithFractalError):
    code = "PrecisionNotReached"


class GeneratorIsTorsionError(ArithFractalError):
    code = "GeneratorIsTorsion"


class ConfigError(ArithFractalError):
    code = "ConfigParse"
