"""Exception types shared across the library.

Every raisable condition has its own class so callers can catch precisely;
"absence of a solution" is never an exception but a ``None`` return.
"""


class KatoforgeError(Exception):
    """Base class for all library errors."""


class NonPrime(KatoforgeError):
    def __init__(self, p):
        super().__init__(f"{p} is not prime")
        self.p = p


class ResourceLimit(KatoforgeError):
    """A requested object exceeds the configured size bounds."""


class ConfigMismatch(KatoforgeError):
    """Operands belong to different fields / Witt structures."""


class DivisionByZero(KatoforgeError):
    pass


class ZeroPolynomial(KatoforgeError):
    pass


class DegreeOverflow(KatoforgeError):
    """A wedge product exceeds the number of variables."""


class DlogOfZero(KatoforgeError):
    pass


class NotConstant(KatoforgeError):
    """A constant value was asked of a non-constant rational function."""


class NotClosed(KatoforgeError):
    """The Cartier operator was applied to a form with d(form) != 0."""

    def __init__(self, form):
        super().__init__(f"form is not closed: {form}")
        self.form = form


class DegreeMismatch(KatoforgeError):
    pass


class NormShapeUnsupported(KatoforgeError):
    """A symbol has more than one entry outside the base field image."""


class LevelDecrease(KatoforgeError):
    """Level maps only go up."""


class UnsupportedField(KatoforgeError):
    """The operation is not decidable over this field class."""


class UnsupportedDegree(KatoforgeError):
    """The operation is only available in the stated symbol degrees."""


class PrecisionExhausted(KatoforgeError):
    """A truncated series does not carry enough coefficients."""


class WildClass(KatoforgeError):
    """Standard-form reduction left a pole of order prime to p."""

    def __init__(self, reduced):
        super().__init__(f"wildly ramified class; reduced form: {reduced}")
        self.reduced = reduced


class IntegralityViolation(KatoforgeError):
    """A division expected to be exact (by p, or of one polynomial by
    another) left a remainder; indicates an implementation bug."""


class ScriptError(KatoforgeError):
    """Syntax or name error in the CLI expression language."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if col is not None:
                loc += f" col {col}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.col = col


class UnknownName(ScriptError):
    pass


class CorruptCache(KatoforgeError):
    """A structure-cache file cannot be parsed."""


class VerifyMismatch(KatoforgeError):
    """A cache file does not match its recomputation."""

    def __init__(self, path):
        super().__init__(f"cache file differs from recomputation: {path}")
        self.path = path
