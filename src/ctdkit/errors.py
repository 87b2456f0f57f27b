"""Exception types shared across the package."""


class CtdError(Exception):
    """Base class for all errors raised by ctdkit."""


class BddError(CtdError):
    """Misuse of the decision-diagram engine (bad index, mixed managers, ...)."""


class ModelFormatError(CtdError):
    """Model document is structurally invalid (bad JSON shape, unknown field, bad range)."""


class PlanFormatError(CtdError):
    """Plan or results file is malformed or references unknown rows/columns."""


class InfeasibleModelError(CtdError):
    """The model admits no legal full assignment."""


class ConstraintError(CtdError):
    """Base class for constraint-language errors."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class LexicalError(ConstraintError):
    """Input contains a character sequence that is not a token."""


class ConstraintSyntaxError(ConstraintError):
    """Token stream does not match the grammar."""


class UnknownAttributeError(ConstraintError):
    """Expression references an attribute the model does not declare."""

    def __init__(self, attribute):
        super().__init__(f"unknown attribute {attribute!r}")
        self.attribute = attribute


class UnknownValueError(ConstraintError):
    """Expression references a value outside the attribute's domain."""

    def __init__(self, attribute, value):
        super().__init__(f"unknown value {value!r} for attribute {attribute!r}")
        self.attribute = attribute
        self.value = value
