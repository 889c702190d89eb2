"""Exception types shared across the package."""


class CfrlError(Exception):
    """Base class for all package errors."""


class ParseError(CfrlError):
    """A ratings file line could not be parsed."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


class ValidationError(CfrlError):
    """Input data violates a documented invariant."""


class IllegalActionError(CfrlError):
    """An action outside the current availability mask was taken (by `row`)."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DivergenceError(CfrlError):
    """A numerical optimization produced non-finite values."""
