"""Exception types shared across the package."""


class DirichletLiError(Exception):
    """Base class for all package-specific errors."""


# characters
class NoRealPrimitiveCharacter(DirichletLiError):
    """No quadratic character of the requested conductor exists."""


class LabelOutOfRange(DirichletLiError, ValueError):
    """No character with the requested label exists for the modulus."""


class InvalidModulus(DirichletLiError, ValueError):
    """The modulus is not a positive integer."""


class NotPrimitive(DirichletLiError):
    """Operation requires a primitive character."""


class PrincipalCharacter(DirichletLiError):
    """Operation does not handle the principal character (pole of L)."""


class ConductorOne(DirichletLiError):
    """Arithmetic formula requires conductor q > 1."""


# specfun
class PoleAtOne(DirichletLiError):
    """Hurwitz zeta evaluated at its pole s = 1."""


class OutOfDomain(DirichletLiError):
    """Argument outside the function's real domain."""


class WDomainError(OutOfDomain):
    """Argument outside the domain [-1/e, 0) of the W_{-1} branch."""


# lfunc
class ComplexCharacterUnsupported(DirichletLiError):
    """Zero finding needs a real character (the rotated function must be real)."""


class CompletenessCheckFailed(DirichletLiError):
    """Zero count deviates from the counting formula beyond tolerance."""


class ParseError(DirichletLiError):
    """Malformed zero file; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ModulusMismatch(DirichletLiError):
    """Zero file belongs to a different character."""


# li-zeros
class EmptyZeroList(DirichletLiError):
    """Zero-sum operations need at least one zero."""


class NExceedsList(DirichletLiError):
    """Requested partial-sum length exceeds the available records."""


# cli
class InsufficientZeros(DirichletLiError):
    """Table reproduction needs a larger zero list."""
