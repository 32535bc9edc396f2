"""Exception types shared across the package."""


class HilmodError(Exception):
    """Base class for all package errors."""


class UnsupportedField(HilmodError):
    """Requested field is not in the class-number-one allow list."""


class PoleAtNonPositiveInteger(HilmodError):
    """Gamma evaluated at a pole."""


class DomainError(HilmodError):
    """Argument outside the validated domain of a special function."""


class ZeroFrequency(HilmodError):
    """Fourier frequency or embedding component vanishes."""


class PoleAtOne(HilmodError):
    """Zeta-type function evaluated at its pole s = 1."""


class PoleAtZeroOrOne(HilmodError):
    """Completed zeta evaluated at s = 0 or s = 1."""


class ScatteringPole(HilmodError):
    """Scattering quotient evaluated at a pole or a zero of the denominator."""


class NotConvergent(HilmodError):
    """Series evaluated outside its half-plane of absolute convergence."""


class DegenerateParameters(HilmodError):
    """Closed form requested at a removable or genuine degeneracy."""


class QuadratureBudgetExceeded(HilmodError):
    """Node escalation hit its cap before reaching the requested tolerance."""
