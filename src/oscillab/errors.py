"""Exception types shared across the package."""


class OscillabError(Exception):
    """Base class for all package errors."""


class BadGrid(OscillabError, ValueError):
    """Box or grid geometry is invalid (side, dimension or cell count)."""


class BadParameter(OscillabError, ValueError):
    """A numerical parameter is out of range (p, a, stride, radius, output times)."""


class UnknownName(OscillabError):
    """No builtin function or density has the requested name."""


class EmptyBall(OscillabError):
    """No cell center falls inside the requested ball."""


class EmptyFamily(OscillabError, ValueError):
    """A ball family has no ball (none of its radii fits the grid at its stride)."""


class DegenerateMask(OscillabError):
    """Pixel mask is empty or full; no meaningful boundary exists."""


class BadRadius(OscillabError):
    """Ball radius too small for stable cell averages (below 4h)."""


class OutOfDomain(OscillabError):
    """A queried point leaves a non-periodic computational window."""


class StepTooLarge(OscillabError):
    """Integrator step violates the h * Lip <= 0.5 stability guard."""


class DomainError(OscillabError):
    """Scale-gauge function evaluated at a ratio below 1."""


class ZeroSeminorm(OscillabError):
    """Composition ratio requested for a (numerically) constant function."""


class ViolatedBound(OscillabError):
    """An inequality certified analytically failed numerically.

    Carries the witness point in ``args[1]`` when available.
    """


class HeightExceeded(OscillabError):
    """Carleson box taller than the density's maximal height T."""


class RadiusViolation(OscillabError):
    """A covering ball exceeds the source ball radius."""


class NonPeriodic(OscillabError):
    """Spectral operation requested on a non-periodic grid."""


class NotTorusMap(OscillabError, ValueError):
    """A map used on a periodic box does not carry period translates to period translates."""


class TooFewPoints(OscillabError):
    """Growth-law fit needs at least 4 sample points."""


class RepeatedAbscissa(OscillabError, ValueError):
    """Growth-law fit got two points with the same x (e.g. maps of equal K)."""


class SpecError(OscillabError):
    """Sweep specification failed validation; message lists the bad fields."""
