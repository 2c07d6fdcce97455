"""Exception taxonomy shared across the package."""


class FeketelabError(Exception):
    """Base class for all package errors."""


class InputError(FeketelabError, ValueError):
    """Malformed or inconsistent user input (lengths, empty data, ...)."""


class DomainError(FeketelabError, ValueError):
    """A point or parameter lies outside the admissible domain."""


class PreconditionError(FeketelabError, ValueError):
    """A documented operation precondition is violated."""


class DegenerateBumpError(FeketelabError, ValueError):
    """The dual-basis Gram system is numerically singular."""


class CaptureFailure(FeketelabError, RuntimeError):
    """A capture iterate left its admissible ball."""


class ContractionFailure(FeketelabError, RuntimeError):
    """A fixed-point iteration stalled (five change ratios >= 1 in a row,
    e.g. t too large) or used up its 500-step budget."""


class NewtonFailure(FeketelabError, RuntimeError):
    """Newton on a 1-D Fekete configuration did not settle within its
    iteration cap."""


class ControlFailure(FeketelabError, RuntimeError):
    """Newton control of the boundary derivative stagnated."""


class OutOfChartError(FeketelabError, RuntimeError):
    """A control parameter left the chart it must stay in."""


class InsufficientMeshError(FeketelabError, ValueError):
    """Candidate mesh cannot resolve the requested basis."""


class HypothesisError(FeketelabError, ValueError):
    """Boundary hypothesis of a comparison principle fails on the grid."""


class NoClosedFormError(FeketelabError, ValueError):
    """No closed-form reference measure exists for the requested domain."""


class ConfigError(FeketelabError, ValueError):
    """Experiment configuration is invalid."""
