"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries while still being
able to discriminate the failing subsystem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "TraceError",
    "WindowError",
    "ModelError",
    "SolverError",
    "SynthesisError",
    "ConfigurationError",
    "ValidationError",
    "ApplicationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """Raised when a simulation can make no further progress.

    This typically indicates a platform-model bug, for example a process
    waiting on an event that no other process can ever trigger.
    """


class TraceError(ReproError):
    """Raised for malformed traffic traces or trace-file I/O problems."""


class WindowError(TraceError):
    """Raised for invalid window segmentation parameters."""


class ModelError(ReproError):
    """Raised for ill-formed optimization models (bad bounds, names, ...)."""


class SolverError(ReproError):
    """Raised when an optimization solver fails for an internal reason."""


class SynthesisError(ReproError):
    """Raised when crossbar synthesis cannot produce a configuration."""


class ConfigurationError(ReproError):
    """Raised for invalid user-supplied configuration parameters."""


class ValidationError(ReproError):
    """Raised when a crossbar configuration violates design constraints."""


class ApplicationError(ReproError):
    """Raised for invalid application/benchmark descriptions."""
