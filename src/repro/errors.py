"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class TensorFormatError(ReproError):
    """A sparse tensor (or derived format) violates a structural invariant."""


class ConfigConflictError(ReproError):
    """Two configuration values contradict each other (the serial backend
    asked for a worker pool). Command-line front ends report it as a usage
    error."""


class PartitionError(ReproError):
    """A partitioning plan is inconsistent with the tensor it partitions."""


class DeviceMemoryError(ReproError):
    """A simulated device allocation exceeded its global-memory capacity.

    This models the paper's "runtime error" bars in Figure 5: baselines that
    cannot hold a billion-scale tensor in a single GPU's 48 GB memory are
    terminated by the host.
    """

    def __init__(self, message: str, *, requested: int = 0, available: int = 0):
        super().__init__(message)
        self.requested = int(requested)
        self.available = int(available)


class UnsupportedTensorError(ReproError):
    """A backend does not support the given tensor (e.g. MM-CSF on 5 modes)."""


class CommunicationError(ReproError):
    """An inter-device communication call was malformed."""


class ClusterError(CommunicationError):
    """A multi-node cluster operation failed (node died, bad address,
    protocol violation). Subclasses :class:`CommunicationError` because the
    cluster transport is the functional counterpart of the ``repro.comm``
    collectives — callers guarding comm failures catch both."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class ConvergenceError(ReproError):
    """CP-ALS failed to make progress (e.g. non-finite fit)."""


class ServiceError(ReproError):
    """The decomposition service (:mod:`repro.serve`) rejected a request.

    Base of every named service failure so clients can guard the whole
    service surface with one except clause without masking engine errors.
    """


class QueueFullError(ServiceError):
    """The job queue is at its configured depth — backpressure, retry later.

    ``retry_after_s`` is the server's hint (also sent as the HTTP
    ``Retry-After`` header): the estimated seconds until a queue slot
    frees, from the admission plans of the work in flight.
    """

    def __init__(self, message: str, *, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class AdmissionError(ServiceError):
    """Admission control rejected a job before execution: its planned
    resource footprint (:func:`repro.core.simulate.host_memory_plan`) or
    predicted runtime exceeds what the server is configured to run."""


class JobNotFoundError(ServiceError):
    """No job with the requested id exists on this server."""


class ServiceShutdownError(ServiceError):
    """The server is draining: accepted work completes, new work is
    rejected."""
