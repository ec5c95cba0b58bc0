"""repro — reproduction of AMPED (ICPP 2025): multi-GPU sparse MTTKRP.

Public API highlights:

* :class:`repro.tensor.SparseTensorCOO` — N-mode sparse tensors;
* :class:`repro.core.AmpedMTTKRP` — the paper's multi-GPU algorithm
  (functional NumPy execution + simulated-platform timing);
* :class:`repro.engine.StreamingExecutor` — the streaming batched MTTKRP
  engine (cache-sized element batches, pluggable serial/thread/process
  execution backends, double-buffered prefetch) AMPED runs on;
* :mod:`repro.engine` shard sources — :class:`repro.engine.InMemorySource`
  (resident) and :class:`repro.engine.CompressedChunkSource` (out-of-core
  shard caches, memory-mapped or compressed);
* :mod:`repro.cpd` — CP-ALS tensor decomposition on any MTTKRP backend;
* :mod:`repro.baselines` — BLCO, MM-CSF, HiCOO-GPU, FLYCOO-GPU and the
  equal-nonzero multi-GPU strawman, on the same simulated platform;
* :mod:`repro.datasets` — Table 3 dataset profiles at model and functional
  scales;
* :mod:`repro.bench` — the experiment harness regenerating every table and
  figure of the paper's evaluation.
"""

from repro.version import __version__
from repro.errors import (
    ReproError,
    TensorFormatError,
    PartitionError,
    DeviceMemoryError,
    UnsupportedTensorError,
    CommunicationError,
    SimulationError,
    ConvergenceError,
)
from repro.tensor.coo import SparseTensorCOO
from repro.core.amped import AmpedMTTKRP
from repro.core.config import AmpedConfig
from repro.engine.backend import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.engine.executor import StreamingExecutor
from repro.engine.prefetch import PrefetchingSource
from repro.engine.source import (
    CompressedChunkSource,
    InMemorySource,
    ShardSource,
    open_shard_source,
)

__all__ = [
    "__version__",
    "ReproError",
    "TensorFormatError",
    "PartitionError",
    "DeviceMemoryError",
    "UnsupportedTensorError",
    "CommunicationError",
    "SimulationError",
    "ConvergenceError",
    "SparseTensorCOO",
    "AmpedMTTKRP",
    "AmpedConfig",
    "StreamingExecutor",
    "ShardSource",
    "InMemorySource",
    "CompressedChunkSource",
    "open_shard_source",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "PrefetchingSource",
]
