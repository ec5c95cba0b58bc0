"""AMPED core: the paper's multi-GPU MTTKRP algorithm.

* :mod:`config` — :class:`AmpedConfig`, the R / P(θ) / GPU-count knobs of §5.1.5;
* :mod:`elementwise` — the threadblock elementwise computation (Algorithm 2);
* :mod:`workload` — scale-free workload descriptors shared by the functional
  executor and the billion-scale model mode;
* :mod:`simulate` — Algorithm 1 charged against the simulated platform;
* :mod:`amped` — the functional executor combining real NumPy computation
  with simulated timing;
* :mod:`preprocess` — partition-plan construction + host preprocessing time
  models (Figure 10).
"""

from repro.core.config import AmpedConfig
from repro.core.results import ModeTiming, RunResult
from repro.core.workload import ModeWorkload, TensorWorkload
from repro.core.elementwise import threadblock_ec
from repro.core.simulate import amped_memory_plan, host_memory_plan, simulate_amped
from repro.core.amped import AmpedMTTKRP
from repro.core.preprocess import preprocessing_time
from repro.core.hetero import device_speeds, hetero_workload, simulate_hetero

__all__ = [
    "AmpedConfig",
    "ModeTiming",
    "RunResult",
    "ModeWorkload",
    "TensorWorkload",
    "threadblock_ec",
    "simulate_amped",
    "amped_memory_plan",
    "host_memory_plan",
    "AmpedMTTKRP",
    "preprocessing_time",
    "device_speeds",
    "hetero_workload",
    "simulate_hetero",
]
