"""Common backend interface: functional MTTKRP + timing simulation.

A backend may be constructed with a real tensor (functional + timing), a
workload descriptor only (billion-scale timing), or both. The timing entry
point never touches element data, so model-scale runs are cheap.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.results import RunResult
from repro.core.workload import TensorWorkload
from repro.errors import ReproError
from repro.simgpu.kernel import KernelCostModel
from repro.simgpu.platform import MultiGPUPlatform
from repro.simgpu.presets import paper_platform
from repro.tensor.coo import SparseTensorCOO

__all__ = ["MTTKRPBackend", "BackendCapabilities"]


@dataclass(frozen=True)
class BackendCapabilities:
    """One row of the paper's Table 1."""

    name: str
    tensor_copies: str  # "1", "2", or "modes"
    multi_gpu: bool
    load_balancing: bool
    billion_scale: bool
    task_independent_partitioning: bool


class MTTKRPBackend(abc.ABC):
    """Abstract MTTKRP system runnable functionally and in simulation."""

    #: registry key and report label
    name: str = "backend"
    #: capability row (Table 1)
    capabilities: BackendCapabilities

    def __init__(
        self,
        tensor: SparseTensorCOO | None = None,
        *,
        workload: TensorWorkload | None = None,
        platform: MultiGPUPlatform | None = None,
        cost: KernelCostModel | None = None,
        rank: int = 32,
    ) -> None:
        if tensor is None and workload is None:
            raise ReproError("backend needs a tensor, a workload, or both")
        self.tensor = tensor
        self.cost = cost or KernelCostModel()
        self.rank = int(rank)
        if self.rank <= 0:
            raise ReproError("rank must be positive")
        self._workload = workload
        self.platform = platform or paper_platform(self.default_gpus())
        if tensor is not None:
            self.prepare(tensor)

    # ------------------------------------------------------------------
    def default_gpus(self) -> int:
        """Platform size when none is given (baselines are single-GPU)."""
        return 1

    @property
    def workload(self) -> TensorWorkload:
        if self._workload is None:
            raise ReproError(
                f"{self.name}: no workload descriptor available; construct "
                "with workload=... or a tensor plus derive_workload()"
            )
        return self._workload

    # ------------------------------------------------------------------
    def prepare(self, tensor: SparseTensorCOO) -> None:
        """Build the backend's format from a materialized tensor.

        Subclasses override; the default keeps the COO tensor only.
        """
        self.tensor = tensor

    @abc.abstractmethod
    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """Exact functional MTTKRP through the backend's format."""

    def mttkrp_all_modes(
        self, factors: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        if self.tensor is None:
            raise ReproError(f"{self.name}: functional run needs a tensor")
        return [self.mttkrp(factors, m) for m in range(self.tensor.nmodes)]

    @abc.abstractmethod
    def simulate(self, workload: TensorWorkload | None = None) -> RunResult:
        """Time one full MTTKRP iteration on the simulated platform."""

    # ------------------------------------------------------------------
    def _start_result(self, workload: TensorWorkload) -> RunResult:
        return RunResult(
            method=self.name,
            tensor_name=workload.name,
            n_gpus=self.platform.n_gpus,
        )

    def _resolve_workload(
        self, workload: TensorWorkload | None
    ) -> TensorWorkload:
        if workload is not None:
            return workload
        return self.workload
