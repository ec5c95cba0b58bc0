"""Tensor partitioning (paper §3): sharding, balancing, plans.

The scheme has two levels:

* **Tensor shards (TS)** — §3.1.1: all nonzeros sharing an output-mode index
  fall in the same shard, so shards are free of inter-GPU write conflicts
  (task independence). One shard executes on one GPU grid.
* **Inter-shard partitions (ISP)** — §3.1.2: equal-sized element chunks of a
  shard, one per streaming multiprocessor/threadblock, balancing work inside
  a GPU. There is no separate ISP step here: a shard streams as the
  engine's segment-aligned batches (:mod:`repro.engine.batch`), which never
  split an output row.

:mod:`repro.partition.balance` assigns shards to GPUs (static LPT by nnz or
dynamic work-queue order), and :mod:`repro.partition.equal_nnz` implements
the strawman equal-nonzero split of Figure 6.
"""

from repro.partition.sharding import Shard, ModePartition, shard_mode
from repro.partition.balance import (
    assign_lpt,
    assign_round_robin,
    load_imbalance,
)
from repro.partition.equal_nnz import equal_nnz_partition
from repro.partition.plan import PartitionPlan, build_partition_plan

__all__ = [
    "Shard",
    "ModePartition",
    "shard_mode",
    "assign_lpt",
    "assign_round_robin",
    "load_imbalance",
    "equal_nnz_partition",
    "PartitionPlan",
    "build_partition_plan",
]
