"""Lifecycle and unit tests for the multi-node cluster backend.

The bit-identity matrix lives in ``test_sources.py`` (TestClusterCell);
this file covers everything around it: work partitioning, address
parsing, registry construction, failure semantics (a node dying
mid-iteration surfaces as a named :class:`ClusterError`, never a hang),
and deterministic teardown (idempotent close, no leaked node processes
or wedged listener threads).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine import (
    ClusterBackend,
    StreamingExecutor,
    create_backend,
    parse_cluster_address,
    split_contiguous,
)
from repro.engine.cluster import MAX_NODES
from repro.errors import ClusterError, CommunicationError, ReproError
from repro.partition.plan import build_partition_plan
from repro.tensor.generate import zipf_coo


SHAPE = (24, 18, 12)


@pytest.fixture(scope="module")
def plan():
    tensor = zipf_coo(SHAPE, 400, exponents=1.0, seed=3)
    return build_partition_plan(tensor, 2, shards_per_gpu=2)


@pytest.fixture(scope="module")
def factors():
    rng = np.random.default_rng(7)
    return [rng.random((s, 4)) for s in SHAPE]


class TestSplitContiguous:
    """The slice-ownership primitive: contiguous runs covering every item
    exactly once, in order — the property bit-identity rests on."""

    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    def test_exact_contiguous_coverage(self, parts):
        sizes = [5, 1, 9, 2, 2, 8, 1, 3]
        runs = split_contiguous(sizes, parts)
        assert len(runs) == parts
        assert runs[0][0] == 0 and runs[-1][1] == len(sizes)
        for (_, stop), (nxt, _) in zip(runs, runs[1:]):
            assert stop == nxt  # adjacent, no gap, no overlap

    def test_balances_by_size_not_count(self):
        # one heavy item followed by many light ones: the cut lands after
        # the heavy item, not at the midpoint of the item count
        runs = split_contiguous([100, 1, 1, 1, 1, 1], 2)
        assert runs == [(0, 1), (1, 6)]

    def test_more_parts_than_items(self):
        runs = split_contiguous([3], 4)
        assert len(runs) == 4
        covered = [r for r in runs if r[0] != r[1]]
        assert covered == [(0, 1)] or covered == [(3, 4)] or len(covered) == 1

    def test_empty_items(self):
        assert split_contiguous([], 3) == [(0, 0)] * 3


class TestAddressesAndConstruction:
    def test_parse_cluster_address(self):
        assert parse_cluster_address("localhost:5000") == ("localhost", 5000)
        assert parse_cluster_address(("10.0.0.1", 12)) == ("10.0.0.1", 12)

    @pytest.mark.parametrize(
        "bad", ["junk", "host:", ":0", "host:notaport", "host:-1", 42]
    )
    def test_bad_address_rejected(self, bad):
        with pytest.raises(ClusterError, match="host:port|address"):
            parse_cluster_address(bad)

    def test_cluster_error_is_communication_error(self):
        assert issubclass(ClusterError, CommunicationError)
        assert issubclass(ClusterError, ReproError)

    def test_registry_builds_cluster_backend(self):
        backend = create_backend("cluster", 1)
        try:
            assert isinstance(backend, ClusterBackend)
            assert backend.name == "cluster"
            assert backend.parallel and backend.crosses_processes
        finally:
            backend.close()

    def test_bad_construction_args(self):
        with pytest.raises(ClusterError, match="nodes"):
            ClusterBackend(nodes=0)
        with pytest.raises(ClusterError, match="nodes"):
            ClusterBackend(nodes=MAX_NODES + 1)
        with pytest.raises(ClusterError, match="allgather"):
            ClusterBackend(allgather="tree")
        with pytest.raises(ClusterError, match="sub_backend"):
            ClusterBackend(sub_backend="cluster")  # no recursion
        with pytest.raises(ClusterError, match="got 'process'"):
            ClusterBackend(sub_backend="process")  # nodes stream pairs back
        with pytest.raises(ClusterError, match="at least one"):
            ClusterBackend(addresses=())

    def test_unreachable_address_is_named_error(self):
        # nothing listens on a reserved port of the discard range
        backend = ClusterBackend(addresses=("127.0.0.1:9",))
        with pytest.raises(ClusterError, match="start failed|unreachable"):
            backend.start()
        backend.close()


class TestLifecycle:
    def test_close_is_idempotent_and_preemptive(self):
        backend = ClusterBackend(nodes=2)
        backend.close()  # never started: still fine
        backend.close()

    def test_close_reaps_node_processes(self, plan, factors):
        backend = ClusterBackend(nodes=2)
        engine = StreamingExecutor(plan, backend=backend)
        engine.mttkrp(factors, 0)  # forces start
        procs = list(backend._procs)
        assert procs and all(p.is_alive() for p in procs)
        backend.close()
        backend.close()  # idempotent after a real run too
        assert all(not p.is_alive() for p in procs)

    def test_no_wedged_threads_after_close(self, plan, factors):
        """Ring listeners/dial threads all live in the node processes;
        the coordinator must hold no stray machinery after close."""
        before = {t.name for t in threading.enumerate()}
        with ClusterBackend(nodes=3) as backend:
            StreamingExecutor(plan, backend=backend).mttkrp(factors, 0)
        leaked = {
            t.name
            for t in threading.enumerate()
            if t.name not in before and "repro" in t.name
        }
        assert not leaked

    def test_node_crash_mid_iteration_is_named_error(self, plan, factors):
        """Killing a node between calls surfaces as ClusterError on the
        next exchange — a diagnosable failure, never a hang — and close()
        still tears the survivors down. Either side may notice first: the
        coordinator sees the dead link ("node 1 died"), or the surviving
        peer reports its ring EOF ("cluster node 0 failed"); both are the
        named error."""
        backend = ClusterBackend(nodes=2)
        engine = StreamingExecutor(plan, backend=backend)
        engine.mttkrp(factors, 0)  # healthy first iteration
        backend._procs[1].terminate()
        backend._procs[1].join(timeout=5)
        with pytest.raises(ClusterError, match="node"):
            engine.mttkrp(factors, 1)
        backend.close()
        assert all(not p.is_alive() for p in backend._procs)

    def test_use_after_close_rejected(self, plan, factors):
        backend = ClusterBackend(nodes=2)
        backend.close()
        with pytest.raises(ReproError, match="closed"):
            StreamingExecutor(plan, backend=backend).mttkrp(factors, 0)

    def test_single_node_degenerates_cleanly(self, plan, factors):
        """nodes=1 is a socket-hop serial pipeline — no ring, same bits."""
        want = StreamingExecutor(plan).mttkrp(factors, 0)
        with ClusterBackend(nodes=1) as backend:
            got = StreamingExecutor(plan, backend=backend).mttkrp(factors, 0)
        assert np.array_equal(got, want)

    def test_unexpected_teardown_error_is_logged_not_lost(self, caplog):
        """Teardown tolerates gone peers (OSError family, silently) but a
        blanket ``except Exception: pass`` used to hide genuine bugs; an
        unexpected exception while closing must land in the debug log."""

        class ExplodingConn:
            closed = False

            def send(self, msg):
                raise RuntimeError("teardown bug: bad state")

            def close(self):
                self.closed = True
                raise RuntimeError("teardown bug: bad state")

        backend = ClusterBackend(nodes=2)
        conn = ExplodingConn()
        backend._conns = [conn]
        with caplog.at_level("DEBUG", logger="repro.engine.cluster"):
            backend.close()  # must not raise
        assert conn.closed
        messages = [r.message for r in caplog.records]
        assert any("sending close" in m for m in messages)
        assert any("teardown" in m for m in messages)

    def test_gone_peer_teardown_stays_silent(self, caplog):
        """The expected case — the node already exited — logs nothing."""

        class DeadConn:
            def send(self, msg):
                raise BrokenPipeError

            def close(self):
                raise OSError(9, "Bad file descriptor")

        backend = ClusterBackend(nodes=2)
        backend._conns = [DeadConn()]
        with caplog.at_level("DEBUG", logger="repro.engine.cluster"):
            backend.close()
        assert not caplog.records


class TestConfigIntegration:
    def test_config_validates_cluster_fields(self):
        from repro.core.config import AmpedConfig

        with pytest.raises(ReproError, match="nodes"):
            AmpedConfig(nodes=0)
        with pytest.raises(ClusterError, match="host:port"):
            AmpedConfig(cluster_addresses=("nonsense",))
        with pytest.raises(ReproError, match="disagrees"):
            AmpedConfig(nodes=3, cluster_addresses=("a:1", "b:2"))
        cfg = AmpedConfig(cluster_addresses=["h:1", "i:2"])
        assert cfg.nodes == 2
        assert cfg.cluster_addresses == ("h:1", "i:2")

    def test_amped_owns_and_closes_cluster_backend(self):
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        tensor = zipf_coo((20, 15, 10), 300, exponents=1.0, seed=5)
        cfg = AmpedConfig(rank=4, backend="cluster", nodes=2)
        rng = np.random.default_rng(11)
        factors = [rng.random((s, 4)) for s in tensor.shape]
        with AmpedMTTKRP(tensor, cfg) as ex:
            want = AmpedMTTKRP(tensor, cfg.replace(backend="serial")).mttkrp(
                factors, 0
            )
            assert np.array_equal(ex.mttkrp(factors, 0), want)
            backend = ex._cluster_backend
            procs = list(backend._procs)
            assert procs
        assert all(not p.is_alive() for p in procs)

    def test_cluster_plan_keeps_host_plan_schema(self):
        """The execution plan's time_plan on a cluster config has every
        single-host key (one schema for all callers) plus the comm terms."""
        from repro.core.amped import AmpedMTTKRP
        from repro.core.config import AmpedConfig

        tensor = zipf_coo((20, 15, 10), 300, exponents=1.0, seed=5)
        with AmpedMTTKRP(
            tensor, AmpedConfig(rank=4, backend="cluster", nodes=2)
        ) as ex:
            plan = ex.plan.time_plan
        with AmpedMTTKRP(tensor, AmpedConfig(rank=4)) as ex:
            single = ex.plan.time_plan
        assert set(single) <= set(plan)
        assert plan["backend"] == "cluster"
        assert plan["nodes"] == 2
        assert plan["comm_s"] > 0.0
        assert plan["total_s"] > 0.0
