"""Concurrency and contract tests of the decomposition service.

The suite drives both layers: :class:`DecompositionService` directly for
the scheduling/admission/cancellation semantics (fast, no sockets), and
one real ``ThreadingHTTPServer`` round-trip for the HTTP mapping (status
codes, Retry-After, graceful shutdown). The heart of it is the
multi-tenant determinism contract: N mixed jobs — interactive in-memory
next to out-of-core pooled — running concurrently produce **bit-identical**
results to direct single-caller runs, pinned by SHA-256 factor digests.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.amped import AmpedMTTKRP
from repro.core.config import AmpedConfig
from repro.cpd.als import cp_als
from repro.datasets.profiles import profile_by_name
from repro.datasets.synthetic import materialize
from repro.errors import (
    AdmissionError,
    JobNotFoundError,
    QueueFullError,
    ServiceError,
    ServiceShutdownError,
)
from repro.serve import (
    DecompositionService,
    JobQueue,
    JobSpec,
    ServiceClient,
    SourcePool,
    factor_digest,
)
from repro.serve.server import ServiceHTTPServer
from repro.tensor.io import write_shard_cache_v2


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cache_tensor():
    return materialize(profile_by_name("twitch"), 1500, seed=3)


@pytest.fixture(scope="module")
def chunked_cache(cache_tensor, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-cache") / "chunked"
    return write_shard_cache_v2(cache_tensor, path, codec="zlib")


@pytest.fixture()
def service():
    svc = DecompositionService(max_jobs=2, queue_depth=4)
    yield svc
    svc.stop(drain=False, timeout=10)


def _direct_digest(cache, *, rank, n_iters, seed, n_gpus=2, shards_per_gpu=2):
    """What a direct single-caller out-of-core run produces."""
    config = AmpedConfig(
        rank=rank, n_gpus=n_gpus, shards_per_gpu=shards_per_gpu,
        out_of_core=True, shard_cache=str(cache),
    )
    with AmpedMTTKRP.from_shard_cache(cache, config) as ex:
        result = cp_als(
            ex.tensor, rank, mttkrp=ex.mttkrp, n_iters=n_iters, seed=seed
        )
    return factor_digest(result)


def _wait(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not job.done:
        if time.monotonic() > deadline:
            raise AssertionError(f"{job.id} stuck in {job.state}")
        time.sleep(0.02)
    return job.snapshot()


# ----------------------------------------------------------------------
# Payload validation / spec
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ServiceError, match="unknown job fields"):
            JobSpec.from_payload({"rnak": 4})

    @pytest.mark.parametrize(
        "config",
        [
            {"host_profile": "x.json"},
            {"cache_chunk_nnz": 64},
            {"stream_cache_fraction": 0.5},
        ],
    )
    def test_unknown_config_overrides_rejected(self, config):
        with pytest.raises(ServiceError, match="not accepted"):
            JobSpec.from_payload({"config": config})

    def test_malformed_values_rejected(self):
        with pytest.raises(ServiceError, match="malformed"):
            JobSpec.from_payload({"nnz": "many"})
        with pytest.raises(ServiceError, match="rank"):
            JobSpec.from_payload({"rank": 0})

    def test_shard_cache_forces_out_of_core_config(self, chunked_cache):
        spec = JobSpec.from_payload({
            "shard_cache": str(chunked_cache),
            "config": {"n_gpus": 2, "shards_per_gpu": 2},
        })
        config = spec.build_config()
        assert config.out_of_core is True
        assert config.shard_cache == str(chunked_cache)


# ----------------------------------------------------------------------
# Queue semantics
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_priority_order_fifo_within_priority(self):
        from repro.serve.jobs import Job

        q = JobQueue(depth=8)
        lo1 = Job("lo1", JobSpec(priority=0))
        hi = Job("hi", JobSpec(priority=5))
        lo2 = Job("lo2", JobSpec(priority=0))
        for j in (lo1, hi, lo2):
            q.push(j)
        assert [q.pop().id for _ in range(3)] == ["hi", "lo1", "lo2"]

    def test_full_queue_raises_named_backpressure(self):
        from repro.serve.jobs import Job

        q = JobQueue(depth=1)
        q.push(Job("a", JobSpec()))
        with pytest.raises(QueueFullError, match="queue is full") as exc:
            q.push(Job("b", JobSpec()), retry_after_s=2.5)
        assert exc.value.retry_after_s == pytest.approx(2.5)


# ----------------------------------------------------------------------
# Source pool
# ----------------------------------------------------------------------
class TestSourcePool:
    def test_same_path_shares_one_source(self, chunked_cache):
        pool = SourcePool()
        a = pool.acquire(chunked_cache, n_gpus=2, shards_per_gpu=2, policy="lpt")
        b = pool.acquire(chunked_cache, n_gpus=2, shards_per_gpu=2, policy="lpt")
        assert a.source is b.source
        assert list(pool.stats().values()) == [2]
        a.release()
        assert list(pool.stats().values()) == [1]
        b.release()
        assert pool.stats() == {}  # last release closes and evicts

    def test_release_is_idempotent(self, chunked_cache):
        pool = SourcePool()
        lease = pool.acquire(
            chunked_cache, n_gpus=2, shards_per_gpu=2, policy="lpt"
        )
        lease.release()
        lease.release()
        assert pool.stats() == {}

    def test_different_geometry_gets_own_entry(self, chunked_cache):
        pool = SourcePool()
        a = pool.acquire(chunked_cache, n_gpus=2, shards_per_gpu=2, policy="lpt")
        b = pool.acquire(chunked_cache, n_gpus=2, shards_per_gpu=4, policy="lpt")
        assert a.source is not b.source
        a.release(), b.release()
        assert pool.stats() == {}


# ----------------------------------------------------------------------
# The tentpole contract: concurrent mixed tenants, bit-identical results
# ----------------------------------------------------------------------
class TestConcurrentJobs:
    def test_mixed_concurrent_jobs_bit_identical(self, service, chunked_cache):
        """Interactive in-memory jobs run concurrently with out-of-core
        pooled jobs; every result is bit-identical to the equivalent
        direct single-caller run (SHA-256 digest equality)."""
        pooled = [
            service.submit({
                "rank": 4, "nnz": 1500, "seed": 3, "n_iters": 3,
                "shard_cache": str(chunked_cache),
                "config": {"n_gpus": 2, "shards_per_gpu": 2},
            })
            for _ in range(2)
        ]
        inmem = service.submit({
            "rank": 4, "nnz": 1000, "seed": 11, "n_iters": 3,
        })
        snaps = [_wait(j) for j in (*pooled, inmem)]
        assert [s["state"] for s in snaps] == ["done"] * 3

        want_pooled = _direct_digest(
            chunked_cache, rank=4, n_iters=3, seed=3
        )
        assert snaps[0]["result"]["result_digest"] == want_pooled
        assert snaps[1]["result"]["result_digest"] == want_pooled

        tensor = materialize(profile_by_name("twitch"), 1000, seed=11)
        with AmpedMTTKRP(tensor, AmpedConfig(rank=4)) as ex:
            direct = cp_als(tensor, 4, mttkrp=ex.mttkrp, n_iters=3, seed=11)
        assert snaps[2]["result"]["result_digest"] == factor_digest(direct)
        # the pool drained with the jobs: no lingering open sources
        assert service.pool.stats() == {}

    def test_progress_streams_per_iteration_fits(self, service):
        job = service.submit({"rank": 4, "nnz": 800, "n_iters": 3, "seed": 1})
        snap = _wait(job)
        assert snap["iterations"] == len(snap["fits"]) > 0
        assert snap["planned"]["memory_total_bytes"] > 0
        assert snap["planned"]["predicted_s"] > 0
        assert snap["result"]["final_fit"] == pytest.approx(snap["fits"][-1])

    def test_queue_full_backpressure_named_error(self, chunked_cache):
        svc = DecompositionService(max_jobs=1, queue_depth=1)
        try:
            # long job occupies the worker; the next fills the queue
            long = svc.submit({
                "rank": 4, "nnz": 1500, "seed": 3, "n_iters": 50,
                "tol": 0.0,
                "shard_cache": str(chunked_cache),
                "config": {"n_gpus": 2, "shards_per_gpu": 2},
            })
            deadline = time.monotonic() + 30
            while long.state == "queued":  # wait until the worker owns it
                assert time.monotonic() < deadline
                time.sleep(0.01)
            svc.submit({"rank": 4, "nnz": 500, "n_iters": 2})
            with pytest.raises(QueueFullError) as exc:
                for _ in range(4):  # the worker may drain one slot; keep pushing
                    svc.submit({"rank": 4, "nnz": 500, "n_iters": 2})
            assert exc.value.retry_after_s > 0
        finally:
            svc.stop(drain=False, timeout=10)

    def test_admission_rejects_oversized_job_before_execution(self, service):
        with pytest.raises(AdmissionError, match="budget"):
            service.submit({"rank": 4, "nnz": 10**9})
        # the rejection left a readable record and ran nothing
        (rejected,) = [
            s for s in service.jobs() if s["state"] == "rejected"
        ]
        assert rejected["iterations"] == 0
        assert "budget" in rejected["error"]

    def test_cancel_stops_mid_als_and_releases_pool(self, chunked_cache):
        svc = DecompositionService(max_jobs=1, queue_depth=2)
        try:
            job = svc.submit({
                "rank": 4, "nnz": 1500, "seed": 3, "n_iters": 500,
                "tol": 0.0,  # never converges: only cancel can stop it
                "shard_cache": str(chunked_cache),
                "config": {"n_gpus": 2, "shards_per_gpu": 2},
            })
            # let it get a couple of sweeps in, then cancel cooperatively
            deadline = time.monotonic() + 30
            while job.snapshot()["iterations"] < 2:
                assert time.monotonic() < deadline, "job never progressed"
                time.sleep(0.02)
            svc.cancel(job.id)
            snap = _wait(job)
            assert snap["state"] == "cancelled"
            # stopped within one sweep boundary of the cancel, not at 500
            assert snap["iterations"] < 500
            assert svc.pool.stats() == {}  # pooled source released
        finally:
            svc.stop(drain=False, timeout=10)

    def test_cancel_queued_job_never_starts(self, chunked_cache):
        svc = DecompositionService(max_jobs=1, queue_depth=4)
        try:
            running = svc.submit({
                "rank": 4, "nnz": 1500, "seed": 3, "n_iters": 200,
                "tol": 0.0,
                "shard_cache": str(chunked_cache),
                "config": {"n_gpus": 2, "shards_per_gpu": 2},
            })
            queued = svc.submit({"rank": 4, "nnz": 500, "n_iters": 2})
            svc.cancel(queued.id)
            svc.cancel(running.id)
            snap = _wait(queued)
            assert snap["state"] == "cancelled"
            assert snap["iterations"] == 0  # never ran a sweep
        finally:
            svc.stop(drain=False, timeout=10)

    def test_graceful_shutdown_drains_and_rejects_new(self):
        svc = DecompositionService(max_jobs=2, queue_depth=4)
        jobs = [
            svc.submit({"rank": 4, "nnz": 800, "n_iters": 3, "seed": s})
            for s in (1, 2, 3)
        ]
        stopper = threading.Thread(target=svc.stop, daemon=True)
        stopper.start()
        # during the drain new submissions get the named shutdown error
        deadline = time.monotonic() + 30
        while not svc._draining:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        with pytest.raises(ServiceShutdownError, match="shutting down"):
            svc.submit({"rank": 4, "nnz": 500})
        stopper.join(timeout=60)
        assert not stopper.is_alive()
        # every accepted job completed — drained, not killed
        assert [ _wait(j)["state"] for j in jobs ] == ["done"] * 3

    def test_unknown_job_is_named_error(self, service):
        with pytest.raises(JobNotFoundError, match="no-such-job"):
            service.get("no-such-job")

    def test_mmap_cache_pools_too(self, cache_tensor, tmp_path):
        cache = write_shard_cache_v2(
            cache_tensor, tmp_path / "none_cache", codec="none"
        )
        svc = DecompositionService(max_jobs=2, queue_depth=4)
        try:
            jobs = [
                svc.submit({
                    "rank": 4, "nnz": 1500, "seed": 3, "n_iters": 2,
                    "shard_cache": str(cache),
                    "config": {"n_gpus": 2, "shards_per_gpu": 2},
                })
                for _ in range(2)
            ]
            snaps = [_wait(j) for j in jobs]
            assert {s["state"] for s in snaps} == {"done"}
            assert (
                snaps[0]["result"]["result_digest"]
                == snaps[1]["result"]["result_digest"]
            )
        finally:
            svc.stop(drain=False, timeout=10)


# ----------------------------------------------------------------------
# Admission == execution (PR 10): one plan, priced once, run once
# ----------------------------------------------------------------------
class TestAdmissionMatchesExecution:
    def test_planned_pricing_equals_executed_plan(self, service, chunked_cache):
        """The dicts admission enforced are, key for key, the pricing of
        the plan the worker executed — zero drift by construction."""
        payload = {
            "rank": 4, "nnz": 1500, "seed": 3, "n_iters": 2,
            "shard_cache": str(chunked_cache),
            "config": {"n_gpus": 2, "shards_per_gpu": 2},
        }
        snap = _wait(service.submit(payload))
        assert snap["state"] == "done"
        planned = snap["planned"]

        # rebuild the same executor the worker ran, directly
        config = JobSpec.from_payload(payload).build_config()
        with AmpedMTTKRP.from_shard_cache(chunked_cache, config) as ex:
            assert planned["time"] == ex.plan.time_plan
            assert planned["memory"] == ex.plan.memory_plan
            assert planned["plan_fingerprint"] == ex.plan.fingerprint
        assert planned["predicted_s"] == planned["time"]["total_s"]
        assert planned["memory_total_bytes"] == sum(
            planned["memory"].values()
        )
        # the serialized plan rides in the job record and reloads intact
        from repro.engine.plan import ExecutionPlan

        reloaded = ExecutionPlan.from_dict(planned["plan"])
        assert reloaded.fingerprint == planned["plan_fingerprint"]
        assert snap["result"]["plan_fingerprint"] == reloaded.fingerprint
        assert snap["result"]["resolved_backend"] == reloaded.backend
        assert snap["result"]["resolved_kernel"] == reloaded.kernel

    def test_inmem_job_plan_also_matches(self, service):
        snap = _wait(
            service.submit({"rank": 4, "nnz": 800, "n_iters": 2, "seed": 7})
        )
        assert snap["state"] == "done"
        planned = snap["planned"]
        assert planned["plan"]["fingerprint"] == planned["plan_fingerprint"]
        assert planned["time"] == planned["plan"]["time_plan"]
        assert planned["memory"] == planned["plan"]["memory_plan"]
        assert snap["result"]["plan_fingerprint"] == planned["plan_fingerprint"]


# ----------------------------------------------------------------------
# HTTP round trip
# ----------------------------------------------------------------------
class TestHTTPSurface:
    @pytest.fixture()
    def http_service(self):
        svc = DecompositionService(max_jobs=2, queue_depth=2)
        httpd = ServiceHTTPServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{httpd.server_address[1]}"
        )
        yield svc, client
        httpd.shutdown()
        httpd.server_close()
        svc.stop(drain=False, timeout=10)

    def test_submit_poll_result_roundtrip(self, http_service):
        _, client = http_service
        snap = client.submit_and_wait(
            {"rank": 4, "nnz": 800, "n_iters": 3, "seed": 5}
        )
        assert snap["state"] == "done"
        assert len(snap["result"]["result_digest"]) == 64
        assert client.health()["status"] == "ok"

    def test_http_maps_named_errors(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError, match="unknown job fields"):
            client.submit({"bogus": 1})                       # 400
        with pytest.raises(AdmissionError, match="budget"):
            client.submit({"rank": 4, "nnz": 10**9})          # 422
        with pytest.raises(JobNotFoundError):
            client.job("nope")                                # 404

    def test_http_serial_backend_with_workers_is_400(self, http_service):
        """A job asking the serial backend for a pool is malformed input,
        and the error names the backend to ask for instead."""
        import json
        import urllib.error
        import urllib.request

        _, client = http_service
        req = urllib.request.Request(
            client.base_url + "/jobs",
            data=json.dumps({"config": {"workers": 2}}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400
        assert 'backend="thread"' in json.loads(exc.value.read())["message"]

    def test_http_429_carries_retry_after(self, http_service):
        svc, client = http_service
        # saturate: 2 workers blocked + fill the depth-2 queue
        payload = {"rank": 4, "nnz": 1200, "n_iters": 300, "tol": 0.0,
                   "seed": 3}
        with pytest.raises(QueueFullError) as exc:
            for _ in range(8):
                client.submit(payload)
        assert exc.value.retry_after_s > 0
        for snap in client.jobs():
            if snap["state"] in ("queued", "running"):
                client.cancel(snap["id"])

    def test_http_cancel_roundtrip(self, http_service):
        _, client = http_service
        created = client.submit(
            {"rank": 4, "nnz": 1200, "n_iters": 300, "tol": 0.0, "seed": 3}
        )
        client.cancel(created["id"])
        snap = client.wait(created["id"])
        assert snap["state"] == "cancelled"
