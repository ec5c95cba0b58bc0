"""Multi-node cluster execution backend: real collectives over sockets.

:class:`ClusterBackend` implements the :class:`repro.engine.backend.
ExecutionBackend` contract across N *node processes* — localhost children
spawned by the coordinator, or remote peers started with ``repro cluster
node HOST:PORT`` — connected over authenticated
:mod:`multiprocessing.connection` sockets.

Roles
-----
The **coordinator** (the process running :meth:`ClusterBackend.map_batches`)
partitions each call's batch list into *contiguous* per-node runs balanced
by nonzero count. Contiguity is what makes scale-out bit-identical: batches
own disjoint output rows (the shard plan guarantees it), every node reduces
its run with the unchanged local pipeline, and concatenating the per-node
``(rows, partial)`` chunks in node-rank order restores exactly the input
order the determinism contract requires — the inherited
:meth:`~repro.engine.backend.PairStreamBackend.reduce_into` then
scatter-adds the same blocks in the same order as a single-host run.

Each **node** owns a slice of the work per call. Element bytes reach it one
of two ways: a shard-cache attachment spec (``("chunked_v2", path)``,
re-opened read-only node-side through the same
:func:`repro.engine.backend._worker_elements` cache the process pool uses —
this assumes a shared filesystem across nodes), or, for resident sources,
the coordinator ships the run's element window inline. The node reduces its
batches through a *local in-process sub-backend* (serial or thread — any
kernel tier), so a node is a full single-host streaming pipeline.

Collectives
-----------
Result exchange is the functional counterpart of :mod:`repro.comm`:

* ``allgather="ring"`` — nodes exchange their result chunks over dedicated
  node-to-node socket links following exactly the ring schedule of
  :func:`repro.comm.allgather.ring_allgather` (step *z*: rank *g* sends
  chunk ``(g - z) mod M`` to rank ``(g + 1) mod M``). After ``M - 1`` steps
  every node holds every chunk; each node reports a digest of its assembled
  view (the coordinator cross-checks they are identical — the transport's
  bit-identity oracle) and node 0 forwards the full set as its own frame.
* ``allgather="direct"`` — the gather-merge path: every node sends its
  chunk straight to the coordinator, which drains them in rank order.

Per call the measured exchange seconds (the slowest node's ring, plus the
coordinator's receive of the forwarded set or of each direct chunk) and
the payload bytes accumulate into :attr:`ClusterBackend.comm_stats`, the
measured side of the
``ring_allgather_time`` / ``host_gather_merge_time`` analytic models (see
:func:`repro.engine.costmodel.cluster_time_plan`) — ``repro.comm`` keeps
being the predicted-vs-measured oracle now that real bytes move.

Failure semantics: a node that dies mid-call surfaces as a named
:class:`repro.errors.ClusterError` on the coordinator (never a bare
``EOFError``); ``close()`` is idempotent, tolerant of dead nodes, and
leaves no listener or helper thread behind.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import socket
import threading
import time
import traceback
from multiprocessing.connection import Client, Listener
from types import SimpleNamespace

import numpy as np

from repro.engine.backend import (
    PairStreamBackend,
    _item_bounds,
    _worker_elements,
    create_backend,
    validate_workers,
)
from repro.engine.batch import ElementBatch, split_contiguous
from repro.errors import ClusterError, ReproError

__all__ = [
    "MAX_NODES",
    "CLUSTER_AUTHKEY_ENV",
    "ClusterBackend",
    "parse_cluster_address",
    "serve_node",
]

#: Node counts above this are almost certainly a configuration mistake.
MAX_NODES = 64

#: Environment variable overriding the cluster handshake key; every node
#: and the coordinator must agree on it. The key authenticates connections
#: (``multiprocessing.connection`` HMAC challenge) — it does not encrypt.
CLUSTER_AUTHKEY_ENV = "REPRO_CLUSTER_AUTHKEY"

_DEFAULT_AUTHKEY = b"repro-cluster"

logger = logging.getLogger(__name__)

#: errors that mean "the peer is gone", wrapped into ClusterError
_LINK_ERRORS = (EOFError, BrokenPipeError, ConnectionError, OSError)

#: errors teardown may swallow silently: the peer already went away.
#: Anything else raised while closing is a bug worth seeing — it is
#: logged at debug instead of vanishing in a blanket ``except``.
_TEARDOWN_ERRORS = (OSError, EOFError, BrokenPipeError)


def _close_quietly(resource, what: str) -> None:
    """Close a teardown resource without raising.

    Gone-peer errors (:data:`_TEARDOWN_ERRORS`) are expected during
    teardown — a node may have exited first — and pass silently. Any
    other exception is logged at debug with the traceback so teardown
    bugs stop disappearing into ``except Exception: pass``.
    """
    if resource is None:
        return
    try:
        resource.close()
    except _TEARDOWN_ERRORS:
        pass
    except Exception:
        logger.debug(
            "unexpected error closing %s during cluster teardown",
            what, exc_info=True,
        )


def _resolve_authkey(authkey: bytes | str | None) -> bytes:
    if authkey is None:
        authkey = os.environ.get(CLUSTER_AUTHKEY_ENV, "")
    if isinstance(authkey, str):
        authkey = authkey.encode("utf-8")
    return authkey or _DEFAULT_AUTHKEY


def _enable_nodelay(conn) -> None:
    """Set TCP_NODELAY on a ``multiprocessing.connection`` link.

    ``Connection.send_bytes`` issues the length header and the payload as
    separate writes; with Nagle's algorithm on, the payload then waits for
    the peer's delayed ACK (~40 ms per message) — catastrophic for the
    ring's many small frames. Non-TCP descriptors are left untouched.
    """
    try:
        sock = socket.fromfd(
            conn.fileno(), socket.AF_INET, socket.SOCK_STREAM
        )
    except OSError:  # pragma: no cover - not a TCP socket
        return
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - option unsupported
        pass
    finally:
        sock.close()


def parse_cluster_address(spec) -> tuple[str, int]:
    """``"host:port"`` (or an ``(host, port)`` pair) -> a connectable tuple."""
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        host, port = spec
    elif isinstance(spec, str) and ":" in spec:
        host, _, port = spec.rpartition(":")
    else:
        raise ClusterError(
            f"cluster address must be 'host:port', got {spec!r}"
        )
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ClusterError(
            f"cluster address port must be an integer, got {spec!r}"
        ) from None
    host = str(host).strip()
    if not host or not 0 < port < 65536:
        raise ClusterError(
            f"cluster address must be 'host:port' with a valid port, "
            f"got {spec!r}"
        )
    return host, port


# ----------------------------------------------------------------------
# Node side
# ----------------------------------------------------------------------
def _connect_ring(rank, nodes, addrs, ring_listener, authkey):
    """Establish this node's ring links: dial the next rank while accepting
    from the previous one (dialing on a helper thread breaks the circular
    wait of every node connecting first)."""
    holder: dict = {}

    def dial():
        try:
            holder["next"] = Client(tuple(addrs[(rank + 1) % nodes]),
                                    authkey=authkey)
        except Exception as exc:  # surfaced after join
            holder["error"] = exc

    t = threading.Thread(target=dial, name=f"repro-ring-dial-{rank}")
    t.start()
    prev = ring_listener.accept()
    t.join()
    if "error" in holder:
        prev.close()
        raise holder["error"]
    _enable_nodelay(prev)
    _enable_nodelay(holder["next"])
    return prev, holder["next"]


def _ring_exchange(blob, rank, nodes, ring_prev, ring_next):
    """One functional ring all-gather of per-node result blobs.

    Follows the :func:`repro.comm.allgather.ring_allgather` schedule: at
    step *z* this rank sends chunk ``(rank - z) mod M`` to its successor
    and receives chunk ``(rank - z - 1) mod M`` from its predecessor. The
    send runs on a helper thread so send/recv overlap (and two blocking
    sends can never deadlock the ring). Returns
    ``(blobs, seconds, bytes_sent)``.
    """
    blobs: list = [None] * nodes
    blobs[rank] = blob
    t0 = time.perf_counter()
    sent = 0
    for step in range(nodes - 1):
        payload = blobs[(rank - step) % nodes]
        sender = threading.Thread(
            target=ring_next.send_bytes, args=(payload,),
            name=f"repro-ring-send-{rank}",
        )
        sender.start()
        blobs[(rank - step - 1) % nodes] = ring_prev.recv_bytes()
        sender.join()
        sent += len(payload)
    return blobs, time.perf_counter() - t0, sent


def _node_reduce(msg, state):
    """Run one reduce request through the node's local pipeline and return
    the ``("done", ...)`` reply (ring mode performs the exchange here)."""
    (_, mode, kernel, attach, factors, bounds, base) = msg[:7]
    arrays = msg[7] if len(msg) > 7 else None
    if attach is not None:
        indices, values = _worker_elements(tuple(attach), mode)
    else:
        indices, values = arrays
    part = SimpleNamespace(
        tensor=SimpleNamespace(indices=indices, values=values)
    )
    items = [
        ElementBatch(
            mode=mode, shard_id=0, batch_id=i,
            elements=slice(lo - base, hi - base), nnz=hi - lo,
        )
        for i, (lo, hi) in enumerate(bounds)
    ]
    pairs = list(
        state.backend.map_batches(
            part, factors, mode, items,
            attach=(tuple(attach) if attach is not None else None),
            kernel=kernel,
        )
    )
    blob = pickle.dumps(pairs, protocol=pickle.HIGHEST_PROTOCOL)
    if state.allgather == "ring" and state.nodes > 1:
        blobs, comm_s, sent = _ring_exchange(
            blob, state.rank, state.nodes, state.ring_prev, state.ring_next
        )
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        forward = None
        if state.rank == 0:
            forward = pickle.dumps(blobs, protocol=pickle.HIGHEST_PROTOCOL)
        return ("done", state.rank, comm_s, sent, digest), forward
    # direct gather-merge: metadata travels in the reply, the raw chunk
    # follows as a separate frame (sent by the caller) so the coordinator
    # can time the transfer alone, compute excluded; node 0's forward of
    # the ring's assembled set travels the same way
    digest = hashlib.sha256(blob).hexdigest()
    return ("done", state.rank, 0.0, len(blob), digest), blob


def _node_loop(conn, authkey: bytes, ring_host: str) -> None:
    """Serve one coordinator connection until EOF or ``("close",)``."""
    state = SimpleNamespace(
        rank=None, nodes=1, allgather="ring", backend=None,
        ring_prev=None, ring_next=None,
    )
    ring_listener = None
    try:
        while True:
            try:
                msg = conn.recv()
            except _LINK_ERRORS:
                return
            kind = msg[0]
            if kind == "init":
                _, state.rank, state.nodes, sub_backend, workers, \
                    state.allgather = msg
                state.backend = create_backend(sub_backend, workers)
                if state.nodes > 1:
                    ring_listener = Listener((ring_host, 0), authkey=authkey)
                    conn.send(("hello", state.rank, ring_listener.address))
                else:
                    conn.send(("hello", state.rank, None))
            elif kind == "ring":
                state.ring_prev, state.ring_next = _connect_ring(
                    state.rank, state.nodes, msg[1], ring_listener, authkey
                )
                # the one-shot ring listener is done — close it so no
                # listening socket outlives setup
                ring_listener.close()
                ring_listener = None
                conn.send(("ring_ok", state.rank))
            elif kind == "reduce":
                trailer = None
                try:
                    reply, trailer = _node_reduce(msg, state)
                except Exception:
                    reply = ("error", state.rank, traceback.format_exc())
                conn.send(reply)
                if trailer is not None:
                    conn.send_bytes(trailer)
            elif kind == "close":
                return
            else:
                conn.send(
                    ("error", state.rank,
                     f"unknown cluster message {kind!r}")
                )
    finally:
        _close_quietly(state.ring_prev, "ring_prev link")
        _close_quietly(state.ring_next, "ring_next link")
        _close_quietly(ring_listener, "ring listener")
        if state.backend is not None:
            state.backend.close()


def _node_main(address, authkey: bytes) -> None:
    """Entry point of a coordinator-spawned loopback node process."""
    with Client(tuple(address), authkey=authkey) as conn:
        _enable_nodelay(conn)
        _node_loop(conn, authkey, "127.0.0.1")


def serve_node(host: str, port: int, *, authkey=None) -> None:
    """Run one cluster node: listen on ``(host, port)`` and serve a single
    coordinator session (``repro cluster node HOST:PORT``). ``host`` must
    be reachable from the other nodes — it is also where this node binds
    its ring link. Returns when the coordinator disconnects.
    """
    key = _resolve_authkey(authkey)
    with Listener((host, int(port)), authkey=key) as listener:
        conn = listener.accept()
    try:
        _enable_nodelay(conn)
        _node_loop(conn, key, host)
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class ClusterBackend(PairStreamBackend):
    """Execute batch reductions across N socket-connected node processes.

    ``nodes`` — node count for loopback mode (the coordinator spawns that
    many local node processes); ``addresses`` — instead, connect to already
    running ``repro cluster node`` peers (``"host:port"`` each; ``nodes``
    is then their count). ``workers`` / ``sub_backend`` configure each
    node's *local* pipeline (defaulting like :func:`create_backend`:
    serial, or thread when ``workers > 1``). ``allgather`` picks the
    exchange: ``"ring"`` (node-to-node ring links) or ``"direct"``
    (gather-merge at the coordinator).
    """

    name = "cluster"
    parallel = True
    crosses_processes = True

    def __init__(
        self,
        nodes: int = 2,
        *,
        addresses=None,
        workers: int = 1,
        sub_backend=None,
        allgather: str = "ring",
        authkey=None,
    ) -> None:
        super().__init__(validate_workers(workers))
        if addresses is not None:
            self.addresses = tuple(
                parse_cluster_address(a) for a in addresses
            )
            if not self.addresses:
                raise ClusterError("addresses must name at least one node")
            nodes = len(self.addresses)
        else:
            self.addresses = None
        nodes = int(nodes)
        if not 1 <= nodes <= MAX_NODES:
            raise ClusterError(
                f"nodes must be in [1, {MAX_NODES}], got {nodes}"
            )
        if allgather not in ("ring", "direct"):
            raise ClusterError(
                f"allgather must be 'ring' or 'direct', got {allgather!r}"
            )
        if sub_backend is None:
            sub_backend = "thread" if self.workers > 1 else "serial"
        if sub_backend not in ("serial", "thread"):
            raise ClusterError(
                f"sub_backend must be 'serial' or 'thread' (a node reduces "
                f"in process and streams its pairs back), got {sub_backend!r}"
            )
        self.nodes = nodes
        self.sub_backend = sub_backend
        self.allgather = allgather
        self._authkey = _resolve_authkey(authkey)
        self._conns: list = []
        self._procs: list = []
        self._started = False
        #: accumulated measured exchange cost (the oracle's measured side)
        self.comm_stats = {"calls": 0, "seconds": 0.0, "bytes": 0}
        self.last_comm: dict | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "open" if self._started else "idle"
        )
        where = "remote" if self.addresses else "loopback"
        return (
            f"ClusterBackend(nodes={self.nodes}, {where}, "
            f"sub_backend={self.sub_backend}x{self.workers}, "
            f"allgather={self.allgather}, {state})"
        )

    # ---- lifecycle ----------------------------------------------------
    def start(self) -> None:
        super().start()
        if self._started:
            return
        try:
            self._start_nodes()
        except _LINK_ERRORS as exc:
            self.close()
            self._closed = False  # a failed start may be retried
            raise ClusterError(
                f"cluster start failed: {exc}"
            ) from exc
        self._started = True

    def _start_nodes(self) -> None:
        key = self._authkey
        if self.addresses is not None:
            self._conns = [
                Client(addr, authkey=key) for addr in self.addresses
            ]
        else:
            import multiprocessing as mp

            with Listener(("127.0.0.1", 0), authkey=key) as listener:
                ctx = mp.get_context()
                self._procs = [
                    ctx.Process(
                        target=_node_main,
                        args=(listener.address, key),
                        name=f"repro-cluster-node-{rank}",
                        daemon=True,
                    )
                    for rank in range(self.nodes)
                ]
                for p in self._procs:
                    p.start()
                self._conns = [listener.accept() for _ in self._procs]
        for conn in self._conns:
            _enable_nodelay(conn)
        ring_addrs = [None] * self.nodes
        for rank, conn in enumerate(self._conns):
            conn.send(
                ("init", rank, self.nodes, self.sub_backend, self.workers,
                 self.allgather)
            )
        for rank, conn in enumerate(self._conns):
            msg = conn.recv()
            self._expect(msg, "hello", rank)
            ring_addrs[msg[1]] = msg[2]
        if self.nodes > 1 and self.allgather == "ring":
            for conn in self._conns:
                conn.send(("ring", ring_addrs))
            for rank, conn in enumerate(self._conns):
                self._expect(conn.recv(), "ring_ok", rank)

    @staticmethod
    def _expect(msg, kind: str, rank: int) -> None:
        if msg[0] == "error":
            raise ClusterError(
                f"cluster node {msg[1]} failed:\n{msg[2]}"
            )
        if msg[0] != kind:
            raise ClusterError(
                f"cluster protocol violation: expected {kind!r} from node "
                f"{rank}, got {msg[0]!r}"
            )

    def close(self) -> None:
        """Tear the cluster down; idempotent and tolerant of dead nodes."""
        conns, self._conns = self._conns, []
        procs, self._procs = self._procs, []
        for rank, conn in enumerate(conns):
            try:
                conn.send(("close",))
            except _TEARDOWN_ERRORS:
                pass  # node already gone — close() tolerates dead peers
            except Exception:
                logger.debug(
                    "unexpected error sending close to cluster node %d",
                    rank, exc_info=True,
                )
            _close_quietly(conn, f"coordinator link to node {rank}")
        for p in procs:
            p.join(timeout=5)
            if p.is_alive():  # pragma: no cover - wedged node
                p.terminate()
                p.join(timeout=5)
        self._started = False
        super().close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except _TEARDOWN_ERRORS:
            pass
        except Exception:
            try:
                logger.debug(
                    "unexpected error in ClusterBackend.__del__",
                    exc_info=True,
                )
            except Exception:
                pass  # interpreter shutdown: logging may be gone

    # ---- link helpers --------------------------------------------------
    def _send(self, rank: int, msg) -> None:
        try:
            self._conns[rank].send(msg)
        except _LINK_ERRORS as exc:
            raise ClusterError(
                f"cluster node {rank} is unreachable (died or closed "
                f"mid-iteration): {exc!r}"
            ) from exc

    def _recv(self, rank: int):
        try:
            msg = self._conns[rank].recv()
        except _LINK_ERRORS as exc:
            raise ClusterError(
                f"cluster node {rank} died mid-iteration: {exc!r}"
            ) from exc
        if msg[0] == "error":
            raise ClusterError(f"cluster node {rank} failed:\n{msg[2]}")
        return msg

    def _recv_bytes(self, rank: int) -> bytes:
        try:
            return self._conns[rank].recv_bytes()
        except _LINK_ERRORS as exc:
            raise ClusterError(
                f"cluster node {rank} died mid-iteration: {exc!r}"
            ) from exc

    # ---- the one operation --------------------------------------------
    def map_batches(self, part, factors, mode, items, *, attach=None,
                    kernel="numpy"):
        self.start()
        items = list(items)
        if not items:
            return
        bounds = [_item_bounds(item) for item in items]
        runs = split_contiguous([hi - lo for lo, hi in bounds], self.nodes)
        factors = [np.asarray(f) for f in factors]
        for rank, (i0, i1) in enumerate(runs):
            node_bounds = bounds[i0:i1]
            if attach is not None:
                self._send(
                    rank,
                    ("reduce", mode, kernel, tuple(attach), factors,
                     node_bounds, 0),
                )
            else:
                # resident source: ship the run's element window inline
                # (rebased bounds), one message per node per call
                base = node_bounds[0][0] if node_bounds else 0
                stop = node_bounds[-1][1] if node_bounds else 0
                arrays = (
                    np.ascontiguousarray(part.tensor.indices[base:stop]),
                    np.ascontiguousarray(part.tensor.values[base:stop]),
                )
                self._send(
                    rank,
                    ("reduce", mode, kernel, None, factors, node_bounds,
                     base, arrays),
                )
        ring = self.allgather == "ring" and self.nodes > 1
        blobs: list = [None] * self.nodes
        digests: list = [None] * self.nodes
        ring_s, transfer_s, comm_bytes = 0.0, 0.0, 0
        for rank in range(self.nodes):
            msg = self._recv(rank)
            self._expect(msg, "done", rank)
            _, node_rank, node_comm_s, node_bytes, digest = msg
            ring_s = max(ring_s, float(node_comm_s))
            comm_bytes += int(node_bytes)
            digests[node_rank] = digest
            if ring and node_rank != 0:
                continue
            # the raw chunk (in ring mode node 0's assembled set, the hop
            # cluster_time_plan prices after the ring) follows the metadata
            # as its own frame; time only this transfer (the node already
            # computed)
            t0 = time.perf_counter()
            raw = self._recv_bytes(rank)
            transfer_s += time.perf_counter() - t0
            if ring:
                blobs = pickle.loads(raw)
            else:
                blobs[node_rank] = raw
        comm_s = ring_s + transfer_s
        if ring:
            if len(set(digests)) != 1:
                raise ClusterError(
                    "ring all-gather produced divergent views across nodes "
                    f"(digests {digests}) — transport corruption"
                )
        else:
            for rank, blob in enumerate(blobs):
                if hashlib.sha256(blob).hexdigest() != digests[rank]:
                    raise ClusterError(
                        f"node {rank} result digest mismatch — transport "
                        "corruption"
                    )
        self.comm_stats["calls"] += 1
        self.comm_stats["seconds"] += comm_s
        self.comm_stats["bytes"] += comm_bytes
        self.last_comm = {"seconds": comm_s, "bytes": comm_bytes}
        for rank, blob in enumerate(blobs):
            if blob is None:
                raise ClusterError(
                    f"no result chunk from node {rank} — protocol violation"
                )
            for rows, partial in pickle.loads(blob):
                yield rows, partial

    def reset_comm_stats(self) -> None:
        self.comm_stats = {"calls": 0, "seconds": 0.0, "bytes": 0}
        self.last_comm = None
