"""``repro.cluster`` — sharded multi-replica solve tier.

The scale-out layer over :mod:`repro.service`: a
:class:`~repro.cluster.cluster.ClusterService` consistent-hash routes
requests on their warm-start fingerprint to N shard replicas (each a
full ``SolveService`` with its own kernel, caches and write-ahead
journal), sheds load at the edge, respawns dead replicas from their
journals, and — via the
:class:`~repro.cluster.recovery.RecoveryCoordinator` — replays a whole
journal directory exactly-once even when the shard count changed.

Replicas come in three transports behind one interface: in-process
(:class:`~repro.cluster.worker.InlineShard`), forked child over a pipe
(:class:`~repro.cluster.worker.ProcessShard`), and remote host over
TCP with synchronous journal shipping
(:class:`~repro.cluster.net.NetShard` ↔
:class:`~repro.cluster.net.ShardServer`), the last of which makes even
*host* loss survivable via :meth:`ClusterService.failover`.  All three
speak one protocol: every command is dispatched by
:func:`~repro.cluster.worker.run_op`, every replica announces itself
with the hello :func:`~repro.cluster.worker.shard_hello` builds, and
the TCP hop carries the write-ahead journal's records
(:func:`~repro.service.journal.request_to_record`,
:func:`~repro.service.journal.response_to_record`).
"""

from repro.cluster.cluster import ClusterService, ClusterStats
from repro.cluster.net import NetShard, ShardServer
from repro.cluster.recovery import RecoveryCoordinator
from repro.cluster.ring import HashRing, request_route_key, route_key
from repro.cluster.transport import Backoff, parse_host_port
from repro.cluster.worker import (
    InlineShard,
    ProcessShard,
    ShardCrashedError,
)

__all__ = [
    "ClusterService",
    "ClusterStats",
    "RecoveryCoordinator",
    "HashRing",
    "route_key",
    "request_route_key",
    "ProcessShard",
    "InlineShard",
    "NetShard",
    "ShardServer",
    "ShardCrashedError",
    "Backoff",
    "parse_host_port",
]
