"""Declarative, replayable network-fault schedules.

A :class:`ChaosSchedule` is to the network what
:class:`~repro.service.faults.FaultPlan` is to the kernel: a seeded,
serializable description of which faults fire and when.  The same
schedule object (or its JSON form, for the ``chaos-proxy`` CLI) drives
an identical fault pattern on every run, so a chaos soak is a
regression test rather than a dice roll.

The schedule composes both chaos layers in one document: the byte-level
faults are consumed by :class:`~repro.chaos.proxy.ChaosProxy`, the
optional ``fault_plan`` rider wraps the service kernel
(``FaultyKernel(kernel, schedule.fault_plan)``), and ``shard_kills``
names the instants at which a soak harness SIGKILLs cluster replicas —
one seed, network + process + replica chaos.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import asdict, dataclass, fields

from repro.service.faults import FaultPlan

__all__ = ["ChaosSchedule"]


@dataclass
class ChaosSchedule:
    """Seeded description of what the network does to your bytes.

    Per-chunk faults (each chunk of relayed bytes rolls once against
    the seeded per-connection stream; at most one fault fires per
    chunk, tested in the order reset, truncate, corrupt):

    ``reset_fraction``
        Abort both sides of the connection without forwarding — the
        client sees ``ECONNRESET`` mid-pipeline.
    ``truncate_fraction``
        Forward only a prefix of the chunk, then abort — a frame is cut
        mid-line, exercising the receiver's partial-buffer handling.
    ``corrupt_fraction``
        Flip one byte of the chunk to a control character (``0x01``),
        which is invalid anywhere in strict JSON — the frame decodes to
        a structured error, never to a silently wrong value.  Newline
        bytes are never the victim, so framing survives corruption.

    Delays (applied to every chunk, after the fault roll):

    ``latency_s`` + ``jitter_s``
        Fixed one-way latency plus a heavy-tailed Pareto jitter
        (``jitter_alpha`` is the tail exponent; smaller = heavier).
    ``bandwidth_bps``
        Throttle: each chunk additionally waits ``len/bandwidth``.

    Timed faults:

    ``partitions``
        ``((start_s, end_s), ...)`` windows, measured from proxy start,
        during which every active connection is severed and every new
        one refused — a full network partition.

    Composition riders (ignored by the proxy itself):

    ``fault_plan``
        A :class:`~repro.service.faults.FaultPlan` for the service
        kernel, so one schedule document drives network *and* process
        faults.
    ``shard_kills``
        ``((t_s, shard_index), ...)`` instants at which a soak harness
        kills cluster replicas.

    ``start_after_chunks`` exempts each connection's first N chunks per
    direction from the fault roll (deterministic "the handshake always
    survives" scheduling for tests); ``max_faults`` caps total injected
    faults across the proxy's lifetime.
    """

    seed: int = 0
    latency_s: float = 0.0
    jitter_s: float = 0.0
    jitter_alpha: float = 1.5
    bandwidth_bps: float | None = None
    corrupt_fraction: float = 0.0
    truncate_fraction: float = 0.0
    reset_fraction: float = 0.0
    partitions: tuple = ()
    start_after_chunks: int = 0
    max_faults: int | None = None
    shard_kills: tuple = ()
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        for name in ("corrupt_fraction", "truncate_fraction",
                     "reset_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latency_s and jitter_s must be >= 0")
        if self.jitter_alpha <= 1.0:
            # alpha <= 1 has infinite mean: every run eventually stalls.
            raise ValueError("jitter_alpha must be > 1")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be > 0")
        if self.start_after_chunks < 0:
            raise ValueError("start_after_chunks must be >= 0")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be >= 0")
        windows = []
        for window in self.partitions:
            start, end = float(window[0]), float(window[1])
            if not 0 <= start < end:
                raise ValueError(
                    f"partition window must satisfy 0 <= start < end, "
                    f"got {window!r}"
                )
            windows.append((start, end))
        self.partitions = tuple(sorted(windows))
        self.shard_kills = tuple(
            (float(t), int(idx)) for t, idx in self.shard_kills
        )
        if isinstance(self.fault_plan, dict):
            self.fault_plan = FaultPlan(**self.fault_plan)

    # -- seeded streams -------------------------------------------------------

    def rng_for(self, conn: int, direction: str) -> random.Random:
        """Independent deterministic stream per connection direction.

        Keying the stream on ``(seed, connection, direction)`` makes
        each pump's fault pattern independent of how the *other*
        connections interleave — the property that makes a multi-client
        soak replayable."""
        return random.Random(f"{self.seed}:{conn}:{direction}")

    # -- partition windows ----------------------------------------------------

    def in_partition(self, t: float) -> bool:
        return any(start <= t < end for start, end in self.partitions)

    # -- (de)serialization ----------------------------------------------------

    def to_jsonable(self) -> dict:
        out = asdict(self)
        if self.fault_plan is not None:
            out["fault_plan"] = asdict(self.fault_plan)
        out["partitions"] = [list(w) for w in self.partitions]
        out["shard_kills"] = [list(k) for k in self.shard_kills]
        return out

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ChaosSchedule":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(
                f"unknown ChaosSchedule fields: {sorted(unknown)}"
            )
        return cls(**obj)

    def dump(self, path) -> None:
        pathlib.Path(path).write_text(
            json.dumps(self.to_jsonable(), indent=1) + "\n"
        )

    @classmethod
    def load(cls, path) -> "ChaosSchedule":
        return cls.from_jsonable(json.loads(pathlib.Path(path).read_text()))
