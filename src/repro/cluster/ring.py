"""Consistent-hash ring: stable request→shard placement.

The cluster routes every request by its problem's *routing key* (kind +
shape + structure digest — the warm-start compatibility bucket of
:func:`repro.core.api.fingerprint`), so revisions of one problem family
always land on the same shard and find its warm duals, sort
permutations and workspaces hot.

A consistent ring, rather than ``hash(key) % N``, is what makes shard
count changes survivable: each shard owns ``vnodes`` pseudo-random
points on a 64-bit circle and a key belongs to the first shard point at
or after its own hash.  Adding or removing one shard of ``N`` moves only
``~1/N`` of the keyspace, so a recovery that replays journals into a
*different* shard count re-routes the minority of requests instead of
reshuffling everything (and the majority recover onto journals that
already hold their warm history).

Hashes are SHA-1 over the key text — deterministic across processes and
Python versions (``hash()`` is salted per process and would scatter the
placement every restart).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

from repro.core.api import fingerprint

__all__ = ["HashRing", "route_key", "request_route_key"]


def _point(text: str) -> int:
    """Position of ``text`` on the 64-bit ring circle."""
    return int.from_bytes(
        hashlib.sha1(text.encode()).digest()[:8], "big"
    )


def route_key(problem) -> str:
    """Routing key of a problem: its warm-start compatibility bucket.

    Core problems key on ``fingerprint(problem).bucket`` (kind, shape,
    structure digest) — *not* the data digest, so drifting-totals
    revisions of one table co-locate with their warm history.  Problem
    types outside the fingerprint domain fall back to type name +
    shape, which still pins each family to one shard.
    """
    try:
        fp = fingerprint(problem)
    except TypeError:
        shape = getattr(problem, "shape", None)
        return f"{type(problem).__name__}|{shape}"
    return f"{fp.kind}|{fp.shape[0]}x{fp.shape[1]}|{fp.structure}"


def request_route_key(request) -> str:
    """Routing key of a :class:`~repro.service.request.SolveRequest`.

    The engine is folded in so a sparse-engine request of a problem
    family lives on one shard and its dense twin may live on another;
    twins on one shard would share warm-start duals, across shards they
    warm up separately.
    """
    key = route_key(request.problem)
    return f"{key}|{request.engine}" if request.engine != "dense" else key


class HashRing:
    """Consistent placement of string keys onto named shards.

    Parameters
    ----------
    shards:
        Shard names (any strings; the cluster uses ``"shard-0"``...).
    vnodes:
        Ring points per shard.  More points smooth the load split
        (64 keeps the max/min shard share within ~30% for realistic
        key counts) at O(shards * vnodes * log(...)) build cost.
    """

    def __init__(self, shards: Sequence[str] = (), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._owners: list[str] = []
        self._shards: set[str] = set()
        for shard in shards:
            self.add(shard)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: str) -> bool:
        return shard in self._shards

    @property
    def shards(self) -> list[str]:
        return sorted(self._shards)

    def add(self, shard: str) -> None:
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} already on the ring")
        self._shards.add(shard)
        for v in range(self.vnodes):
            point = _point(f"{shard}#{v}")
            at = bisect.bisect_left(self._points, point)
            # Tie-break identical points by owner name so two processes
            # building the same ring agree on every key.
            while (
                at < len(self._points)
                and self._points[at] == point
                and self._owners[at] < shard
            ):
                at += 1
            self._points.insert(at, point)
            self._owners.insert(at, shard)

    def remove(self, shard: str) -> None:
        if shard not in self._shards:
            raise ValueError(f"shard {shard!r} not on the ring")
        self._shards.discard(shard)
        keep = [
            (p, o)
            for p, o in zip(self._points, self._owners)
            if o != shard
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def lookup(self, key: str) -> str:
        """Owning shard of ``key``: first ring point at/after its hash
        (wrapping at the top of the circle)."""
        if not self._points:
            raise ValueError("ring has no shards")
        at = bisect.bisect_left(self._points, _point(key))
        if at == len(self._points):
            at = 0
        return self._owners[at]

    def spread(self, keys: Iterable[str]) -> dict[str, int]:
        """Key count per shard — diagnostics for placement balance."""
        counts = {shard: 0 for shard in self._shards}
        for key in keys:
            counts[self.lookup(key)] += 1
        return counts
