"""Service observability: counters and derived rates.

``ServiceStats`` is a plain mutable record the service updates in
place; :meth:`ServiceStats.snapshot` hands callers an independent copy,
and :meth:`ServiceStats.as_dict` flattens it (derived rates included)
for the JSONL stats line of ``python -m repro serve``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

__all__ = ["ServiceStats"]

# Fields that describe current state rather than monotone history.
_GAUGE_FIELDS = {"cache_size", "queue_depth"}


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


@dataclass
class ServiceStats:
    """Counters of one :class:`~repro.service.service.SolveService`.

    ``cache_hits``/``cache_misses`` count warm-start lookups only (jobs
    with warm-starting disabled touch neither); ``total_solve_time`` is
    summed per-request service-side wall time, so batched requests
    overlap and the sum can exceed the true wall clock.

    The fault-tolerance block: ``retries`` counts re-attempted solves
    after transient errors, ``deadline_exceeded`` counts requests that
    ran out of budget, and ``errors_by_kind`` buckets every failed
    request by its taxonomy tag (:mod:`repro.errors`).
    ``breaker_trips`` counts kind+shape circuit breakers opening;
    ``breaker_rejections`` counts requests refused while one was open.

    The sort-reuse block: ``sort_sweeps`` counts workspace sweeps (one
    per row block of a pool kernel's multi-block phase),
    ``sort_rows_reused`` / ``sort_rows_resorted`` count per-row
    permutation outcomes, summed at snapshot time over the
    service-owned workspace pairs, live or evicted, with their pool row
    blocks, so they never decrease.
    :attr:`sort_reuse_rate` is their ratio.
    ``sort_full_resorts`` counts sweeps that paid a full
    ``O(mn log n)`` argsort, and ``backend_solves`` buckets
    workspace-backed solves by kernel backend name
    (``numpy``/``cnative``).  ``sort_rows_skipped`` and
    ``sort_perm_repairs`` are retired (every sweep takes the full
    path); they stay in the snapshot, JSON and Prometheus views and
    always read 0.

    The durability/overload block: ``overload_rejections`` counts
    requests refused at admission (``reject-newest`` or a draining
    service), ``overload_sheds`` counts queued requests evicted by
    ``shed-oldest``, ``admission_blocks`` counts backpressure drains
    the ``block`` policy forced, ``duplicate_rejections`` counts
    resubmissions of an already-journaled id, ``completed_evictions``
    counts responses dropped from the bounded completed buffer,
    ``journal_records`` mirrors the write-ahead journal's appended
    record count, ``journal_replayed`` / ``journal_recovered`` count
    recovery's re-enqueued unanswered requests and verbatim-returned
    recorded responses, ``snapshots_written`` counts warm-state sidecar
    writes, and ``drained_on_shutdown`` counts requests answered during
    a graceful drain.
    """

    requests: int = 0
    completed: int = 0
    errors: int = 0
    batches: int = 0
    batched_requests: int = 0
    batch_fallbacks: int = 0
    batches_by_kind: dict[str, int] = field(default_factory=dict)
    batched_requests_by_kind: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_exact_hits: int = 0
    cache_misses: int = 0
    cache_size: int = 0
    queue_depth: int = 0
    total_solve_time: float = 0.0
    total_iterations: int = 0
    per_kind: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    deadline_exceeded: int = 0
    breaker_trips: int = 0
    breaker_rejections: int = 0
    errors_by_kind: dict[str, int] = field(default_factory=dict)
    sort_sweeps: int = 0
    sort_rows_reused: int = 0
    sort_rows_resorted: int = 0
    sort_rows_skipped: int = 0
    sort_perm_repairs: int = 0
    sort_full_resorts: int = 0
    backend_solves: dict[str, int] = field(default_factory=dict)
    overload_rejections: int = 0
    overload_sheds: int = 0
    admission_blocks: int = 0
    duplicate_rejections: int = 0
    completed_evictions: int = 0
    journal_records: int = 0
    journal_replayed: int = 0
    journal_recovered: int = 0
    snapshots_written: int = 0
    drained_on_shutdown: int = 0

    @property
    def hit_rate(self) -> float:
        """Warm-start cache hit rate over all lookups (0 when none)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def sort_reuse_rate(self) -> float:
        """Fraction of kernel row-sorts answered by cached permutations."""
        total = self.sort_rows_reused + self.sort_rows_resorted
        return self.sort_rows_reused / total if total else 0.0

    @property
    def mean_solve_time(self) -> float:
        return self.total_solve_time / self.completed if self.completed else 0.0

    @property
    def mean_iterations(self) -> float:
        return self.total_iterations / self.completed if self.completed else 0.0

    def count_kind(self, kind: str) -> None:
        self.per_kind[kind] = self.per_kind.get(kind, 0) + 1

    def count_error_kind(self, kind: str) -> None:
        """Bucket one failed request under its taxonomy tag."""
        self.errors_by_kind[kind] = self.errors_by_kind.get(kind, 0) + 1

    def count_batch(self, kind: str, size: int) -> None:
        """Record one fused batch of ``size`` requests of ``kind``."""
        self.batches_by_kind[kind] = self.batches_by_kind.get(kind, 0) + 1
        self.batched_requests_by_kind[kind] = (
            self.batched_requests_by_kind.get(kind, 0) + size
        )

    def merge(self, other: "ServiceStats") -> "ServiceStats":
        """Combine two stats records into a new one (neither mutated).

        Field-driven like :meth:`snapshot`: every numeric counter adds,
        every dict field merges per-key sums — so a newly added counter
        is aggregated correctly without touching this method.  The
        derived rates (``hit_rate``, ``sort_reuse_rate``, mean times)
        recompute from the summed numerators/denominators, which is the
        correct pooled value rather than an average of ratios.  Gauges
        (``cache_size``, ``queue_depth``) also sum: for the cluster
        aggregate that *is* the meaningful total (entries cached / work
        queued across all shards).

        This is how the cluster tier builds its cluster-wide view from
        per-shard stats:  ``reduce(ServiceStats.merge, shard_stats)``.
        """
        if not isinstance(other, ServiceStats):
            raise TypeError(
                f"cannot merge ServiceStats with {type(other).__name__}"
            )
        merged = ServiceStats()
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, dict):
                combined = dict(a)
                for key, value in b.items():
                    combined[key] = combined.get(key, 0) + value
                setattr(merged, f.name, combined)
            else:
                setattr(merged, f.name, a + b)
        return merged

    def snapshot(self) -> "ServiceStats":
        """Independent copy (safe to keep across further service work).

        Field-driven so a newly added counter can never be shared by
        reference or dropped: every dict field is shallow-copied,
        everything else rides through ``dataclasses.replace``.
        """
        overrides = {
            f.name: dict(getattr(self, f.name))
            for f in fields(self)
            if isinstance(getattr(self, f.name), dict)
        }
        return replace(self, **overrides)

    @classmethod
    def from_dict(cls, obj: dict) -> "ServiceStats":
        """Rebuild a stats record from an :meth:`as_dict` payload.

        Field-driven like the rest of the class, so a newly added
        counter round-trips the network shard hop without touching
        this method; the derived-rate keys :meth:`as_dict` appends are
        simply ignored (they recompute from the counters)."""
        stats = cls()
        for f in fields(stats):
            if f.name in obj:
                value = obj[f.name]
                setattr(
                    stats,
                    f.name,
                    dict(value) if isinstance(value, dict) else value,
                )
        return stats

    def as_dict(self) -> dict:
        """Flat JSON-ready view including the derived rates.

        Enumerates the dataclass fields rather than hand-listing keys,
        so adding a counter automatically adds it to the JSONL stats
        line — a field can go stale in the docs but never silently
        vanish from the output (asserted by the round-trip test).
        """
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, dict) else value
        out["total_solve_time"] = round(self.total_solve_time, 6)
        out["cache_hit_rate"] = round(self.hit_rate, 6)
        out["mean_solve_time"] = round(self.mean_solve_time, 6)
        out["mean_iterations"] = round(self.mean_iterations, 3)
        out["sort_reuse_rate"] = round(self.sort_reuse_rate, 6)
        return out

    def metrics_text(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition of every counter and gauge.

        Field-driven like :meth:`as_dict`, so a newly added counter
        automatically joins the scrape: plain numeric fields become
        ``<prefix><field>_total`` counters (``queue_depth`` and
        ``cache_size`` are gauges — they go up and down), dict fields
        become one ``kind``-labelled counter series per key, and the
        derived ratios are appended as gauges.  The CLI serves this via
        ``serve --stats --prometheus``.
        """
        lines: list[str] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                name = f"{prefix}{f.name}_total"
                lines.append(f"# TYPE {name} counter")
                for key in sorted(value):
                    lines.append(
                        f'{name}{{kind="{_escape_label(str(key))}"}} '
                        f"{value[key]}"
                    )
            elif f.name in _GAUGE_FIELDS:
                lines.append(f"# TYPE {prefix}{f.name} gauge")
                lines.append(f"{prefix}{f.name} {value}")
            else:
                lines.append(f"# TYPE {prefix}{f.name}_total counter")
                lines.append(f"{prefix}{f.name}_total {value}")
        for name, value in (
            ("cache_hit_rate", self.hit_rate),
            ("sort_reuse_rate", self.sort_reuse_rate),
            ("mean_solve_time_seconds", self.mean_solve_time),
            ("mean_iterations", self.mean_iterations),
        ):
            lines.append(f"# TYPE {prefix}{name} gauge")
            lines.append(f"{prefix}{name} {round(value, 9)}")
        return "\n".join(lines) + "\n"
