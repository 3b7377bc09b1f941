"""The solve service: queue, scheduler, shared worker pool.

``SolveService`` owns three long-lived resources a per-call ``solve()``
rebuilds every time: a :class:`~repro.parallel.executor.ParallelKernel`
(one worker pool for every solve), a
:class:`~repro.service.cache.WarmStartCache` (dual multipliers of past
solves seed new ones), and a
:class:`~repro.service.metrics.ServiceStats` record.

Scheduling policy (per :meth:`SolveService.drain`):

1. pop every queued request;
2. group batchable dense diagonal requests (fixed, elastic or SAM) by
   kind + shape + stopping rule and fuse each group through
   :func:`~repro.service.batching.solve_batch` (chunks of
   ``max_batch``); a failing or timed-out batch falls back to
   per-request solves so one infeasible problem cannot poison its
   batch-mates;
3. dispatch everything else individually over the shared kernel;
4. return responses in submission order.

Fault policy (per request):

* every failure is classified with the taxonomy of :mod:`repro.errors`
  and answered as a structured error response (``error_kind``), never a
  crash of the drain loop;
* *transient* errors (worker crashes, unclassified internal faults) are
  retried up to ``retries`` times — deterministic errors
  (invalid/infeasible problems) fail fast;
* a request's ``deadline_s`` bounds its wall clock: the deadline is
  checked between kernel dispatches and enforced inside pooled
  dispatches, so a hung worker cannot stall the drain loop past the
  budget;
* a kind+shape group that keeps failing trips a circuit breaker:
  further requests of that group are rejected (``circuit-open``)
  without touching the pool until a cooldown of
  ``breaker_cooldown`` processed requests has passed, after which one
  trial request half-opens the breaker (success closes it, failure
  re-trips it).

Delivery semantics: :meth:`SolveService.drain` returns the responses of
*everything* it processed — including requests enqueued earlier via
:meth:`SolveService.submit`.  :meth:`SolveService.solve` also drains the
whole queue but returns only its own response; the responses of other
pending requests are retained in a *bounded* completed-response buffer
that :meth:`SolveService.collect` hands out (in submission order) —
nothing is silently dropped until the buffer cap forces the oldest out
(counted in ``ServiceStats.completed_evictions``).

Durability (all opt-in):

* ``journal=`` attaches a write-ahead log
  (:class:`~repro.service.journal.Journal`): every accepted request is
  journaled *before* it can be solved, every response *before* it can
  be delivered, so :meth:`SolveService.recover` can rebuild a crashed
  service with exactly-once semantics — unanswered requests are
  re-enqueued and re-solved once, answered ids return their recorded
  responses verbatim;
* ``snapshot_path=`` persists the warm state (warm-start cache with
  its duals and sort permutations, circuit-breaker states) on
  :meth:`close` — and every ``snapshot_every`` processed requests — so
  a restarted service solves warm from sweep one;
* ``max_queue`` / ``max_per_kind`` bound the queue under an admission
  policy (:mod:`repro.service.admission`): ``reject-newest`` refuses
  excess work with ``error.kind: "overloaded"``, ``shed-oldest``
  evicts (and answers) the stalest queued request, ``block`` applies
  synchronous backpressure;
* :meth:`shutdown` drains gracefully: admission stops, queued work is
  answered until the shutdown deadline, the remainder stays journaled
  for the next :meth:`recover`.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.core.api import fingerprint, problem_kind, solve, totals_vector
from repro.core.problems import (
    ElasticProblem,
    FixedTotalsProblem,
    GeneralProblem,
    SAMProblem,
)
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DuplicateRequestError,
    NonConvergenceError,
    OverloadedError,
    ReproError,
    error_kind,
    is_transient,
)
from repro.equilibration.workspace import SweepWorkspace
from repro.parallel.executor import ParallelKernel
from repro.service.admission import (
    ADMISSION_POLICIES,
    AdmissionConfig,
    AdmissionController,
)
from repro.service.batching import solve_batch
from repro.service.cache import WarmStartCache
from repro.service.journal import Journal, derive_request_id
from repro.service.journal import replay as journal_replay
from repro.service.metrics import ServiceStats
from repro.service.request import SolveRequest, SolveResponse, resolve_stop

__all__ = ["SolveService"]

_SNAPSHOT_VERSION = 1

_CORE_KINDS = (FixedTotalsProblem, ElasticProblem, SAMProblem, GeneralProblem)
_DIAGONAL_KINDS = (FixedTotalsProblem, ElasticProblem, SAMProblem)


# SweepWorkspace counters summed into the ``sort_*`` service stats.
_SORT_COUNTERS = ("sweeps", "rows_reused", "rows_resorted", "full_resorts")


def _add_sort_counters(totals: dict, backend_solves: dict, pair) -> None:
    """Add one workspace pair's sort counters into running totals."""
    for ws in pair:
        ext = ws.counters_extended()
        for key in _SORT_COUNTERS:
            totals[key] += ext[key]
        name = ext["backend"]
        backend_solves[name] = backend_solves.get(name, 0) + ext["sweeps"]


def _stop_key(stop) -> tuple | None:
    if stop is None:
        return None
    return (stop.eps, stop.criterion, stop.check_every, stop.max_iterations)


class _DeadlineKernel:
    """Per-request view of the shared kernel under an absolute deadline.

    Checks the clock before every fork/join dispatch (covering the
    serial backend, where a running dispatch cannot be interrupted) and
    hands the pooled backends the remaining budget as their dispatch
    timeout, so even a hung worker cannot overrun the deadline by more
    than one dispatch.
    """

    def __init__(self, kernel, deadline: float) -> None:
        self._kernel = kernel
        self._deadline = deadline

    def __call__(
        self, breakpoints, slopes, target, a=None, c=None, workspace=None
    ):
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceededError(
                "request deadline exceeded between kernel dispatches"
            )
        return self._kernel(
            breakpoints, slopes, target, a=a, c=c, timeout=remaining,
            workspace=workspace,
        )


@dataclass
class _Breaker:
    """Failure state of one kind+shape request group."""

    failures: int = 0
    open_until: int | None = None  # processed-counter tick; None = closed
    half_open: bool = False


class SolveService:
    """Batching, warm-starting, fault-isolating scheduler over a shared
    worker pool.

    Parameters
    ----------
    workers, backend:
        Configuration of the shared :class:`ParallelKernel`; the pool is
        created lazily and reused for every solve until :meth:`close`.
    batching:
        Fuse compatible fixed-totals requests into stacked kernel calls.
    warm_start:
        Seed ``mu0`` from the cache of previously-solved problems.
    cache_size:
        Warm-start cache capacity (LRU beyond it).
    max_batch:
        Largest number of requests fused into one batch.
    default_deadline_s:
        Wall-clock budget applied to requests that set no
        ``deadline_s`` of their own (``None`` = unbounded).
    default_retries:
        Transient-error re-attempts for requests that set no
        ``retries`` of their own.
    breaker_threshold:
        Consecutive failures of one kind+shape group that trip its
        circuit breaker.
    breaker_cooldown:
        Processed requests an open breaker waits before letting a trial
        request through.
    kernel:
        Pre-built kernel to use instead of constructing one from
        ``workers``/``backend`` — the hook the fault-injection harness
        (:mod:`repro.service.faults`) uses to wrap the pool.  It meets
        the :data:`repro.core.sea.Kernel` contract and, for requests
        with a deadline, also takes the dispatch ``timeout=`` in
        seconds.
    journal, fsync:
        Write-ahead journal path (or a pre-built
        :class:`~repro.service.journal.Journal`) and its fsync
        interval (``0`` never, ``1`` every record, ``N`` every ``N``).
        With a journal attached, requests without a client id get a
        stable derived id, duplicate ids are refused
        (``duplicate-request``), and :meth:`recover` can rebuild the
        service after a crash.
    snapshot_path, snapshot_every:
        Warm-state sidecar: cache + breaker state written on
        :meth:`close` (and every ``snapshot_every`` processed requests
        when set).  An existing sidecar is restored at construction,
        so a restarted service warm-starts from sweep one.
    max_queue, admission_policy, max_per_kind:
        Admission control (:mod:`repro.service.admission`): total and
        per-kind queue bounds, and the overload policy (``block`` /
        ``reject-newest`` / ``shed-oldest``) applied at a full bound.
    completed_buffer:
        Cap of the undelivered completed-response buffer; the oldest
        response is evicted beyond it
        (``ServiceStats.completed_evictions``), so fire-and-forget
        traffic that never :meth:`collect`\\ s cannot grow memory
        without bound.
    """

    def __init__(
        self,
        workers: int = 1,
        backend: str = "serial",
        batching: bool = True,
        warm_start: bool = True,
        cache_size: int = 256,
        max_batch: int = 64,
        default_deadline_s: float | None = None,
        default_retries: int = 1,
        breaker_threshold: int = 5,
        breaker_cooldown: int = 16,
        kernel=None,
        journal: Journal | str | pathlib.Path | None = None,
        fsync: int = 0,
        snapshot_path: str | pathlib.Path | None = None,
        snapshot_every: int | None = None,
        max_queue: int | None = None,
        admission_policy: str = "reject-newest",
        max_per_kind: int | None = None,
        completed_buffer: int = 1024,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if default_retries < 0:
            raise ValueError("default_retries must be >= 0")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_cooldown < 1:
            raise ValueError("breaker_cooldown must be >= 1")
        if completed_buffer < 1:
            raise ValueError("completed_buffer must be >= 1")
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.kernel = kernel if kernel is not None else ParallelKernel(
            workers=workers, backend=backend
        )
        self.batching = batching
        self.warm_start = warm_start
        self.max_batch = max_batch
        self.default_deadline_s = default_deadline_s
        self.default_retries = default_retries
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.completed_buffer = completed_buffer
        self.cache = WarmStartCache(maxsize=cache_size)
        self._queue: deque[SolveRequest] = deque()
        self._completed: list[SolveResponse] = []
        self._stats = ServiceStats()
        self._seq = 0
        self._processed = 0
        self._breakers: dict[tuple, _Breaker] = {}
        self._accepting = True
        self._paused = False  # supervisor's pause-intake action
        if journal is None or isinstance(journal, Journal):
            self._journal = journal
        else:
            self._journal = Journal(journal, fsync=fsync)
        self._admission = AdmissionController(AdmissionConfig(
            max_queue=max_queue,
            policy=admission_policy,
            max_per_kind=max_per_kind,
        ))
        self.snapshot_path = (
            None if snapshot_path is None else pathlib.Path(snapshot_path)
        )
        self.snapshot_every = snapshot_every
        # Responses recovered verbatim from the journal by recover().
        self.recovered: dict[str, SolveResponse] = {}
        # Fault-injection hook: a faults.CrashPlan (or any object with
        # an observe(point) method) simulating process death at the
        # durability layer's crash points.
        self.crash_plan = None
        if self.snapshot_path is not None and self.snapshot_path.exists():
            self.restore_snapshot()
        # Long-lived workspace pairs, keyed (kind tag, shape, k): k=1
        # entries serve single dispatches, k>1 entries fused batches of
        # exactly k problems; a sparse pair has the structure digest for
        # k.  Bounded LRU — a pair is just preallocated buffers plus a
        # cached permutation, so eviction only costs one cold sort.
        self._workspaces: OrderedDict[tuple, tuple] = OrderedDict()
        self._workspaces_max = 8
        # Counters of the pairs evicted so far, kept so that stats()
        # totals never go backwards.
        self._evicted_sort = dict.fromkeys(_SORT_COUNTERS, 0)
        self._evicted_solves: dict[str, int] = {}

    # -- job intake ---------------------------------------------------------

    def submit(self, request, **options) -> str:
        """Enqueue a request (or bare problem) and return its id.

        With admission control configured, a full queue is handled per
        the policy *before* the request is accepted: ``reject-newest``
        raises :class:`~repro.errors.OverloadedError` (the request is
        never journaled), ``shed-oldest`` answers the stalest queued
        request with an overloaded error and accepts this one,
        ``block`` synchronously drains the queue to make room (the
        drained responses land in the :meth:`collect` buffer).  A
        draining service (:meth:`shutdown`) rejects everything.

        With a journal attached, the request is journaled under its
        stable id before it is enqueued — a crash after this point can
        never lose it — and a duplicate id raises
        :class:`~repro.errors.DuplicateRequestError`.
        """
        if not isinstance(request, SolveRequest):
            request = SolveRequest(problem=request, **options)
        elif options:
            raise TypeError("options only apply when submitting a bare problem")
        if not self._accepting:
            self._stats.overload_rejections += 1
            raise OverloadedError(
                "service is draining for shutdown; no new work accepted"
            )
        if self._paused:
            self._stats.overload_rejections += 1
            raise OverloadedError(
                "intake is paused (supervisor load-shedding); "
                "back off and resubmit"
            )
        if self._admission.config.bounded:
            self._admit(request)
        if request.id is None:
            # Journaled ids must stay unique across restarts; req-N
            # would restart at req-0 and collide with journaled history.
            if self._journal is not None:
                request.id = derive_request_id(
                    request, self._journal.request_records
                )
            else:
                request.id = f"req-{self._seq}"
        if self._journal is not None and request.id in self._journal:
            self._stats.duplicate_rejections += 1
            raise DuplicateRequestError(
                f"request id {request.id!r} already "
                f"{'answered' if self._journal.answered(request.id) else 'pending'}"
                " in the journal; it will not be answered twice"
            )
        # A pre-stamped _order is respected (the cluster router assigns
        # cluster-global submission orders before forwarding, so merged
        # multi-shard responses sort into one stream); bare requests get
        # the service-local sequence as before.
        order = getattr(request, "_order", None)
        if order is None:
            order = self._seq
            request._order = order  # type: ignore[attr-defined]
        self._seq = max(self._seq, order + 1)
        if self._journal is not None:
            self._journal.append_request(request)
            self._maybe_crash("kill-after-journal")
        self._queue.append(request)
        self._stats.requests += 1
        self._stats.queue_depth = len(self._queue)
        return request.id

    def admission_decision(self, request, **options) -> tuple[str, str | None]:
        """Preview the admission outcome for ``request`` (or a bare
        problem) without submitting it.

        Returns the ``(action, scope)`` pair of
        :meth:`~repro.service.admission.AdmissionController.decide`
        against the current queue state, plus ``("reject",
        "draining")`` on a shutting-down service.  This is the probe
        the network edge (:mod:`repro.edge`) uses to convert a
        ``block`` verdict into socket backpressure
        (``transport.pause_reading()``) instead of letting
        :meth:`submit` drain synchronously on the event loop."""
        if not isinstance(request, SolveRequest):
            request = SolveRequest(problem=request, **options)
        if not self._accepting:
            return "reject", "draining"
        if self._paused:
            return "reject", "paused"
        if not self._admission.config.bounded:
            return "accept", None
        kind = self._kind_tag(request)
        kind_count = sum(1 for r in self._queue if self._kind_tag(r) == kind)
        return self._admission.decide(kind, len(self._queue), kind_count)

    def pause_intake(self) -> None:
        """Refuse new submissions (``overloaded`` errors) until
        :meth:`resume_intake` — the supervisor's circuit-breaker-style
        last resort; queued work keeps draining normally."""
        self._paused = True

    def resume_intake(self) -> None:
        self._paused = False

    @property
    def intake_paused(self) -> bool:
        return self._paused

    @property
    def admission_policy(self) -> str:
        return self._admission.config.policy

    def set_admission_policy(self, policy: str) -> str:
        """Switch the overload policy live (the supervisor's
        block↔shed flip); returns the previous policy so the caller
        can restore it."""
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        old = self._admission.config.policy
        self._admission.config.policy = policy
        return old

    def _admit(self, request: SolveRequest) -> None:
        """Apply the admission policy ahead of accepting ``request``."""
        action, scope = self.admission_decision(request)
        if action == "accept":
            return
        if action == "reject":
            self._stats.overload_rejections += 1
            raise OverloadedError(
                f"bounded queue full ({scope} limit, policy "
                "'reject-newest'); back off and resubmit"
            )
        if action == "block":
            # Backpressure: drain synchronously; the caller pays the
            # latency instead of losing work.
            self._stats.admission_blocks += 1
            for response in self.drain():
                self._retain(response)
            return
        # shed-oldest: evict (and answer) the stalest queued request of
        # the population whose limit fired.  The incoming request is not
        # queued yet, so it can never shed itself; and because a fired
        # limit implies >= 1 queued member of that population, a None
        # victim means the accounting broke — reject rather than
        # silently overrun the bound.
        kind = self._kind_tag(request)
        if self._shed(kind if scope == "kind" else None) is None:
            self._stats.overload_rejections += 1
            raise OverloadedError(
                f"bounded queue full ({scope} limit, policy "
                "'shed-oldest') with nothing evictable; back off and "
                "resubmit"
            )

    def _shed(
        self, kind: str | None, retain: bool = True
    ) -> SolveResponse | None:
        victim = None
        if kind is None:
            if self._queue:
                victim = self._queue.popleft()
        else:
            # Removal is by index, never deque.remove(): requests are
            # dataclasses, so remove()'s field-wise __eq__ against an
            # earlier queued request of the same problem type hits
            # numpy's ambiguous array truth value and crashes submit.
            for i, queued in enumerate(self._queue):
                if self._kind_tag(queued) == kind:
                    victim = queued
                    del self._queue[i]
                    break
        if victim is None:
            return None
        self._stats.overload_sheds += 1
        response = SolveResponse(
            id=victim.id, kind=self._kind_tag(victim),
            submitted_at=getattr(victim, "_order", 0),
        )
        self._set_error(response, OverloadedError(
            "request shed from the bounded queue (policy 'shed-oldest') "
            "to admit newer work"
        ))
        self._stats.errors += 1
        self._stats.count_error_kind(response.error_kind or "overloaded")
        # The shed is an *answer*: journal it so recovery never replays
        # (and re-solves) a request the service decided to drop.
        self._journal_response(response)
        if retain:
            self._retain(response)
        self._stats.queue_depth = len(self._queue)
        return response

    def shed_oldest(self, kind: str | None = None) -> SolveResponse | None:
        """Evict (and answer) the stalest queued request, on demand.

        The externally-driven shed the cluster router uses for
        edge-level admission: the victim's overloaded response is
        journaled (exactly once) and *returned to the caller* for
        delivery rather than retained for :meth:`collect` — the caller
        owns it, so it cannot also surface a second time through the
        completed buffer.  ``kind`` restricts the victim to one request
        kind; returns ``None`` when nothing (matching) is queued.
        """
        return self._shed(kind, retain=False)

    def _retain(self, response: SolveResponse) -> None:
        """Buffer an undelivered response for :meth:`collect`, bounded."""
        self._completed.append(response)
        while len(self._completed) > self.completed_buffer:
            self._completed.pop(0)
            self._stats.completed_evictions += 1

    @property
    def pending(self) -> int:
        return len(self._queue)

    def solve(self, request, **options) -> SolveResponse:
        """Submit one job and drain; returns that job's response.

        Draining also completes any previously ``submit()``-ed requests;
        their responses are retained and delivered by :meth:`collect`,
        never discarded.
        """
        rid = self.submit(request, **options)
        mine: SolveResponse | None = None
        for response in self.drain():
            if mine is None and response.id == rid:
                mine = response
            else:
                self._retain(response)
        if mine is None:  # pragma: no cover — drain always answers rid
            raise RuntimeError(f"no response produced for request {rid!r}")
        return mine

    def collect(self) -> list[SolveResponse]:
        """Hand out (and clear) the undelivered completed responses.

        These are responses of requests that were pending when a
        :meth:`solve` call drained the queue; returned in submission
        order."""
        out = sorted(self._completed, key=lambda r: r.submitted_at)
        self._completed.clear()
        return out

    # -- scheduling ---------------------------------------------------------

    def drain(self) -> list[SolveResponse]:
        """Process the whole queue; responses come back in submission order."""
        requests = list(self._queue)
        self._queue.clear()
        self._stats.queue_depth = 0

        groups: dict[tuple, list[SolveRequest]] = {}
        singles: list[SolveRequest] = []
        for req in requests:
            if (
                self.batching
                and req.batchable
                and req.engine == "dense"
                and type(req.problem) in _DIAGONAL_KINDS
            ):
                kind = problem_kind(req.problem)
                try:
                    stop = resolve_stop(req, kind)
                except ReproError:
                    # Bad stopping overrides answer as classified error
                    # responses on the single path; never sink a drain.
                    singles.append(req)
                    continue
                key = (kind, req.problem.shape, _stop_key(stop))
                groups.setdefault(key, []).append(req)
            else:
                singles.append(req)

        responses: list[SolveResponse] = []
        for members in groups.values():
            if len(members) == 1:
                singles.extend(members)
                continue
            for lo in range(0, len(members), self.max_batch):
                responses.extend(self._run_batch(members[lo:lo + self.max_batch]))
        for req in singles:
            responses.append(self._run_single(req, self._lookup(req)))
        responses.sort(key=lambda r: r.submitted_at)
        return responses

    # -- fault policy -------------------------------------------------------

    def _group_key(self, req: SolveRequest) -> tuple:
        """Circuit-breaker bucket: requests of one kind and shape."""
        return (self._kind_tag(req), getattr(req.problem, "shape", None))

    def _breaker_allows(self, key: tuple) -> bool:
        breaker = self._breakers.get(key)
        if breaker is None or breaker.open_until is None:
            return True
        if self._processed >= breaker.open_until:
            breaker.half_open = True  # cooldown over: admit one trial
            return True
        return False

    def _breaker_report(self, key: tuple, ok: bool) -> None:
        breaker = self._breakers.setdefault(key, _Breaker())
        if ok:
            breaker.failures = 0
            breaker.open_until = None
            breaker.half_open = False
            return
        breaker.failures += 1
        if breaker.half_open or breaker.failures >= self.breaker_threshold:
            breaker.open_until = self._processed + self.breaker_cooldown
            breaker.half_open = False
            breaker.failures = 0
            self._stats.breaker_trips += 1

    def _deadline_of(self, req: SolveRequest, now: float) -> float | None:
        """Absolute monotonic deadline of a request starting at ``now``."""
        deadline_s = (
            req.deadline_s if req.deadline_s is not None
            else self.default_deadline_s
        )
        return None if deadline_s is None else now + deadline_s

    def _retries_of(self, req: SolveRequest) -> int:
        return req.retries if req.retries is not None else self.default_retries

    # -- execution ----------------------------------------------------------

    def _workspace_pair(self, key: tuple, build):
        """Get the LRU'd ``(row, column)`` workspace pair of ``key``, or
        ``build()`` one.  An evicted pair's counters move into the
        service's running totals, so the sort counters in :meth:`stats`
        never go backwards."""
        pair = self._workspaces.get(key)
        if pair is not None:
            self._workspaces.move_to_end(key)
            return pair
        while len(self._workspaces) >= self._workspaces_max:
            _, evicted = self._workspaces.popitem(last=False)
            _add_sort_counters(
                self._evicted_sort, self._evicted_solves, evicted
            )
        pair = build()
        self._workspaces[key] = pair
        return pair

    def _workspaces_for(self, req: SolveRequest, fp, perms):
        """Workspace pair for one single dispatch (``None`` for a sparse
        one :meth:`_dispatch` refuses), seeded from the cache's stored
        permutations when available (a sparse pair refuses them, as does
        a pair of another shape)."""
        problem = req.problem
        m, n = problem.shape
        if req.engine == "sparse":  # bound to the mask: keyed by it
            if type(problem) not in _DIAGONAL_KINDS:
                return None  # _dispatch refuses the request
            # Imported here: dense-only services never load the layout.
            from repro.sparse.kernel import SparseSweepWorkspace
            from repro.sparse.structure import SparsePattern

            key, build = fp.structure, lambda: SparseSweepWorkspace.pair(
                SparsePattern(problem.mask)
            )
        else:
            key, build = 1, lambda: (SweepWorkspace(m, n), SweepWorkspace(n, m))
        pair = self._workspace_pair((self._kind_tag(req), (m, n), key), build)
        if perms is not None:
            for ws, perm in zip(pair, perms):
                if perm is None:
                    continue
                try:
                    ws.seed_permutation(perm)
                except ValueError:
                    pass  # another layout or shape: sweep unseeded
        return pair

    def _lookup(self, req: SolveRequest):
        """Warm-start lookup; returns (mu0, warm, exact, fp, totals, perms).
        Both engines share a problem's bucket (and duals, not perms)."""
        if type(req.problem) not in _CORE_KINDS:
            return (None, False, False, None, None, None)
        fp = fingerprint(req.problem)
        totals = totals_vector(req.problem)
        if not (self.warm_start and req.warm_start):
            return (None, False, False, fp, totals, None)
        hit = self.cache.lookup_with_perms(fp, totals)
        if hit is None:
            self._stats.cache_misses += 1
            return (None, False, False, fp, totals, None)
        mu0, exact, perms = hit
        self._stats.cache_hits += 1
        if exact:
            self._stats.cache_exact_hits += 1
        return (mu0, True, exact, fp, totals, perms)

    def _maybe_crash(self, point: str) -> None:
        """Fault-injection hook: simulate process death at ``point``."""
        if self.crash_plan is not None:
            self.crash_plan.observe(point)

    def _journal_response(self, response: SolveResponse) -> None:
        """Durability barrier: the response record precedes delivery."""
        self._maybe_crash("kill-before-response")
        if self._journal is not None:
            self._journal.append_response(response)

    def _record(
        self, req: SolveRequest, response: SolveResponse, fp, totals,
        perms=None,
    ) -> None:
        self._journal_response(response)
        self._processed += 1
        if response.ok:
            self._stats.completed += 1
            self._stats.total_solve_time += response.elapsed
            self._stats.total_iterations += response.result.iterations
            # Only *converged* duals may seed future warm starts: the mu
            # of a budget-exhausted or errored solve is an arbitrary
            # point of the dual trajectory and would poison every
            # neighbor lookup in its bucket.
            if (
                fp is not None
                and response.result.mu is not None
                and response.result.converged
            ):
                self.cache.store(fp, totals, response.result.mu, perms=perms)
        else:
            self._stats.errors += 1
            self._stats.count_error_kind(response.error_kind or "internal")
        self._stats.count_kind(response.kind)
        self._stats.cache_size = len(self.cache)
        # Breaker rejections don't feed back into the breaker (they are
        # its output, not new evidence about the workload).
        if response.error_kind != CircuitOpenError.kind:
            self._breaker_report(self._group_key(req), ok=response.ok)
        if (
            self.snapshot_every is not None
            and self.snapshot_path is not None
            and self._processed % self.snapshot_every == 0
        ):
            self.save_snapshot()

    def _kind_tag(self, req: SolveRequest) -> str:
        if type(req.problem) in _CORE_KINDS:
            tag = problem_kind(req.problem)
        else:
            tag = type(req.problem).__name__
        return f"{tag}/sparse" if req.engine == "sparse" else tag

    def _set_error(self, response: SolveResponse, exc: BaseException) -> None:
        response.error = f"{type(exc).__name__}: {exc}"
        response.error_kind = error_kind(exc)

    def _run_single(
        self, req: SolveRequest, lookup, deadline: float | None = None
    ) -> SolveResponse:
        mu0, warm, exact, fp, totals, perms = lookup
        response = SolveResponse(
            id=req.id, kind=self._kind_tag(req), warm_started=warm,
            cache_exact=exact, submitted_at=getattr(req, "_order", 0),
        )
        key = self._group_key(req)
        if not self._breaker_allows(key):
            self._stats.breaker_rejections += 1
            self._set_error(response, CircuitOpenError(
                f"circuit breaker open for group {key!r} after repeated "
                "failures; retry after the cooldown"
            ))
            self._record(req, response, fp, totals)
            return response

        if deadline is None:
            deadline = self._deadline_of(req, time.monotonic())
        retries = self._retries_of(req)
        workspaces = None
        if type(req.problem) in _CORE_KINDS:
            workspaces = self._workspaces_for(req, fp, perms)
        attempt = 0
        t0 = time.perf_counter()
        while True:
            try:
                response.result = self._dispatch(
                    req, mu0, deadline, workspaces=workspaces
                )
                response.error = response.error_kind = None
                break
            except Exception as exc:  # noqa: BLE001 — fault isolation per job
                self._set_error(response, exc)
                if isinstance(exc, DeadlineExceededError):
                    self._stats.deadline_exceeded += 1
                out_of_time = (
                    deadline is not None and time.monotonic() >= deadline
                )
                if attempt < retries and is_transient(exc) and not out_of_time:
                    attempt += 1
                    self._stats.retries += 1
                    continue
                break
        response.retries = attempt
        response.elapsed = time.perf_counter() - t0
        if response.ok and req.strict and not response.result.converged:
            self._set_error(response, NonConvergenceError(
                f"no convergence after {response.result.iterations} "
                f"iterations (residual {response.result.residual:g})"
            ))
        # A converged solve's final sort permutations file next to its
        # duals: the next warm-started bucket-mate seeds its workspace
        # pair from them and skips even its first argsort.
        final_perms = None
        if (
            workspaces is not None
            and response.ok
            and response.result.converged
        ):
            final_perms = (
                workspaces[0].permutation(), workspaces[1].permutation()
            )
        self._record(req, response, fp, totals, perms=final_perms)
        return response

    def _dispatch(
        self, req: SolveRequest, mu0, deadline: float | None = None,
        workspaces=None,
    ):
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError("request deadline exceeded")
        problem = req.problem
        if req.engine == "sparse" and type(problem) not in _DIAGONAL_KINDS:
            raise TypeError(
                f"sparse engine cannot solve {type(problem).__name__}"
            )
        kernel = (
            self.kernel if deadline is None
            else _DeadlineKernel(self.kernel, deadline)
        )
        if type(problem) in _CORE_KINDS:
            stop = resolve_stop(req, problem_kind(problem))
            return solve(
                problem, stop=stop, mu0=mu0, kernel=kernel,
                workspaces=workspaces,
            )
        kwargs = {}
        stop = resolve_stop(req, "")
        if stop is not None:
            kwargs["stop"] = stop
        return solve(problem, **kwargs)

    def _run_batch(self, members: list[SolveRequest]) -> list[SolveResponse]:
        lookups = [self._lookup(req) for req in members]
        now = time.monotonic()
        deadlines = [self._deadline_of(req, now) for req in members]
        # All batch members share one kind+shape group: an open breaker
        # rejects them on the single path without a fused dispatch.
        if not self._breaker_allows(self._group_key(members[0])):
            return [
                self._run_single(req, lk, deadline=d)
                for req, lk, d in zip(members, lookups, deadlines)
            ]
        kind = problem_kind(members[0].problem)
        stop = resolve_stop(members[0], kind)
        batch_deadline = min(
            (d for d in deadlines if d is not None), default=None
        )
        kernel = (
            self.kernel if batch_deadline is None
            else _DeadlineKernel(self.kernel, batch_deadline)
        )
        # One stacked workspace pair per kind+shape+size group: the whole
        # fused batch shares its buffers, and the cached permutations
        # survive problem retirements inside solve_batch via retain().
        m, n = members[0].problem.shape
        k = len(members)
        workspaces = self._workspace_pair(
            (kind, (m, n), k),
            lambda: (SweepWorkspace(k * m, n), SweepWorkspace(k * n, m)),
        )
        try:
            t0 = time.perf_counter()
            results = solve_batch(
                [req.problem for req in members],
                stop=stop,
                mu0s=[lk[0] for lk in lookups],
                kernel=kernel,
                workspaces=workspaces,
            )
        except Exception as exc:  # noqa: BLE001 — fault isolation per batch
            # One bad problem (e.g. infeasible totals), a worker crash
            # or the tightest member's deadline aborts the fused kernel
            # call — isolate faults by re-running solo, each request
            # under its own remaining budget.
            self._stats.batch_fallbacks += 1
            if isinstance(exc, DeadlineExceededError):
                self._stats.deadline_exceeded += 1
            return [
                self._run_single(req, lk, deadline=d)
                for req, lk, d in zip(members, lookups, deadlines)
            ]
        elapsed = time.perf_counter() - t0
        self._stats.batches += 1
        self._stats.batched_requests += len(members)
        self._stats.count_batch(kind, len(members))
        responses = []
        for req, lk, result in zip(members, lookups, results):
            mu0, warm, exact, fp, totals, perms = lk
            response = SolveResponse(
                id=req.id, result=result, kind=self._kind_tag(req),
                elapsed=result.elapsed if result.elapsed else elapsed,
                warm_started=warm, cache_exact=exact, batched=True,
                submitted_at=getattr(req, "_order", 0),
            )
            if req.strict and not result.converged:
                self._set_error(response, NonConvergenceError(
                    f"no convergence after {result.iterations} iterations "
                    f"(residual {result.residual:g})"
                ))
            self._record(req, response, fp, totals)
            responses.append(response)
        return responses

    # -- lifecycle ----------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Snapshot of the current counters (kernel health included)."""
        self._stats.queue_depth = len(self._queue)
        self._stats.cache_size = len(self.cache)
        self._stats.worker_crashes = getattr(self.kernel, "worker_crashes", 0)
        self._stats.pool_rebuilds = getattr(self.kernel, "pool_rebuilds", 0)
        self._stats.degraded_dispatches = getattr(
            self.kernel, "degraded_dispatches", 0
        )
        # Sort-reuse counters: the live pairs (their pool row blocks
        # included) plus the pairs evicted so far.
        totals = dict(self._evicted_sort)
        backend_solves = dict(self._evicted_solves)
        for pair in self._workspaces.values():
            _add_sort_counters(totals, backend_solves, pair)
        for key, value in totals.items():
            setattr(self._stats, f"sort_{key}", value)
        self._stats.backend_solves = backend_solves
        if self._journal is not None:
            self._stats.journal_records = self._journal.appended
        return self._stats.snapshot()

    # -- durability ----------------------------------------------------------

    @property
    def journal(self) -> Journal | None:
        return self._journal

    def save_snapshot(self, path=None) -> pathlib.Path:
        """Write the warm state (cache duals + sort permutations,
        breaker states) to the sidecar file, atomically (tmp +
        ``os.replace``), fsynced — a crash mid-write leaves the
        previous snapshot intact."""
        path = pathlib.Path(path if path is not None else self.snapshot_path)
        breakers = [
            (
                key,
                b.failures,
                # open_until is a processed-counter tick; persist the
                # *remaining* cooldown so it survives the counter reset.
                None if b.open_until is None
                else max(0, b.open_until - self._processed),
                b.half_open,
            )
            for key, b in self._breakers.items()
        ]
        state = {
            "version": _SNAPSHOT_VERSION,
            "cache": self.cache.state(),
            "breakers": breakers,
        }
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._stats.snapshots_written += 1
        return path

    def restore_snapshot(self, path=None) -> bool:
        """Load a :meth:`save_snapshot` sidecar; ``False`` when absent
        or from an unknown snapshot version (never an exception — a
        stale sidecar must not stop a recovery)."""
        path = pathlib.Path(path if path is not None else self.snapshot_path)
        if not path.exists():
            return False
        with path.open("rb") as fh:
            state = pickle.load(fh)
        if state.get("version") != _SNAPSHOT_VERSION:
            return False
        self.cache.restore(state["cache"])
        self._breakers = {
            key: _Breaker(
                failures=failures,
                open_until=(
                    None if remaining is None else self._processed + remaining
                ),
                half_open=half_open,
            )
            for key, failures, remaining, half_open in state["breakers"]
        }
        self._stats.cache_size = len(self.cache)
        return True

    @classmethod
    def recover(cls, journal_path, **kwargs) -> "SolveService":
        """Rebuild a service from its write-ahead journal after a crash.

        Unanswered requests are re-enqueued in their original
        submission order (solve them with :meth:`drain`); answered ids
        are **not** re-solved — their recorded responses are decoded
        verbatim into :attr:`recovered`.  Together that is exactly-once
        replay: no request lost, none answered twice, and (warm starts
        aside) the replayed solutions are bit-identical to an
        uninterrupted run.  Pass ``snapshot_path=`` (plus the usual
        constructor options) to also restore the warm state.
        """
        unanswered, recorded = journal_replay(journal_path)
        service = cls(journal=journal_path, **kwargs)
        service.recovered = recorded
        service._stats.journal_recovered = len(recorded)
        for request in unanswered:
            service._seq = max(
                service._seq, getattr(request, "_order", 0) + 1
            )
            service._queue.append(request)
            service._stats.requests += 1
            service._stats.journal_replayed += 1
        service._stats.queue_depth = len(service._queue)
        return service

    def shutdown(
        self, deadline_s: float | None = None
    ) -> list[SolveResponse]:
        """Graceful drain: stop admission, answer queued work until the
        shutdown deadline, leave the rest journaled, release resources.

        Requests answered within the budget are returned (and
        journaled as usual); requests the deadline cuts off stay in
        the journal as pending — the next :meth:`recover` replays
        them.  The deadline is checked *between* requests; bound
        individual solves with ``default_deadline_s`` if a single hung
        request must not overrun the drain.
        """
        self._accepting = False
        deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        responses: list[SolveResponse] = []
        while self._queue:
            if deadline is not None and time.monotonic() >= deadline:
                break
            self._maybe_crash("kill-mid-drain")
            request = self._queue.popleft()
            self._stats.queue_depth = len(self._queue)
            responses.append(self._run_single(request, self._lookup(request)))
            self._stats.drained_on_shutdown += 1
        self.close()
        return responses

    # -- lifecycle (continued) ----------------------------------------------

    def close(self) -> None:
        """Flush durability state and release the worker pool (the
        service stays usable; the pool re-forks lazily on the next
        dispatch)."""
        if self.snapshot_path is not None:
            self.save_snapshot()
        if self._journal is not None:
            self._journal.sync()
        self.kernel.close()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
