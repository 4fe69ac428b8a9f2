"""Band-aware admission control: the trichotomy as a scheduling policy.

The paper's classifier places ``CERTAINTY(q)`` on the tractability frontier
*before* any data is touched — a property of the query shape alone.  The
admission controller turns that into the serving policy of the multi-tenant
service:

* **FO band** — the request is interactive: a certain first-order rewriting
  exists and executes as one compiled set-at-a-time plan, so the request
  runs inline on the submitting thread (the *hot path*) and the caller gets
  the answer synchronously;
* **every other band** (PTIME-not-FO, the Theorem 4 cycle queries, and the
  coNP-complete band's brute-force search) — the request is dispatched onto
  a bounded background worker pool and the caller gets an
  :class:`AdmissionTicket` whose future supports ``result(timeout)`` and
  ``cancel()``.  Each tenant has a queue-depth cap; a submission past the
  cap raises :class:`AdmissionRejected` (counted per tenant), which is the
  back-pressure signal — a tenant hammering coNP queries cannot starve the
  pool for everyone else.

Failure containment adds two layers on top of back-pressure:

* **Slot-accurate abandonment** — a queued request holds exactly one queue
  slot from admission until its worker thread finishes *or* the caller
  abandons it.  ``ticket.cancel()`` on a not-yet-started request skips the
  work entirely; on an already-running request it marks the ticket
  *abandoned* (counted in ``stats.abandoned``) and releases the slot
  immediately, so a caller that gave up never pins the tenant's queue
  capacity while the orphaned computation drains.  Every release goes
  through a once-only guard shared by the worker, the done-callback, and
  the abandon path — the slot can never leak or double-release.
* **A per-tenant circuit breaker** — repeated queued-band failures or
  ``result(timeout)`` expiries trip the tenant's breaker: further
  queued-band submissions are *shed* (:class:`CircuitOpen`, a subclass of
  :class:`AdmissionRejected`) for a cooldown window, after which a single
  half-open probe decides whether to close it again.  FO-band requests are
  never shed — the hot path stays inline even while the tenant's heavy
  band is failing.

Requests may also carry an absolute **deadline** (a ``time.monotonic``
instant).  A queued request whose deadline expires before a worker picks
it up fails fast with :class:`~repro.engine.shards.DeadlineExceeded`
instead of burning pool time on an answer nobody is waiting for.

Classification happens once per query *shape* process-wide (the plan cache
and ``classify_cached`` both memoise), so admission adds one dict probe to
the hot path.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from ..core.complexity import ComplexityBand
from ..engine.shards import DeadlineExceeded
from ..faults import fire as _fire_fault
from ..model.symbols import Constant
from ..query.conjunctive import ConjunctiveQuery

#: Admission outcomes recorded on tickets.
INLINE = "inline"
QUEUED = "queued"

#: An answer set: frozenset of constant tuples ({()} / set() for Boolean).
AnswerSet = FrozenSet[Tuple[Constant, ...]]


class AdmissionRejected(RuntimeError):
    """A queued-band submission found the tenant's queue at capacity."""

    def __init__(self, tenant_id: str, depth: int, cap: int) -> None:
        super().__init__(
            f"tenant {tenant_id!r} has {depth} queued requests "
            f"(cap {cap}); retry after pending work drains"
        )
        self.tenant_id = tenant_id
        self.depth = depth
        self.cap = cap


class CircuitOpen(AdmissionRejected):
    """The tenant's circuit breaker is open: queued-band load is shed.

    Subclasses :class:`AdmissionRejected` so existing back-pressure
    handling (retry later) applies unchanged; ``retry_after`` says how
    long until the next half-open probe is allowed.
    """

    def __init__(self, tenant_id: str, retry_after: float) -> None:
        RuntimeError.__init__(
            self,
            f"tenant {tenant_id!r} circuit breaker is open "
            f"(retry in {max(retry_after, 0.0):.2f}s); queued-band load is shed",
        )
        self.tenant_id = tenant_id
        self.depth = 0
        self.cap = 0
        self.retry_after = retry_after


class AdmissionStats:
    """Per-tenant admission counters.

    ``inline_served``
        FO-band requests answered synchronously on the hot path;
    ``queued`` / ``completed`` / ``cancelled``
        harder-band requests dispatched to the worker pool, and how many
        of those finished or were cancelled before starting;
    ``rejected``
        submissions refused at the tenant's queue-depth cap;
    ``timeouts``
        ``result(timeout)`` calls that expired before completion (the
        request keeps running; a later ``result()`` can still collect it);
    ``abandoned``
        running requests whose caller gave up via ``cancel()`` — their
        queue slot was released immediately while the orphaned
        computation drained;
    ``shed``
        queued-band submissions refused because the tenant's circuit
        breaker was open;
    ``breaker_opens``
        times this tenant's circuit breaker tripped open;
    ``deadline_expired``
        queued requests whose deadline passed before a worker started
        them (failed fast without executing);
    ``max_queue_depth``
        high-water mark of this tenant's concurrently queued requests.
    """

    __slots__ = (
        "inline_served",
        "queued",
        "completed",
        "cancelled",
        "rejected",
        "timeouts",
        "abandoned",
        "shed",
        "breaker_opens",
        "deadline_expired",
        "max_queue_depth",
    )

    #: The counters that sum across tenants (``max_queue_depth`` is a
    #: per-tenant high-water mark, so it is left out).
    SUMMED = tuple(name for name in __slots__ if name != "max_queue_depth")

    def __init__(self) -> None:
        self.inline_served = 0
        self.queued = 0
        self.completed = 0
        self.cancelled = 0
        self.rejected = 0
        self.timeouts = 0
        self.abandoned = 0
        self.shed = 0
        self.breaker_opens = 0
        self.deadline_expired = 0
        self.max_queue_depth = 0

    def as_dict(self) -> dict:
        """A plain-dict rendering (for service stats aggregation)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"AdmissionStats(inline={self.inline_served}, queued={self.queued}, "
            f"completed={self.completed}, rejected={self.rejected})"
        )


class _SlotGuard:
    """A once-only release of one tenant queue slot.

    Shared by the worker thread's ``finally``, the cancel done-callback,
    and the abandon path — whichever fires first wins, the rest are
    no-ops, so a slot can neither leak (someone always releases) nor
    double-release (only one of them does).
    """

    __slots__ = ("_controller", "_tenant_id", "_released", "_lock")

    def __init__(self, controller: "AdmissionController", tenant_id: str) -> None:
        self._controller = controller
        self._tenant_id = tenant_id
        self._released = False
        self._lock = threading.Lock()

    def release_once(self) -> bool:
        with self._lock:
            if self._released:
                return False
            self._released = True
        self._controller._release(self._tenant_id)
        return True


class _Breaker:
    """Per-tenant circuit-breaker state (guarded by the controller lock)."""

    __slots__ = ("failures", "open_until", "probing", "probe_deadline", "opens")

    def __init__(self) -> None:
        self.failures = 0  # consecutive queued-band failures
        self.open_until = 0.0  # monotonic instant the cooldown ends
        self.probing = False  # one half-open probe in flight
        self.probe_deadline = 0.0  # instant a silent probe is presumed lost
        self.opens = 0


class AdmissionTicket:
    """The handle for one admitted request.

    ``outcome`` is :data:`INLINE` (FO band; the answer is already computed)
    or :data:`QUEUED` (a harder band; the answer is a pending future).
    Either way :meth:`result` returns the answer set — a frozenset of
    constant tuples, ``{()}``/``set()`` encoding certain/not-certain for
    Boolean queries — so callers need not branch on the outcome.
    """

    __slots__ = (
        "tenant_id",
        "query",
        "band",
        "outcome",
        "deadline",
        "_value",
        "_future",
        "_stats",
        "_guard",
        "_controller",
        "_abandoned",
    )

    def __init__(
        self,
        tenant_id: str,
        query: ConjunctiveQuery,
        band: ComplexityBand,
        outcome: str,
        value: Optional[AnswerSet] = None,
        future: Optional["Future[AnswerSet]"] = None,
        stats: Optional[AdmissionStats] = None,
        guard: Optional[_SlotGuard] = None,
        controller: Optional["AdmissionController"] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.tenant_id = tenant_id
        self.query = query
        self.band = band
        self.outcome = outcome
        self.deadline = deadline
        self._value = value
        self._future = future
        self._stats = stats
        self._guard = guard
        self._controller = controller
        self._abandoned = False

    @property
    def done(self) -> bool:
        """``True`` once the answer is available (always, for inline)."""
        return self._future is None or self._future.done()

    @property
    def abandoned(self) -> bool:
        """``True`` after :meth:`cancel` gave up on a running request."""
        return self._abandoned

    def result(self, timeout: Optional[float] = None) -> AnswerSet:
        """The answer set, waiting up to *timeout* seconds for queued work.

        Raises :class:`concurrent.futures.TimeoutError` when the deadline
        expires (counted in the tenant's stats — and in the tenant's
        circuit breaker, so a tenant whose heavy queries chronically
        overrun starts shedding instead of queueing; the computation keeps
        running and a later call can still collect it) and
        :class:`concurrent.futures.CancelledError` after :meth:`cancel`.
        """
        if self._future is None:
            assert self._value is not None
            return self._value
        try:
            return self._future.result(timeout)
        except FutureTimeoutError:
            if self._stats is not None:
                self._stats.timeouts += 1
            if self._controller is not None:
                self._controller._breaker_failure(self.tenant_id)
            raise

    def cancel(self) -> bool:
        """Cancel a not-yet-started request, or abandon a running one.

        Returns ``True`` when the future was cancelled before starting
        (the work never runs).  A request already running cannot be
        stopped — but its queue slot is released *immediately* and the
        ticket is marked :attr:`abandoned` (returning ``False``), so a
        caller that gave up never holds the tenant's queue capacity
        hostage to an orphaned computation.  Inline requests return
        ``False``.
        """
        if self._future is None:
            return False
        if self._future.cancel():
            return True
        if not self._future.done() and not self._abandoned:
            self._abandoned = True
            if self._stats is not None:
                self._stats.abandoned += 1
            if self._guard is not None:
                self._guard.release_once()
        return False

    def __repr__(self) -> str:
        return (
            f"AdmissionTicket({self.tenant_id!r}, {self.band.name}, "
            f"{self.outcome}, done={self.done})"
        )


class AdmissionController:
    """Routes requests by complexity band; bounds background work per tenant.

    One controller (and one worker pool) serves every tenant of a
    :class:`~repro.service.service.CertaintyService`.  Thread-safe: the
    depth table is guarded by a lock, and per-tenant execution is
    serialised by the tenant's own lock (a queued decision never interleaves
    with that tenant's mutations).

    ``breaker_threshold`` consecutive queued-band failures (exceptions or
    ``result(timeout)`` expiries) open the tenant's circuit breaker for
    ``breaker_cooldown`` seconds; while open, queued-band submissions shed
    with :class:`CircuitOpen` and FO-band requests still serve inline.
    A half-open probe that never gets to report back — cancelled before a
    worker picked it up, or refused at the queue-depth cap — releases its
    claim immediately, and a probe silent for ``breaker_cooldown`` seconds
    is presumed lost, so a stuck probing flag can never wedge the tenant.
    ``breaker_threshold <= 0`` disables the breaker.  *clock* injects a
    monotonic time source for tests.
    """

    def __init__(
        self,
        max_workers: int = 2,
        queue_depth: int = 8,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 5.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._queue_depth = queue_depth
        self._depths: Dict[str, int] = {}
        self._breakers: Dict[str, _Breaker] = {}
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._closed = False

    @property
    def queue_depth_cap(self) -> int:
        """The per-tenant cap on concurrently queued requests."""
        return self._queue_depth

    def queue_depth(self, tenant_id: str) -> int:
        """The tenant's current number of queued (unfinished) requests."""
        with self._lock:
            return self._depths.get(tenant_id, 0)

    def now(self) -> float:
        """The controller's monotonic clock (injectable for tests)."""
        return self._clock()

    # -- circuit breaker ---------------------------------------------------------

    def _breaker(self, tenant_id: str) -> _Breaker:
        breaker = self._breakers.get(tenant_id)
        if breaker is None:
            breaker = self._breakers[tenant_id] = _Breaker()
        return breaker

    def _breaker_failure(
        self, tenant_id: str, stats: Optional[AdmissionStats] = None
    ) -> None:
        """Record one queued-band failure; trip the breaker at threshold."""
        if self._breaker_threshold <= 0:
            return
        with self._lock:
            breaker = self._breaker(tenant_id)
            breaker.failures += 1
            breaker.probing = False
            if breaker.failures >= self._breaker_threshold:
                was_open = self._clock() < breaker.open_until
                breaker.open_until = self._clock() + self._breaker_cooldown
                if not was_open:
                    breaker.opens += 1
                    if stats is not None:
                        stats.breaker_opens += 1

    def _probe_aborted(self, tenant_id: str) -> None:
        """A half-open probe was cancelled before it ran: allow another."""
        with self._lock:
            breaker = self._breakers.get(tenant_id)
            if breaker is not None:
                breaker.probing = False

    def _breaker_success(self, tenant_id: str) -> None:
        with self._lock:
            breaker = self._breakers.get(tenant_id)
            if breaker is not None:
                breaker.failures = 0
                breaker.open_until = 0.0
                breaker.probing = False

    def breaker_state(self, tenant_id: str) -> dict:
        """The tenant's breaker as a plain dict (state/failures/opens)."""
        with self._lock:
            breaker = self._breakers.get(tenant_id)
            now = self._clock()
            if breaker is None:
                return {
                    "state": "closed",
                    "consecutive_failures": 0,
                    "opens": 0,
                    "retry_in": 0.0,
                }
            if now < breaker.open_until:
                state = "open"
            elif breaker.probing or (
                breaker.open_until > 0.0
                and breaker.failures >= max(self._breaker_threshold, 1)
            ):
                state = "half-open"
            else:
                state = "closed"
            return {
                "state": state,
                "consecutive_failures": breaker.failures,
                "opens": breaker.opens,
                "retry_in": max(0.0, breaker.open_until - now),
            }

    # -- admission ---------------------------------------------------------------

    def submit(
        self,
        tenant_id: str,
        query: ConjunctiveQuery,
        band: ComplexityBand,
        execute: Callable[[], AnswerSet],
        stats: AdmissionStats,
        deadline: Optional[float] = None,
    ) -> AdmissionTicket:
        """Admit one request: FO inline, anything harder onto the pool.

        *execute* is the tenant-locked thunk computing the answer set; the
        controller decides only *where* it runs.  *deadline* is an
        absolute monotonic instant: a queued request still waiting for a
        worker when it passes fails fast with
        :class:`~repro.engine.shards.DeadlineExceeded`.  Raises
        :class:`AdmissionRejected` when the tenant's queue is full and
        :class:`CircuitOpen` while the tenant's breaker sheds load.
        """
        if self._closed:
            raise RuntimeError("the admission controller is closed")
        if band.is_first_order:
            # The hot path: never queued, never shed, never breaker-gated.
            value = execute()
            stats.inline_served += 1
            return AdmissionTicket(tenant_id, query, band, INLINE, value=value)
        is_probe = False
        with self._lock:
            if self._breaker_threshold > 0:
                breaker = self._breaker(tenant_id)
                now = self._clock()
                if breaker.probing and now >= breaker.probe_deadline:
                    # The in-flight probe never reported back (e.g. its
                    # ticket was cancelled before a worker picked it up):
                    # presume it lost and allow a fresh one, rather than
                    # shedding this tenant forever.
                    breaker.probing = False
                if now < breaker.open_until or breaker.probing:
                    stats.shed += 1
                    raise CircuitOpen(tenant_id, breaker.open_until - now)
                if breaker.open_until > 0.0 and breaker.failures >= (
                    self._breaker_threshold
                ):
                    # Cooldown over: admit exactly one half-open probe.
                    breaker.probing = True
                    breaker.probe_deadline = now + self._breaker_cooldown
                    is_probe = True
            depth = self._depths.get(tenant_id, 0)
            if depth >= self._queue_depth:
                if is_probe:
                    # The probe was never actually admitted: don't leave
                    # the flag claiming one is in flight.
                    breaker.probing = False
                stats.rejected += 1
                raise AdmissionRejected(tenant_id, depth, self._queue_depth)
            self._depths[tenant_id] = depth + 1
            stats.queued += 1
            stats.max_queue_depth = max(stats.max_queue_depth, depth + 1)

        guard = _SlotGuard(self, tenant_id)

        def run() -> AnswerSet:
            try:
                try:
                    if deadline is not None and self._clock() >= deadline:
                        stats.deadline_expired += 1
                        raise DeadlineExceeded(
                            f"tenant {tenant_id!r}: request deadline expired "
                            "before a worker started it"
                        )
                    fault = _fire_fault("service.queued")
                    if fault is not None:
                        if fault.kind == "stall":
                            time.sleep(fault.delay or 0.1)
                        else:
                            raise OSError("injected queued-execution failure")
                    value = execute()
                except BaseException:
                    self._breaker_failure(tenant_id, stats)
                    raise
                stats.completed += 1
                self._breaker_success(tenant_id)
                return value
            finally:
                guard.release_once()

        # A successful cancel() skips run() (and its slot release) entirely —
        # release the slot and count the cancellation through a done
        # callback, which fires exactly once per future.  A cancelled
        # half-open probe also never reaches the breaker bookkeeping in
        # run(), so its probing flag is cleared here.
        def on_done(f: "Future[AnswerSet]") -> None:
            if f.cancelled():
                stats.cancelled += 1
                if is_probe:
                    self._probe_aborted(tenant_id)
                guard.release_once()

        future = self._executor.submit(run)
        future.add_done_callback(on_done)
        return AdmissionTicket(
            tenant_id,
            query,
            band,
            QUEUED,
            future=future,
            stats=stats,
            guard=guard,
            controller=self,
            deadline=deadline,
        )

    def _release(self, tenant_id: str) -> None:
        with self._lock:
            depth = self._depths.get(tenant_id, 0)
            if depth > 0:
                self._depths[tenant_id] = depth - 1

    def close(self) -> None:
        """Shut the worker pool down, waiting for running work (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)


__all__ = [
    "INLINE",
    "QUEUED",
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionStats",
    "AdmissionTicket",
    "AnswerSet",
    "CancelledError",
    "CircuitOpen",
]
