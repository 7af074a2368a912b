"""Reusable sweep scheduler: submissions → stage graph → executor → results.

:class:`SweepScheduler` is the engine both frontends share. The CLI's
:func:`~repro.pipeline.runner.run_sweep` creates a transient scheduler and
runs one submission synchronously in the calling thread — behavior- and
hash-identical to the pre-scheduler runner. The sweep service
(``repro-serve``) keeps one long-lived scheduler, feeds it a submission
queue, and hands each client a :class:`SweepHandle` carrying live job
states, a progress-event log for SSE subscribers, cancellation, and the
eventual :class:`~repro.pipeline.runner.SweepResult`.

**One loop for every stage.** A submission runs in waves of tasks: first
its pending jobs plus the quant stages its codesign jobs still need, then
the lifted hardware stages. Each wave is the same claim → dispatch →
settle loop over :data:`~repro.pipeline.runner.Task`\\ s, addressed by
:func:`~repro.pipeline.runner.task_key` (a job hash, or ``hw:<stage
hash>``).

**Cross-submission in-flight dedup.** The content hashes that make the
result cache safe to share across processes also make *concurrent*
submissions safe to share work: before dispatching a wave, a submission
claims every task's key in the scheduler's in-flight book. The first
claimant owns the computation; later claimants attach to the owner's future
and settle the outcome without recomputing — counted in
``pipeline.inflight_dedup`` and ``telemetry["inflight_dedup"]``. If an owner
abandons a claim (cancelled or crashed mid-sweep), attached submissions
re-claim and compute the task themselves, so dedup never turns one client's
cancellation into another's failure.

Everything here is stdlib + the existing pipeline machinery — the executor
pools, stage graph, result cache, metrics registry, and run ledger are the
same objects the one-shot path uses, which is what makes the service's
results bit-identical to the CLI's.
"""

from __future__ import annotations

import hashlib
import os
import queue
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from ..methods.resources import HESSIAN_DIR_ENV
from ..obs.ledger import RunLedger
from ..obs.metrics import METRICS, merge_deltas
from ..obs.trace import current_tracer
from .cache import ResultCache
from .executor import JobOutcome, _call, make_executor
from .progress import ProgressTracker, default_stream
from .runner import (
    SweepResult,
    Task,
    _HwStageTask,
    _hw_stage_kernel,
    _lift_layers,
    _merge_codesign,
    execute_job,
    hw_stage_hash,
    task_key,
)
from .spec import ExperimentSpec, Job, SweepSpec

__all__ = [
    "SweepCancelled",
    "SweepHandle",
    "SweepScheduler",
    "sweep_digest",
]

#: A handle moves queued → running → one of these terminal states.
TERMINAL_STATES = ("done", "failed", "cancelled")


class SweepCancelled(RuntimeError):
    """Raised out of a submission that was cancelled before it finished."""


def sweep_digest(jobs: Sequence[Job]) -> str:
    """Order-independent content digest of a job set (the ledger's
    ``spec_digest`` — two submissions of the same grid share it)."""
    return hashlib.sha256(
        "\n".join(sorted(j.job_hash for j in jobs)).encode()
    ).hexdigest()


class _JobFuture:
    """One in-flight computation another submission can attach to.

    Resolves exactly once with a :class:`JobOutcome`, or is *abandoned*
    (outcome stays ``None``) when its owner exits without resolving it —
    waiters must then re-claim and compute themselves.
    """

    __slots__ = ("outcome", "_event")

    def __init__(self) -> None:
        self.outcome: Optional[JobOutcome] = None
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)


class _InflightBook:
    """The scheduler-wide claim table: content hash → in-flight future.

    ``claim`` returns ``(future, owner)``; the first claimant of a hash owns
    it (and must eventually ``resolve`` or ``abandon``), later claimants
    attach. Resolved/abandoned entries leave the table immediately — once a
    result is resolved it is in the cache, so future submissions hit disk,
    not the book.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._futures: Dict[str, _JobFuture] = {}

    def claim(self, key: str) -> Tuple[_JobFuture, bool]:
        with self._lock:
            fut = self._futures.get(key)
            if fut is not None:
                return fut, False
            fut = _JobFuture()
            self._futures[key] = fut
            return fut, True

    def resolve(self, key: str, outcome: JobOutcome) -> None:
        with self._lock:
            fut = self._futures.pop(key, None)
        if fut is not None and not fut.done:
            fut.outcome = outcome
            fut._event.set()

    def abandon(self, key: str, fut: _JobFuture) -> None:
        with self._lock:
            if self._futures.get(key) is fut:
                del self._futures[key]
        fut._event.set()  # outcome stays None: waiters re-claim

    def __len__(self) -> int:
        with self._lock:
            return len(self._futures)


class SweepHandle:
    """One submission's live view: state, per-job states, progress events,
    cancellation, and the eventual result.

    Thread-safe; produced by :meth:`SweepScheduler.submit` (service path) or
    used transiently inside :meth:`SweepScheduler.run` (CLI path). The
    progress-event log is append-only and replayed to late subscribers, so
    an SSE client attaching mid-sweep sees the full history.
    """

    def __init__(
        self,
        sweep_id: str,
        sweep: SweepSpec,
        jobs: List[Job],
        options: Dict[str, Any],
    ) -> None:
        self.sweep_id = sweep_id
        self.sweep = sweep
        self.jobs = jobs
        self.options = options
        self.spec_digest = sweep_digest(jobs)
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Set once the submission's first wave with work has placed its
        #: in-flight claims (or on finishing) — after this, an overlapping
        #: submission is guaranteed to dedup on that wave's tasks.
        self.claimed = threading.Event()
        #: Set on entering a terminal state.
        self.finished = threading.Event()
        self._lock = threading.Lock()
        self._state = "queued"
        self._cancel = threading.Event()
        self._result: Optional[SweepResult] = None
        self._error: Optional[Dict[str, str]] = None
        self._job_states: Dict[str, str] = {j.job_hash: "queued" for j in jobs}
        self._progress: Dict[str, Any] = {}
        self._events: List[Dict[str, Any]] = []
        self._subscribers: List[queue.SimpleQueue[Dict[str, Any]]] = []
        self._seq = 0

    # ------------------------------------------------------------------ state
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    @property
    def error(self) -> Optional[Dict[str, str]]:
        with self._lock:
            return dict(self._error) if self._error else None

    def cancel(self) -> bool:
        """Request cancellation; returns False if already terminal.

        Queued submissions settle ``cancelled`` when the worker dequeues
        them; running ones stop at the next cancellation point (between
        jobs — an in-flight kernel call finishes first).
        """
        with self._lock:
            if self._state in TERMINAL_STATES:
                return False
        self._cancel.set()
        return True

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until terminal (or timeout); returns the current state."""
        self.finished.wait(timeout)
        return self.state

    def result(self, timeout: Optional[float] = None) -> SweepResult:
        """The submission's :class:`SweepResult`; raises on failure,
        cancellation, or timeout."""
        if not self.finished.wait(timeout):
            raise TimeoutError(
                f"sweep {self.sweep_id} still {self.state!r} after {timeout}s"
            )
        with self._lock:
            if self._state == "done":
                assert self._result is not None
                return self._result
            if self._state == "cancelled":
                raise SweepCancelled(f"sweep {self.sweep_id} was cancelled")
            err = self._error or {"type": "RuntimeError", "message": "unknown"}
        raise RuntimeError(
            f"sweep {self.sweep_id} failed: {err.get('type')}: {err.get('message')}"
        )

    # --------------------------------------------------------------- progress
    def progress(self) -> Dict[str, Any]:
        """A JSON-able status snapshot (the service's poll payload)."""
        with self._lock:
            run_id = None
            if self._result is not None:
                run_id = self._result.telemetry.get("run_id")
            out = {
                "sweep_id": self.sweep_id,
                "state": self._state,
                "label": self.options.get("label", ""),
                "cancelled": self._cancel.is_set(),
                "n_jobs": len(self.jobs),
                "spec_digest": self.spec_digest,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "error": dict(self._error) if self._error else None,
                "run_id": run_id,
            }
            out.update(self._progress)
        return out

    def job_states(self) -> List[Dict[str, str]]:
        """Per-job state rows, in submission order."""
        with self._lock:
            states = dict(self._job_states)
        return [
            {"hash": j.job_hash, "label": j.label, "state": states[j.job_hash]}
            for j in self.jobs
        ]

    def subscribe(self) -> Tuple[List[Dict[str, Any]], queue.SimpleQueue]:
        """Atomically snapshot past events and register a live queue — no
        event is lost or duplicated across the boundary."""
        q: queue.SimpleQueue[Dict[str, Any]] = queue.SimpleQueue()
        with self._lock:
            past = list(self._events)
            self._subscribers.append(q)
        return past, q

    def unsubscribe(self, q: queue.SimpleQueue) -> None:
        with self._lock:
            if q in self._subscribers:
                self._subscribers.remove(q)

    # ----------------------------------------------------- scheduler plumbing
    def _emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._seq += 1
            event = dict(event, sweep_id=self.sweep_id, seq=self._seq)
            self._events.append(event)
            subs = list(self._subscribers)
        for q in subs:
            q.put(event)

    def _progress_sink(self, event: Dict[str, Any]) -> None:
        """The :class:`ProgressTracker` sink: track job states + running
        totals, then fan the event out to subscribers."""
        if event.get("event") == "job":
            h = event.get("job_hash") or ""
            with self._lock:
                if h in self._job_states:
                    if not event.get("ok", True):
                        state = "failed"
                    elif event.get("attached"):
                        state = "attached"
                    elif event.get("from_cache"):
                        state = "cached"
                    else:
                        state = "done"
                    self._job_states[h] = state
                self._progress = {
                    k: event[k]
                    for k in (
                        "done", "total", "computed", "cache_hits",
                        "attached_jobs", "failures", "elapsed_s", "jobs_per_s",
                    )
                    if k in event
                }
        self._emit(event)

    def _set_state(self, state: str) -> None:
        with self._lock:
            self._state = state
            if state == "running":
                self.started_at = time.time()
        self._emit({"event": "state", "state": state})

    def _finish(
        self,
        state: str,
        result: Optional[SweepResult] = None,
        error: Optional[Dict[str, str]] = None,
    ) -> None:
        with self._lock:
            self._state = state
            self._result = result
            self._error = error
            if state == "cancelled":
                for h, s in self._job_states.items():
                    if s == "queued":
                        self._job_states[h] = "cancelled"
            self.finished_at = time.time()
        self._emit({"event": "state", "state": state, "error": error})
        self.finished.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SweepHandle({self.sweep_id!r}, state={self.state!r}, "
            f"n_jobs={len(self.jobs)})"
        )


class SweepScheduler:
    """The shared sweep engine behind ``run_sweep`` and ``repro-serve``.

    Synchronous path: :meth:`run` executes one submission in the calling
    thread (what :func:`~repro.pipeline.runner.run_sweep` uses). Service
    path: :meth:`submit` enqueues a :class:`SweepHandle` onto a bounded
    worker pool (``max_concurrent`` submissions in flight); both paths share
    the result cache, the in-flight claim book, and the run ledger, so any
    mix of them dedups work.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        executor: str = "auto",
        workers: Optional[int] = None,
        max_concurrent: int = 2,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self.cache_dir = cache_dir
        self.executor = executor
        self.workers = workers
        self.max_concurrent = max_concurrent
        self._inflight = _InflightBook()
        self._handles: Dict[str, SweepHandle] = {}
        self._queue: queue.Queue[Optional[SweepHandle]] = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._closed = False

    # ------------------------------------------------------------ submission
    def _make_handle(
        self,
        sweep: Union[SweepSpec, Sequence[ExperimentSpec]],
        *,
        label: str = "",
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        recompute: bool = False,
        stream: Optional[TextIO] = None,
        hold: Optional[threading.Event] = None,
    ) -> SweepHandle:
        if not isinstance(sweep, SweepSpec):
            sweep = SweepSpec.from_specs(sweep)
        jobs = sweep.jobs()  # spec-build errors surface here, pre-queue
        options = {
            "label": str(label),
            "executor": executor if executor is not None else self.executor,
            "workers": workers if workers is not None else self.workers,
            "recompute": bool(recompute),
            "stream": stream,
            "hold": hold,
        }
        with self._lock:
            self._counter += 1
            sweep_id = f"sw-{self._counter:04d}-{sweep_digest(jobs)[:8]}"
            handle = SweepHandle(sweep_id, sweep, jobs, options)
            self._handles[sweep_id] = handle
        return handle

    def submit(self, sweep, **options) -> SweepHandle:
        """Enqueue a sweep for background execution; returns its handle.

        Raises the usual spec-build errors (``ValueError``/``KeyError``)
        before queueing — the service maps those to HTTP 400s. Accepts the
        per-submission options of :meth:`run` plus ``label`` and a test-only
        ``hold`` event gating execution once the first wave with work has
        placed its in-flight claims.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        handle = self._make_handle(sweep, **options)
        self._ensure_started()
        self._queue.put(handle)
        return handle

    def run(
        self,
        sweep: Union[SweepSpec, Sequence[ExperimentSpec]],
        *,
        progress: bool = False,
        recompute: bool = False,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> SweepResult:
        """Execute one submission synchronously in the calling thread and
        return its result (exceptions propagate — the ``run_sweep`` path)."""
        handle = self._make_handle(
            sweep,
            executor=executor,
            workers=workers,
            recompute=recompute,
            stream=default_stream(progress),
        )
        self._run_submission(handle, reraise=True)
        return handle.result(timeout=0)

    # --------------------------------------------------------------- queries
    def get(self, sweep_id: str) -> Optional[SweepHandle]:
        """A handle by id — exact or unique prefix."""
        with self._lock:
            if sweep_id in self._handles:
                return self._handles[sweep_id]
            prefixed = [
                h for sid, h in self._handles.items() if sid.startswith(sweep_id)
            ]
        return prefixed[0] if len(prefixed) == 1 else None

    def sweeps(self) -> List[SweepHandle]:
        """All handles, oldest first."""
        with self._lock:
            return sorted(self._handles.values(), key=lambda h: h.created_at)

    def stats(self) -> Dict[str, Any]:
        handles = self.sweeps()
        by_state: Dict[str, int] = {}
        for h in handles:
            by_state[h.state] = by_state.get(h.state, 0) + 1
        return {
            "sweeps": len(handles),
            "by_state": by_state,
            "inflight_claims": len(self._inflight),
            "max_concurrent": self.max_concurrent,
            "executor": self.executor,
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
        }

    # -------------------------------------------------------------- lifecycle
    def _ensure_started(self) -> None:
        with self._lock:
            if self._threads:
                return
            for i in range(self.max_concurrent):
                t = threading.Thread(
                    target=self._worker, name=f"sweep-worker-{i}", daemon=True
                )
                t.start()
                self._threads.append(t)

    def _worker(self) -> None:
        while True:
            handle = self._queue.get()
            if handle is None:
                return
            self._run_submission(handle)

    def close(self, wait: bool = True) -> None:
        """Stop accepting submissions, cancel queued ones, stop workers."""
        with self._lock:
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(None)
        if wait:
            for t in threads:
                t.join()
        # Anything still queued never ran: settle it cancelled.
        while True:
            try:
                handle = self._queue.get_nowait()
            except queue.Empty:
                break
            if handle is not None and not handle.finished.is_set():
                handle._finish("cancelled")

    # -------------------------------------------------------------- execution
    def _run_submission(
        self, handle: SweepHandle, reraise: bool = False
    ) -> Optional[SweepResult]:
        if handle.cancelled:
            handle._finish("cancelled")
            if reraise:
                raise SweepCancelled(f"sweep {handle.sweep_id} was cancelled")
            return None
        handle._set_state("running")
        try:
            result = self._execute(handle)
        except SweepCancelled:
            handle._finish("cancelled")
            if reraise:
                raise
            return None
        except BaseException as exc:
            handle._finish(
                "failed", error={"type": type(exc).__name__, "message": str(exc)}
            )
            if reraise:
                raise
            return None
        handle._finish("done", result=result)
        return result

    def _check_cancel(self, handle: SweepHandle) -> None:
        if handle.cancelled:
            raise SweepCancelled(f"sweep {handle.sweep_id} was cancelled")

    def _await_future(
        self,
        key: str,
        fut: _JobFuture,
        handle: SweepHandle,
        compute: Callable[[], JobOutcome],
    ) -> Tuple[JobOutcome, bool]:
        """Wait for another submission's in-flight result; returns
        ``(outcome, attached)``. If the owner abandons the claim, re-claim
        and ``compute`` here (``attached=False``; ``compute`` resolves the
        new claim) so dedup never propagates a neighbor's cancellation."""
        while True:
            while not fut.wait(0.05):
                self._check_cancel(handle)
            if fut.outcome is not None:
                return fut.outcome, True
            fut, owner = self._inflight.claim(key)
            if owner:
                return compute(), False

    def _wave(
        self,
        handle: SweepHandle,
        tasks: Sequence[Task],
        kernel: Callable[[Any], Dict[str, Any]],
        store: Callable[[str, JobOutcome], None],
        settle: Callable[[str, Any, JobOutcome, bool], None],
        owned: List[Tuple[str, _JobFuture]],
        foreign_counters: List[Dict[str, float]],
    ) -> int:
        """Claim, dispatch and settle one wave of tasks (jobs or hw stages).

        All claims go in before any task runs, to widen the dedup window.
        Owned tasks run through one executor; each outcome is stored (never
        a failure: a fixed kernel should recompute it), resolved, and passed
        to ``settle(key, task, outcome, attached)``. Attached tasks settle
        last, recomputed here if abandoned. Returns the attached-claim count.
        Keys are computed once per task: a job hash is a SHA-256 over the
        canonical spec, redone on every access, and dominates warm sweeps.
        """
        mine: List[Task] = []
        theirs: List[Tuple[str, Task, _JobFuture]] = []
        for task in tasks:
            key = task_key(task)
            fut, owner = self._inflight.claim(key)
            if owner:
                mine.append(task)
                owned.append((key, fut))
            else:
                theirs.append((key, task, fut))
                METRICS.incr("pipeline.inflight_dedup")
        if tasks:
            handle.claimed.set()
            hold = handle.options.get("hold")
            if hold is not None:  # test hook: freeze here, claims placed
                while not hold.wait(0.02):
                    self._check_cancel(handle)

        def land(key: str, outcome: JobOutcome) -> JobOutcome:
            if outcome.ok:
                store(key, outcome)
            self._inflight.resolve(key, outcome)
            return outcome

        if mine:
            executor = handle.options["executor"]
            # One pending task can't use a pool; don't pay fork/setup.
            name = "serial" if (executor == "auto" and len(mine) == 1) else executor
            my_pid = f"pid-{os.getpid()}"
            pool = make_executor(name, handle.options["workers"])
            for outcome in pool.run(kernel, mine):
                if outcome.counters and outcome.worker != my_pid:
                    foreign_counters.append(outcome.counters)
                # The executor echoes the task back (a process pool, as a
                # pickled copy), so settle by content, never by identity.
                key = task_key(outcome.job)
                settle(key, outcome.job, land(key, outcome), False)
                self._check_cancel(handle)

        # Waiting after our own pool keeps this deadlock-free: owners
        # resolve from their pool loops, which never wait on attachments.
        for key, task, fut in theirs:
            self._check_cancel(handle)
            outcome, attached = self._await_future(
                key, fut, handle,
                compute=lambda key=key, task=task: land(key, _call(kernel, task)),
            )
            settle(key, task, outcome, attached)
        return len(theirs)

    def _execute(self, handle: SweepHandle) -> SweepResult:
        opts = handle.options
        jobs = handle.jobs
        executor: str = opts["executor"]
        workers: Optional[int] = opts["workers"]
        recompute: bool = opts["recompute"]
        cache = ResultCache(self.cache_dir) if self.cache_dir is not None else None
        if cache is not None:
            # Point the process-wide Hessian store's disk tier next to the
            # result cache — through the environment, so process-pool workers
            # inherit it and share Hessian work across processes and runs.
            # Deliberately left set after the sweep: later jobs of the same
            # session keep hitting the shared tier.
            os.environ[HESSIAN_DIR_ENV] = cache.hessian_tier_target()
        else:
            # No result cache ⇒ no disk tier either: a stale export from an
            # earlier sweep would silently resurrect that sweep's (possibly
            # deleted) cache directory with orphaned blobs.
            os.environ.pop(HESSIAN_DIR_ENV, None)
        tracer = current_tracer()
        started_at = time.time()
        counters_before = METRICS.snapshot()
        foreign_counters: List[Dict[str, float]] = []
        tracker = ProgressTracker(
            total=len(jobs),
            stream=opts.get("stream"),
            sinks=(handle._progress_sink,),
        )
        outcomes: Dict[str, JobOutcome] = {}
        # Quant-stage outcomes the codesign jobs read, by stage (= accuracy
        # job) hash, and the seconds of stages computed only for codesign
        # jobs — owed to the first codesign job that reads each.
        quant: Dict[str, JobOutcome] = {}
        owed: Dict[str, float] = {}
        quant_stage_hits = hw_stage_hits = inflight_attached = 0
        # Claims this submission owns and must resolve or abandon:
        # (key, future) pairs. Abandoning on the way out (cancellation,
        # crash) wakes attached submissions so they re-claim and recover.
        owned: List[Tuple[str, _JobFuture]] = []

        def lookup(key: str) -> Optional[Dict[str, Any]]:
            if cache is None or recompute:
                return None
            return (cache.get(key) or {}).get("metrics") or None

        def store_job(key: str, outcome: JobOutcome) -> None:
            if cache is not None:
                cache.put(key, outcome.record())

        def record(h: str, outcome: JobOutcome, attached: bool = False) -> None:
            outcomes[h] = outcome
            tracker.update(
                from_cache=False, ok=outcome.ok, seconds=outcome.seconds,
                label=outcome.job.label,
                error_type=(outcome.error or {}).get("type", ""),
                job_hash=h, attached=attached,
            )

        try:
            pending: List[Job] = []
            for job in jobs:
                self._check_cancel(handle)
                if cache is None or recompute:
                    cached, lookup_s = None, 0.0
                else:
                    t0 = time.perf_counter()
                    cached = cache.get(job.job_hash)
                    lookup_s = time.perf_counter() - t0
                if cached is not None and cached.get("metrics") is not None:
                    outcomes[job.job_hash] = JobOutcome(
                        job,
                        metrics=cached["metrics"],
                        seconds=float(cached.get("seconds", 0.0)),
                        from_cache=True,
                    )
                    tracker.update(
                        from_cache=True, seconds=lookup_s, label=job.label,
                        job_hash=job.job_hash,
                    )
                else:
                    pending.append(job)

            codesign = [j for j in pending if j.spec.job_kind == "codesign"]
            plain = {j.job_hash: j for j in pending if j.spec.job_kind != "codesign"}

            # Quant stages the codesign jobs need beyond the plain jobs: an
            # identical accuracy job pending (or cached) in this very sweep
            # serves as the stage — the content hash is the same.
            extra: Dict[str, Job] = {}
            for j in codesign:
                qjob = j.quant_stage()
                qh = qjob.job_hash
                if qh in quant or qh in plain or qh in extra:
                    quant_stage_hits += 1
                    continue
                metrics = outcomes[qh].metrics if qh in outcomes else lookup(qh)
                if metrics and metrics.get("layers"):
                    quant[qh] = JobOutcome(qjob, metrics=metrics, from_cache=True)
                    quant_stage_hits += 1
                else:  # pre-lift records recompute (and refresh) the stage
                    extra[qh] = qjob

            def settle_job(h: str, job: Job, outcome: JobOutcome, attached: bool) -> None:
                if attached:
                    # Mirror the neighbor's outcome under our own Job; zero
                    # seconds — the work happened once, elsewhere.
                    outcome = JobOutcome(
                        job, metrics=outcome.metrics, error=outcome.error,
                        from_cache=outcome.ok,
                    )
                quant[h] = outcome  # any wave-1 job may be a codesign quant stage
                if h in extra:
                    owed[h] = outcome.seconds
                if h in plain:
                    record(h, outcome, attached)

            inflight_attached += self._wave(
                handle, [*plain.values(), *extra.values()], execute_job,
                store_job, settle_job,
                owned, foreign_counters,
            )

            # Lift each codesign job's quant stage and serve or queue its hw
            # stage. Jobs whose lifts land on the same stage address share
            # one simulation, like quant stages do.
            traced_run = tracer is not None
            lift_spans: Dict[str, Dict[str, Any]] = {}
            own_seconds: Dict[str, float] = {}  # quant share + lift, per job
            sharers: Dict[str, List[Job]] = {}
            stages: List[_HwStageTask] = []

            def merge(job: Job, hw: JobOutcome, seconds: float, attached: bool) -> None:
                h = job.job_hash
                q = quant[job.quant_stage().job_hash]
                if not hw.ok:
                    return record(h, JobOutcome(
                        job, error=dict(hw.error), seconds=seconds), attached)
                outcome = JobOutcome(
                    job,
                    metrics=_merge_codesign(job, q.metrics, hw.metrics),
                    seconds=seconds,
                    spans=_stitch_spans(
                        job, q.spans, lift_spans.get(h), None if attached else hw.spans,
                    ) if traced_run else None,
                )
                if not attached:
                    store_job(h, outcome)
                record(h, outcome, attached)

            for job in codesign:
                t0 = time.perf_counter()
                qh = job.quant_stage().job_hash
                q, share = quant[qh], owed.pop(qh, 0.0)
                error = q.error
                try:
                    layers = _lift_layers(q.metrics, job) if q.ok else {}
                except RuntimeError as exc:
                    error = {"type": "RuntimeError", "message": str(exc), "traceback": ""}
                if error is not None:
                    record(job.job_hash, JobOutcome(job, error=dict(error), seconds=share))
                    continue
                hh = hw_stage_hash(job.spec, layers, job.version)
                lift_s = time.perf_counter() - t0
                own_seconds[job.job_hash] = share + lift_s
                if traced_run:
                    lift_spans[job.job_hash] = {
                        "name": "stage:lift", "seconds": round(lift_s, 6), "children": [],
                        "attrs": {"family": job.spec.family, "arch": job.spec.arch},
                    }
                hw_metrics = lookup(hh)
                if hw_metrics is not None:
                    hw_stage_hits += 1
                    merge(job, JobOutcome(job, metrics=hw_metrics),
                          own_seconds[job.job_hash], attached=False)
                    continue
                if hh in sharers:
                    hw_stage_hits += 1  # shares a sibling's pending simulation
                else:
                    sharers[hh] = []
                    stages.append(
                        _HwStageTask(job, hh, _HwStageTask.pack_layers(layers))
                    )
                sharers[hh].append(job)

            def store_hw(key: str, outcome: JobOutcome) -> None:
                if cache is not None:
                    cache.put(outcome.job.stage_hash, {
                        "stage": "codesign-hw",
                        "label": outcome.job.label,
                        "metrics": outcome.metrics,
                        "seconds": outcome.seconds,
                    })

            def settle_hw(
                key: str, task: _HwStageTask, outcome: JobOutcome, attached: bool
            ) -> None:
                owner = task.job.job_hash
                for job in sharers[task.stage_hash]:
                    if attached:
                        seconds = 0.0  # the simulation ran once, elsewhere
                    else:
                        # Only the stage's owning job carries its seconds.
                        h = job.job_hash
                        seconds = own_seconds[h] + (outcome.seconds if h == owner else 0.0)
                    merge(job, outcome, seconds, attached)

            inflight_attached += self._wave(
                handle, stages, _hw_stage_kernel, store_hw, settle_hw,
                owned, foreign_counters,
            )
        finally:
            handle.claimed.set()
            for key, fut in owned:
                if not fut.done:
                    self._inflight.abandon(key, fut)

        telemetry = tracker.finish()
        telemetry["executor"] = executor
        telemetry["quant_stage_hits"] = quant_stage_hits
        telemetry["hw_stage_hits"] = hw_stage_hits
        telemetry["inflight_dedup"] = inflight_attached
        telemetry["sweep_id"] = handle.sweep_id
        # Publish the sweep-level counters, then report this run's delta —
        # local activity plus whatever foreign pool workers shipped back.
        METRICS.incr("pipeline.jobs_computed", tracker.computed)
        if quant_stage_hits:
            METRICS.incr("pipeline.quant_stage_hits", quant_stage_hits)
        if hw_stage_hits:
            METRICS.incr("pipeline.hw_stage_hits", hw_stage_hits)
        counters = merge_deltas(METRICS.delta(counters_before), *foreign_counters)
        telemetry["counters"] = counters
        telemetry["hessian"] = {
            key: int(counters.get(f"hessian.store.{key}", 0))
            for key in (
                "hits", "disk_hits", "misses", "h_builds", "inversions",
                "factorizations",
            )
        }
        result = SweepResult(
            jobs=jobs,
            outcomes=[outcomes[j.job_hash] for j in jobs],
            telemetry=telemetry,
        )
        spans_tree = None
        if tracer is not None:
            spans_tree = {
                "name": "sweep",
                "attrs": {"executor": executor, "n_jobs": len(jobs)},
                "seconds": round(time.time() - started_at, 6),
                "children": [o.spans for o in result.outcomes if o.spans],
            }
        if cache is not None:
            ledger_jobs = []
            for o in result.outcomes:
                entry = {
                    "hash": o.job.job_hash,
                    "label": o.job.label,
                    "kind": o.job.spec.job_kind,
                    "ok": o.ok,
                    "from_cache": o.from_cache,
                    "seconds": round(o.seconds, 6),
                }
                if o.error is not None:
                    entry["error_type"] = o.error.get("type", "Error")
                if o.worker and not o.from_cache:
                    entry["worker"] = o.worker
                ledger_jobs.append(entry)
            record = {
                "hostname": socket.gethostname(),
                "started_at": started_at,
                "finished_at": time.time(),
                "wall_s": telemetry["elapsed_s"],
                "compute_s": telemetry["compute_s"],
                "lookup_s": telemetry["lookup_s"],
                "spec_digest": handle.spec_digest,
                "sweep_id": handle.sweep_id,
                "executor": executor,
                "workers": workers or 0,
                "n_jobs": len(jobs),
                "cache_hits": tracker.cache_hits,
                "failures": tracker.failures,
                "quant_stage_hits": quant_stage_hits,
                "hw_stage_hits": hw_stage_hits,
                "traced": tracer is not None,
                "counters": counters,
                "jobs": ledger_jobs,
                "spans": spans_tree,
            }
            if inflight_attached:
                record["inflight_dedup"] = inflight_attached
            if opts.get("label"):
                record["label"] = opts["label"]
            telemetry["run_id"] = RunLedger(cache.root / "runs").append(record)
        return result


def _stitch_spans(job: Job, *stages: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """One ``job`` span over a codesign job's quant, lift and hw stage
    captures, which ran in different places (pools, the scheduler thread).
    A captured ``job`` node contributes its children, a bare one itself
    under its stage name; stages served from cache have no child. The total
    is the sum of the children."""
    names = ("stage:quant", "stage:lift", "stage:hw")
    children = [
        child
        for name, span in zip(names, stages)
        if span
        for child in (span.get("children") or [dict(span, name=name)])
    ]
    if not children:
        return None
    return {
        "name": "job",
        "attrs": {"label": job.label, "hash": job.job_hash, "kind": "codesign",
                  "staged": True},
        "seconds": round(sum(float(c.get("seconds", 0.0)) for c in children), 6),
        "children": children,
    }
