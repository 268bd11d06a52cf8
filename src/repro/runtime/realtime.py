"""Wall-clock asyncio runtime: the same engine stack on real time.

Everything the engines schedule — frontend WIs, delivery latencies, step
service times, watchdogs — lands on :class:`RealtimeClock`, a monotonic
wall clock that maps ``schedule(delay, fn, *args)`` onto
``loop.call_later``.  The transport is the shared clock-agnostic
:class:`repro.runtime.transport.Network` (persistent-queue semantics,
per-mechanism accounting, Lamport stamping — identical to simulation),
with the configured :class:`~repro.runtime.latency.LatencyModel` applied
as *real* delay: ``FixedLatency(0.0)`` for an undelayed in-process
service, positive values to rehearse WAN pacing.  Step programs run in
real asyncio tasks through :class:`TaskExecutor`, which wraps transient
program exceptions in the engines' :class:`~repro.runtime.retry.
RetryPolicy` backoff instead of letting one flaky callback kill the
daemon.

Times reported by ``RealtimeClock.now`` are seconds since
:meth:`RealtimeClock.start` (captured lazily from the first running
loop), so traces and span durations read like the simulated ones: small
numbers starting near zero.

Determinism note: this backend is for *serving* and wall-clock
benchmarks.  :meth:`RealtimeRuntime.install_faults` accepts the same
seeded :class:`~repro.runtime.faults.FaultPlan` the simulated backend
runs — the *decision sequence* (which messages drop, duplicate, delay;
which executor submissions fail) replays deterministically from
``(seed, plan)``, but event interleaving rides the wall clock, so
reproducibility is at the outcome level, not byte-level.  Fixed-seed
bit-replay remains the business of the simulated backend.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.errors import InjectedFault, SimulationError, WorkloadError
from repro.runtime.latency import FixedLatency, LatencyModel
from repro.runtime.metrics import MetricsCollector
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom
from repro.runtime.transport import Network

__all__ = ["RealtimeClock", "RealtimeHandle", "RealtimeRuntime", "TaskExecutor"]


class RealtimeHandle:
    """A cancellable reference to a scheduled wall-clock callback."""

    __slots__ = ("_clock", "_timer", "action", "cancelled", "time")

    def __init__(self, clock: "RealtimeClock", timer: asyncio.TimerHandle,
                 time: float, action: Callable[..., Any]):
        self._clock = clock
        self._timer = timer
        self.time = time
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self._timer.cancel()
        clock = self._clock
        if clock is not None:
            self._clock = None
            clock._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.action, "__name__", repr(self.action))
        return f"<RealtimeHandle t={self.time:.3f} {name} {state}>"


class RealtimeClock:
    """Monotonic wall clock over the asyncio event loop.

    Satisfies :class:`repro.runtime.protocols.Clock`.  ``now`` is seconds
    since :meth:`start`; callbacks are real ``call_later`` timers.  The
    clock keeps the same observability surface as the simulated kernel
    (``events_processed``, ``event_hook``, ``profile``, ``pending``) so
    the engines' obs wiring works unchanged under both substrates.

    There is deliberately no synchronous ``run()``: the asyncio loop is
    the driver.  Use :meth:`join` to await quiescence.
    """

    def __init__(self) -> None:
        self._loop: asyncio.AbstractEventLoop | None = None
        self._epoch = 0.0
        self._pending = 0
        self._idle: asyncio.Event | None = None
        self.events_processed = 0
        self._last_fire = 0.0
        #: Observability hook called as ``hook(time, pending)`` before each
        #: callback fires — same shape as the simulated kernel's.
        self.event_hook: Callable[[float, int], None] | None = None
        #: Duck-typed profiler (see :class:`repro.obs.profile.Profiler`),
        #: same slot the simulated kernel exposes.  When installed, every
        #: fired callback runs inside a named subsystem frame credited
        #: with the wall-clock advance since the previous event (the
        #: realtime analogue of the kernel's sim-dt credit).
        self.profile = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Bind to ``loop`` (default: the running loop) and zero the clock."""
        if self._loop is not None:
            return
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self._idle = asyncio.Event()
        self._idle.set()

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            try:
                self.start()
            except RuntimeError:
                raise SimulationError(
                    "RealtimeClock is not bound to an event loop; call "
                    "start() inside a running loop (or run under "
                    "asyncio.run) before scheduling"
                ) from None
        return self._loop

    # -- Clock protocol ----------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds since :meth:`start` (0.0 before the clock is bound)."""
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._epoch

    def schedule(
        self, delay: float, action: Callable[..., Any], *args: Any
    ) -> RealtimeHandle:
        """Run ``action(*args)`` ``delay`` real seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        loop = self._require_loop()
        handle: RealtimeHandle
        fire_at = self.now + delay

        def fire() -> None:
            if handle.cancelled:
                # A cancel raced the loop's ready queue: asyncio skips
                # cancelled TimerHandles before calling them, so this
                # branch is belt-and-braces — cancel() already released
                # the pending slot, firing now would double-count.
                return  # pragma: no cover - asyncio guards this upstream
            handle._clock = None  # a late cancel is a pure no-op
            self._pending -= 1
            self.events_processed += 1
            now = self.now
            if self.event_hook is not None:
                self.event_hook(now, self._pending)
            profile = self.profile
            if profile is not None:
                profile.begin_event(action, now, now - self._last_fire,
                                    self._pending)
                self._last_fire = now
            try:
                action(*args)
            finally:
                if profile is not None:
                    profile.end_event()
                if self._pending == 0 and self._idle is not None:
                    self._idle.set()

        timer = loop.call_later(delay, fire)
        handle = RealtimeHandle(self, timer, fire_at, action)
        self._pending += 1
        if self._idle is not None:
            self._idle.clear()
        return handle

    def schedule_at(
        self, time: float, action: Callable[..., Any], *args: Any
    ) -> RealtimeHandle:
        """Run ``action(*args)`` at absolute clock time ``time``."""
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={now})"
            )
        return self.schedule(time - now, action, *args)

    def _on_cancel(self) -> None:
        self._pending -= 1
        if self._pending == 0 and self._idle is not None:
            self._idle.set()

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unfired callbacks."""
        return self._pending

    # -- quiescence --------------------------------------------------------

    async def join(self, timeout: float | None = None) -> bool:
        """Wait until no callbacks are pending; ``False`` on timeout."""
        if self._idle is None:
            return self._pending == 0
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RealtimeClock now={self.now:.3f} pending={self._pending}>"


class _TaskHandle:
    """Cancellable wrapper over one executor task (None: never spawned)."""

    __slots__ = ("_task", "cancelled")

    def __init__(self, task: "asyncio.Task[Any] | None"):
        self._task = task
        self.cancelled = task is None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self._task.cancel()


class TaskExecutor:
    """Task-based step execution with retry-on-transient-failure.

    ``submit(delay, fn, *args)`` spawns a real asyncio task that sleeps
    the service time, then calls ``fn``.  A raising ``fn`` is retried on
    the runtime's :class:`~repro.runtime.retry.RetryPolicy` backoff (with
    the jitter drawn from a seeded stream so retry pacing is at least
    *replayable* in logs); once the budget is exhausted the failure is
    recorded in :attr:`failures` instead of killing the event loop.
    """

    def __init__(self, clock: RealtimeClock, retry: RetryPolicy | None = None,
                 rng: SimRandom | None = None):
        self.clock = clock
        self.retry = retry if retry is not None else RetryPolicy()
        self._jitter = (rng if rng is not None else SimRandom(0)).stream(
            "executor:retry"
        )
        #: Optional fault injector (see :class:`repro.runtime.faults.
        #: FaultInjector`), set by :meth:`RealtimeRuntime.install_faults`.
        #: When present, each submission consults it for an injected
        #: pre-run stall and each attempt for an injected failure.
        self.faults = None
        self._tasks: set[asyncio.Task[Any]] = set()
        self._closed = False
        self.submitted = 0
        self.retries = 0
        #: ``(callable qualname, repr(exception))`` of budget-exhausted work.
        self.failures: list[tuple[str, str]] = []
        #: Duck-typed observability hooks (``obs`` sits above ``runtime``
        #: in the layering contract, so the owning service injects these
        #: rather than the executor importing a logger/registry):
        #: ``on_retry(fn, name, exc, attempt, backoff)`` after each failed
        #: attempt that will be retried, ``on_give_up(fn, name, exc,
        #: attempts)`` once the budget is exhausted.  Hook exceptions are
        #: swallowed — observability must never kill the worker task.
        self.on_retry: Callable[..., None] | None = None
        self.on_give_up: Callable[..., None] | None = None

    def submit(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> _TaskHandle:
        """Run ``fn(*args)`` after ``delay`` seconds in a real task."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        loop = self.clock._require_loop()
        if self._closed:
            return _TaskHandle(None)
        self.submitted += 1
        task = loop.create_task(self._run(delay, fn, args))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return _TaskHandle(task)

    async def _run(self, delay: float, fn: Callable[..., Any], args: tuple) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        faults = self.faults
        name = getattr(fn, "__qualname__", repr(fn))
        if faults is not None:
            stall = faults.executor_stall(name)
            if stall > 0:
                await asyncio.sleep(stall)
        attempt = 0
        while True:
            try:
                if faults is not None and faults.executor_should_fail(
                    name, attempt + 1
                ):
                    raise InjectedFault(f"injected executor failure in {name}")
                fn(*args)
                return
            except asyncio.CancelledError:  # pragma: no cover - defensive
                raise
            except Exception as exc:
                attempt += 1
                backoff = self.retry.backoff(attempt, self._jitter)
                if backoff is None:
                    self.failures.append((name, repr(exc)))
                    self._notify(self.on_give_up, fn, name, exc, attempt)
                    return
                self.retries += 1
                self._notify(self.on_retry, fn, name, exc, attempt, backoff)
                await asyncio.sleep(backoff)

    @staticmethod
    def _notify(hook: Callable[..., None] | None, *args: Any) -> None:
        if hook is None:
            return
        try:
            hook(*args)
        except Exception:  # pragma: no cover - defensive
            pass

    def close(self) -> None:
        """Spawn no further tasks; later submissions are dropped.

        ``asyncio.run`` cancels only the tasks alive when its main
        coroutine returns.  A clock timer that fires during that teardown
        can still submit work, and a task spawned then is never cancelled:
        the loop closes under it.  The owner closes the executor when its
        own lifetime ends, so nothing can be spawned past it.
        """
        self._closed = True

    @property
    def inflight(self) -> int:
        """Tasks submitted but not yet finished."""
        return len(self._tasks)

    async def join(self, timeout: float | None = None) -> bool:
        """Wait for all in-flight tasks; ``False`` on timeout."""
        if not self._tasks:
            return True
        __, pending = await asyncio.wait(set(self._tasks), timeout=timeout)
        return not pending


class RealtimeRuntime:
    """Asyncio substrate bundle: wall clock + shared transport + tasks.

    Satisfies :class:`repro.runtime.protocols.Runtime`.  The transport is
    the same :class:`~repro.runtime.transport.Network` the simulation
    uses, constructed over the wall clock; the default latency model is
    ``FixedLatency(0.0)`` (undelayed in-process delivery — pass a model
    to rehearse network pacing).
    """

    name = "asyncio"

    def __init__(
        self,
        metrics: MetricsCollector | None = None,
        latency: LatencyModel | None = None,
        retry: RetryPolicy | None = None,
        rng: SimRandom | None = None,
    ):
        self.clock = RealtimeClock()
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.transport = Network(
            self.clock, self.metrics,
            latency if latency is not None else FixedLatency(0.0),
        )
        self.executor = TaskExecutor(self.clock, retry=retry, rng=rng)
        self.transport.executor = self.executor
        #: The installed fault injector, if any.
        self.faults = None

    def start(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Bind the clock to a running loop (lazy on first schedule)."""
        self.clock.start(loop)

    # -- fault injection ---------------------------------------------------

    def supports_faults(self) -> bool:
        return True

    def install_faults(self, plan: Any, rng: Any, retry: Any) -> Any:
        """Install a seeded :class:`~repro.runtime.faults.FaultInjector`.

        Same contract as the simulated backend: ``rng`` is a dedicated
        child seed space (callers spawn ``rng.spawn("faults")``) so the
        injector's decision streams replay from ``(seed, plan)``; crash /
        stall / outage times in the plan are wall-clock seconds since the
        runtime started.  Returns the installed injector.
        """
        from repro.runtime.faults import FaultInjector

        if self.faults is not None:
            raise WorkloadError("fault injector already installed")
        injector = FaultInjector(plan, rng, retry=retry)
        injector.install(self.transport)
        injector.arm(self.clock)
        self.executor.faults = injector
        self.faults = injector
        return injector

    # -- quiescence --------------------------------------------------------

    async def join(self, timeout: float | None = None) -> bool:
        """Wait until the clock and the executor are both idle.

        Work can ping-pong between the two (a timer spawns a task which
        schedules a timer), so the join loops until a pass observes both
        idle, or the timeout budget runs out.
        """
        loop = self.clock._require_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0:
                return False
            if not await self.clock.join(remaining):
                return False
            remaining = None if deadline is None else deadline - loop.time()
            if not await self.executor.join(remaining):
                return False
            if self.clock.pending == 0 and self.executor.inflight == 0:
                return True
