"""Periodic processes on top of the event queue.

A :class:`PeriodicProcess` re-schedules itself every ``period`` seconds.  It
is the building block for the paper's *data scheduling period*
(``tau = 1.0 s``): each peer's buffer-map exchange / request scheduling, the
churn model and the metric sampler are all periodic processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import SimulationEngine
    from repro.sim.events import Event


class PeriodicProcess:
    """A callback invoked every ``period`` seconds of simulated time.

    Instances are normally created through
    :meth:`repro.sim.engine.SimulationEngine.schedule_periodic`.

    Attributes
    ----------
    period:
        Interval between invocations (seconds).
    fired:
        Number of completed invocations.
    """

    def __init__(
        self,
        engine: "SimulationEngine",
        period: float,
        callback: Callable[[float], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._engine = engine
        self.period = float(period)
        self._callback: Optional[Callable[[float], None]] = callback
        self._priority = priority
        self.label = label
        self._pending: Optional["Event"] = None
        self._stopped = False
        self.fired = 0

    @property
    def active(self) -> bool:
        """Whether the process will fire again."""
        return not self._stopped and self._pending is not None

    def start(self, first_time: float) -> None:
        """Schedule the first invocation at ``first_time``."""
        if self._stopped:
            raise RuntimeError("cannot restart a stopped PeriodicProcess")
        self._pending = self._engine.schedule(
            first_time, self._fire, priority=self._priority, label=self.label
        )

    def stop(self) -> None:
        """Cancel the next (and all future) invocations and let go of the callback.

        A cancelled event stays in the queue until it surfaces, and through
        it this process; dropping the callback keeps that from pinning the
        callback's owner (a finished session) for as long.
        """
        self._stopped = True
        self._callback = None
        if self._pending is not None:
            self._engine.cancel(self._pending)
            self._pending = None

    def _fire(self) -> None:
        if self._stopped:
            return
        now = self._engine.now
        # Re-schedule first so a callback that raises StopSimulation leaves a
        # consistent queue, and so a callback calling ``stop`` cancels it.
        self._pending = self._engine.schedule(
            now + self.period, self._fire, priority=self._priority, label=self.label
        )
        self.fired += 1
        self._callback(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "stopped"
        return f"PeriodicProcess(label={self.label!r}, period={self.period}, {state})"
