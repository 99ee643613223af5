"""A deterministic simulation clock.

The measurement campaign in the paper spans five months with snapshots every
four hours.  To reproduce that behaviour without waiting wall-clock time, all
components share a :class:`SimulationClock` whose time only moves when the
simulation advances it.
"""

from __future__ import annotations

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR


class SimulationClock:
    """A monotonically increasing simulated clock.

    Time is measured in seconds since an arbitrary epoch (the start of the
    simulated measurement campaign, unless configured otherwise).
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock start must be non-negative")
        self._now = float(start)
        self._start = float(start)

    @property
    def start(self) -> float:
        """Return the epoch the clock was created with."""
        return self._start

    def now(self) -> float:
        """Return the current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += float(seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to an absolute ``timestamp`` (never backwards)."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards from {self._now} to {timestamp}"
            )
        self._now = float(timestamp)
        return self._now
