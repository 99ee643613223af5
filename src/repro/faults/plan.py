"""Fault specifications and their compiled per-scenario plans.

A :class:`FaultSpec` names a fault mix; :class:`FaultPlan` compiles it
against a domain population and a campaign window into one
:class:`DomainFaultSchedule` per afflicted domain.  A schedule holds the
domain's time-only faults (outage and rate-limit windows, flap geometry)
and serves its per-request rolls through a look-ahead buffer filled in
order from the domain's own stream, so a crawl can ask when the domain's
requests may next be faulted without drawing anything out of order.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat, starmap
from math import inf
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import only for type checking
    from repro.faults.injector import FaultInjector


class FaultKind(str, Enum):
    """Every way the injected transport can misbehave."""

    #: A transient 5xx outage window (answers 500 for a while, then heals).
    TRANSIENT = "transient"
    #: A request that never completes; surfaces as 504 and costs simulated
    #: wall time (the client waited out its read timeout).
    TIMEOUT = "timeout"
    #: HTTP 429 with a ``Retry-After`` header, during rate-limit windows.
    RATE_LIMIT = "rate_limit"
    #: Flapping availability: periodic down intervals answering 503
    #: without any retry hint — indistinguishable from a dead instance.
    FLAP = "flap"
    #: A silently truncated timeline stream (posts missing, no error).
    TRUNCATE = "truncate"
    #: A 200 response whose body is not parseable JSON.
    MALFORMED = "malformed"
    #: Not injected: stamped by the client when its circuit breaker opens.
    CIRCUIT_OPEN = "circuit_open"


@dataclass(frozen=True)
class FaultSpec:
    """The knobs of one fault mix.

    Share-style knobs select the fraction of *domains* afflicted with a
    scheduled misbehaviour (outage windows, rate limiting, flapping);
    rate-style knobs are per-request probabilities drawn from the
    afflicted domain's dedicated stream.  All defaults are zero: the
    default spec is the zero-fault plan.
    """

    #: Seed of the dedicated fault RNG stream (never shared with the
    #: generator's stream, so adding faults cannot perturb generation).
    seed: int = 1337

    # -- transient 5xx outage windows ----------------------------------- #
    transient_share: float = 0.0
    transient_windows: int = 2
    transient_window_seconds: float = 6 * 3600.0

    # -- timeouts -------------------------------------------------------- #
    timeout_rate: float = 0.0
    #: Simulated seconds one timed-out request costs the campaign clock.
    timeout_seconds: float = 30.0

    # -- 429 rate limiting ----------------------------------------------- #
    rate_limit_share: float = 0.0
    rate_limit_windows: int = 3
    rate_limit_window_seconds: float = 2 * 3600.0
    #: The ``Retry-After`` delay advertised during a rate-limit window.
    rate_limit_retry_after: float = 45.0

    # -- flapping availability ------------------------------------------- #
    flap_share: float = 0.0
    flap_period_seconds: float = 12 * 3600.0
    #: Fraction of each flap period the instance spends down (503).
    flap_down_share: float = 0.35

    # -- timeline truncation / malformed bodies -------------------------- #
    truncate_rate: float = 0.0
    #: Fraction of the timeline kept when a stream is truncated.
    truncate_keep_share: float = 0.5
    malformed_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "transient_share",
            "timeout_rate",
            "rate_limit_share",
            "flap_share",
            "flap_down_share",
            "truncate_rate",
            "truncate_keep_share",
            "malformed_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.transient_windows < 0 or self.rate_limit_windows < 0:
            raise ValueError("window counts must be non-negative")
        if self.timeout_seconds < 0:
            raise ValueError("timeout_seconds must be non-negative")
        if self.flap_period_seconds <= 0:
            raise ValueError("flap_period_seconds must be positive")

    @property
    def inert(self) -> bool:
        """Return ``True`` when this spec can never inject a fault."""
        return (
            self.transient_share == 0.0
            and self.timeout_rate == 0.0
            and self.rate_limit_share == 0.0
            and self.flap_share == 0.0
            and self.truncate_rate == 0.0
            and self.malformed_rate == 0.0
        )

    @classmethod
    def none(cls, seed: int = 1337) -> "FaultSpec":
        """The zero-fault spec (provably inert: the plan wraps nothing)."""
        return cls(seed=seed)

    @classmethod
    def profile(cls, name: str, seed: int = 1337) -> "FaultSpec":
        """Return a named fault profile (``none``/``light``/``mixed``/``heavy``)."""
        try:
            overrides = FAULT_PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown fault profile {name!r}; "
                f"available: {', '.join(sorted(FAULT_PROFILES))}"
            ) from None
        return cls(seed=seed, **overrides)

    @classmethod
    def for_config(cls, config) -> "FaultSpec":
        """Build the spec a :class:`~repro.synth.config.SynthConfig` names.

        Reads the config's ``fault_profile``/``fault_seed`` knobs, so a
        scenario (e.g. ``chaos``) fully describes both its population and
        the network weather its campaign is measured under.
        """
        return cls.profile(
            getattr(config, "fault_profile", "none"),
            seed=getattr(config, "fault_seed", 1337),
        )


#: Named fault mixes, applied as overrides on top of the zero defaults.
FAULT_PROFILES: dict[str, dict] = {
    "none": {},
    # A realistic background hum: a few flappers, rare timeouts.
    "light": {
        "transient_share": 0.05,
        "timeout_rate": 0.005,
        "flap_share": 0.05,
        "truncate_rate": 0.01,
    },
    # The chaos-bench default: every fault kind fires, none dominates.
    "mixed": {
        "transient_share": 0.15,
        "timeout_rate": 0.02,
        "rate_limit_share": 0.10,
        "flap_share": 0.10,
        "truncate_rate": 0.05,
        "malformed_rate": 0.01,
    },
    # A hostile network: most domains misbehave somehow.
    "heavy": {
        "transient_share": 0.30,
        "transient_windows": 3,
        "timeout_rate": 0.05,
        "rate_limit_share": 0.20,
        "flap_share": 0.25,
        "flap_down_share": 0.45,
        "truncate_rate": 0.12,
        "malformed_rate": 0.03,
    },
}


#: Rolls a schedule draws from its stream at a time.
ROLL_CHUNK = 64


@dataclass
class DomainFaultSchedule:
    """Everything one domain's requests can run into.

    Window lists hold ``(start, end)`` pairs in campaign time, sorted and
    non-overlapping within each kind.  ``rng`` is this domain's dedicated
    per-request stream, read only through a look-ahead buffer: each
    timeout/malformed/truncate roll is the next value :meth:`roll` serves,
    so the fault sequence a domain sees depends only on its own request
    history, and :meth:`quiet_requests` can read ahead without serving.
    """

    domain: str
    rng: random.Random
    transient_windows: list[tuple[float, float]] = field(default_factory=list)
    rate_limit_windows: list[tuple[float, float]] = field(default_factory=list)
    #: Flap geometry: ``(phase_offset, period, down_seconds)`` or ``None``.
    flap: tuple[float, float, float] | None = None
    #: How many rolls have been served: the stream position of the next one.
    cursor: int = field(default=0, compare=False)
    #: Rolls drawn from ``rng`` so far; the buffer holds those from stream
    #: position ``_base`` on (``_rolls[0]``), the unserved ones and maybe a
    #: few served ones.
    _drawn: int = field(default=0, compare=False, repr=False)
    _rolls: list[float] = field(default_factory=list, compare=False, repr=False)
    _base: int = field(default=0, compare=False, repr=False)
    #: ``(draws, since, until)``: from stream position ``since``, requests
    #: of ``draws`` rolls fault on no roll before position ``until``.
    _quiet: tuple = field(default=((), 0, 0), compare=False, repr=False)

    @staticmethod
    def _in_windows(windows: list[tuple[float, float]], now: float) -> bool:
        if not windows:
            return False
        index = bisect_right(windows, (now, float("inf"))) - 1
        return index >= 0 and windows[index][0] <= now < windows[index][1]

    def transient_at(self, now: float) -> bool:
        """Return ``True`` inside one of this domain's 5xx outage windows."""
        return self._in_windows(self.transient_windows, now)

    def rate_limited_at(self, now: float) -> bool:
        """Return ``True`` inside one of this domain's rate-limit windows."""
        return self._in_windows(self.rate_limit_windows, now)

    def flapping_down_at(self, now: float) -> bool:
        """Return ``True`` when the flap schedule has the instance down."""
        if self.flap is None:
            return False
        offset, period, down_seconds = self.flap
        return (now + offset) % period < down_seconds

    def next_fault_at(self, after: float) -> float:
        """Return the first instant from ``after`` that a window or flap faults.

        That is ``after`` itself when a window or a flap down-interval is in
        force then, else the next window start or down-interval start
        (``inf`` when none is left).  A down-interval start is computed in
        floating point, so it is moved a millionth of a period earlier: the
        answer may be early, never late.
        """
        wake = inf
        for windows in (self.transient_windows, self.rate_limit_windows):
            if windows:
                index = bisect_right(windows, (after, inf))
                if index and after < windows[index - 1][1]:
                    return after
                if index < len(windows) and windows[index][0] < wake:
                    wake = windows[index][0]
        if self.flap is not None:
            offset, period, down_seconds = self.flap
            phase = (after + offset) % period
            if phase < down_seconds:
                return after
            start = after + (period - phase) - period * 1e-6
            if start < wake:
                wake = start
        return wake

    # ------------------------------------------------------------------ #
    # The roll buffer
    # ------------------------------------------------------------------ #
    def _draw(self, end: int) -> None:
        """Draw the stream up to position ``end``, whole chunks at a time.

        Served rolls are dropped from the buffer first.
        """
        served = self.cursor - self._base
        if served:
            del self._rolls[:served]
            self._base = self.cursor
        count = -(-(end - self._drawn) // ROLL_CHUNK) * ROLL_CHUNK
        if count > 0:
            # ``rng.random()`` called ``count`` times, in a C loop.
            self._rolls.extend(starmap(self.rng.random, repeat((), count)))
            self._drawn += count

    def roll(self) -> float:
        """Serve the stream's next roll."""
        if self.cursor >= self._drawn:
            self._draw(self.cursor + 1)
        value = self._rolls[self.cursor - self._base]
        self.cursor += 1
        return value

    def skip(self, count: int) -> None:
        """Serve the next ``count`` rolls unread."""
        if self.cursor + count > self._drawn:
            self._draw(self.cursor + count)
        self.cursor += count

    def quiet_requests(self, draws: tuple[float, ...], limit: int) -> int:
        """Return how many of the next ``limit`` requests no roll faults.

        Each request takes one roll per threshold in ``draws``, in order,
        and is faulted by the first roll below its threshold.  So the
        answer is ``n`` when the first ``n`` requests take ``len(draws)``
        rolls each and fault on none, and request ``n + 1`` faults (or
        ``limit`` when none does).  Rolls are read ahead, not served.  The
        stretch found quiet is remembered, so asking again from a later
        cursor at the same request boundary reads no roll twice.
        """
        per = len(draws)
        if not per:
            return limit
        start = self.cursor
        end = start + per * limit
        position = start
        known, since, until = self._quiet
        if known == draws and since <= start <= until and (start - since) % per == 0:
            position = until
        low = max(draws)
        while position < end:
            if position >= self._drawn:
                self._draw(position + ROLL_CHUNK)
            rolls, base = self._rolls, self._base
            stop = self._drawn if self._drawn < end else end
            for index in range(position - base, stop - base):
                value = rolls[index]
                if value < low and value < draws[(base + index - start) % per]:
                    self._quiet = (draws, start, base + index)
                    return (base + index - start) // per
            position = stop
        self._quiet = (draws, start, end)
        return limit


class FaultPlan:
    """A fault spec compiled against a domain population and a window.

    Compilation walks the domains in sorted order drawing from one
    dedicated stream seeded by ``spec.seed``, then hands each afflicted
    domain its own per-request stream — see the package docstring for the
    determinism contract.
    """

    def __init__(
        self,
        spec: FaultSpec,
        schedules: dict[str, DomainFaultSchedule],
    ) -> None:
        self.spec = spec
        self.schedules = schedules

    @property
    def inert(self) -> bool:
        """Return ``True`` when this plan can never inject a fault."""
        return self.spec.inert or not self.schedules

    @classmethod
    def compile(
        cls,
        spec: FaultSpec,
        domains: Iterable[str],
        start: float,
        horizon_seconds: float,
    ) -> "FaultPlan":
        """Compile ``spec`` for ``domains`` over ``[start, start + horizon)``."""
        if horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")
        if spec.inert:
            return cls(spec, {})
        rng = random.Random(spec.seed)
        schedules: dict[str, DomainFaultSchedule] = {}
        per_request = spec.timeout_rate or spec.malformed_rate or spec.truncate_rate
        for domain in sorted(set(domains)):
            schedule = DomainFaultSchedule(
                domain=domain,
                rng=random.Random(f"{spec.seed}:{domain}"),
            )
            afflicted = False
            if spec.transient_share and rng.random() < spec.transient_share:
                schedule.transient_windows = cls._windows(
                    rng,
                    spec.transient_windows,
                    spec.transient_window_seconds,
                    start,
                    horizon_seconds,
                )
                afflicted = True
            if spec.rate_limit_share and rng.random() < spec.rate_limit_share:
                schedule.rate_limit_windows = cls._windows(
                    rng,
                    spec.rate_limit_windows,
                    spec.rate_limit_window_seconds,
                    start,
                    horizon_seconds,
                )
                afflicted = True
            if spec.flap_share and rng.random() < spec.flap_share:
                period = spec.flap_period_seconds
                schedule.flap = (
                    rng.random() * period,
                    period,
                    period * spec.flap_down_share,
                )
                afflicted = True
            # Per-request faults hit every domain; scheduled ones only the
            # drawn subset.  Keep the schedule when either applies.
            if afflicted or per_request:
                schedules[domain] = schedule
        return cls(spec, schedules)

    @staticmethod
    def _windows(
        rng: random.Random,
        count: int,
        length: float,
        start: float,
        horizon: float,
    ) -> list[tuple[float, float]]:
        """Place ``count`` non-overlapping-ish windows inside the horizon."""
        length = min(length, horizon)
        windows = []
        for _ in range(count):
            offset = rng.random() * max(horizon - length, 0.0)
            windows.append((start + offset, start + offset + length))
        windows.sort()
        # Merge overlaps so window membership tests are a single bisect.
        merged: list[tuple[float, float]] = []
        for lo, hi in windows:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return merged

    def schedule_for(self, domain: str) -> DomainFaultSchedule | None:
        """Return the schedule of ``domain`` (``None`` = never faulted)."""
        return self.schedules.get(domain)

    def wrap(self, server):
        """Wrap ``server`` behind a :class:`FaultInjector` — unless inert.

        The zero-fault plan returns the server itself, which is the
        strongest possible inertness statement: the crawl runs on the
        exact transport object PR 4's engine used.
        """
        if self.inert:
            return server
        from repro.faults.injector import FaultInjector

        return FaultInjector(server, self)


def compile_for_campaign(
    spec: FaultSpec,
    registry,
    duration_days: float,
) -> FaultPlan:
    """Compile ``spec`` against every domain of ``registry`` for a crawl.

    The window starts at the registry clock's *current* time — campaigns
    compile their plan at construction, immediately before crawling.
    """
    return FaultPlan.compile(
        spec,
        registry.domains,
        start=registry.clock.now(),
        horizon_seconds=duration_days * 24 * 3600.0,
    )
