"""Tests for the simulation clock and software-kind helpers."""

from __future__ import annotations

import pytest

from repro.fediverse.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, SimulationClock
from repro.fediverse.software import (
    SoftwareKind,
    parse_version,
    version_has_default_policies,
)


class TestSimulationClock:
    def test_starts_at_zero(self):
        assert SimulationClock().now() == 0.0

    def test_custom_start(self):
        assert SimulationClock(start=50.0).now() == 50.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimulationClock(start=-1.0)

    def test_advance(self):
        clock = SimulationClock()
        assert clock.advance(10.0) == 10.0
        assert clock.now() == 10.0

    def test_advance_backwards_rejected(self):
        clock = SimulationClock()
        with pytest.raises(ValueError):
            clock.advance(-5.0)

    def test_advance_to(self):
        clock = SimulationClock()
        clock.advance_to(100.0)
        assert clock.now() == 100.0
        with pytest.raises(ValueError):
            clock.advance_to(50.0)

    def test_constants(self):
        assert SECONDS_PER_DAY == 24 * SECONDS_PER_HOUR


class TestSoftwareKind:
    def test_pleroma_flags(self):
        assert SoftwareKind.PLEROMA.is_pleroma

    def test_from_string_known(self):
        assert SoftwareKind.from_string("Mastodon") is SoftwareKind.MASTODON

    def test_from_string_unknown_defaults_to_other(self):
        assert SoftwareKind.from_string("gnu-social") is SoftwareKind.OTHER


class TestVersionParsing:
    def test_parse_plain_version(self):
        assert parse_version("2.2.2") == (2, 2, 2)

    def test_parse_version_with_suffix(self):
        assert parse_version("2.2.1-develop") == (2, 2, 1)

    def test_parse_garbage(self):
        assert parse_version("weird") == (0,)

    def test_default_policy_cutoff(self):
        assert version_has_default_policies("2.1.0")
        assert version_has_default_policies("2.3.0")
        assert not version_has_default_policies("2.0.7")
