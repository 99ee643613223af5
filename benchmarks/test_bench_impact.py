"""E-IMPACT benchmark: regenerate the Section 4.1 impact scalars.

This doubles as an end-to-end correctness check: the impact numbers come
from executed policy configurations, not tabulated constants.
"""

from __future__ import annotations

from repro.experiments import impact


def test_bench_impact(benchmark, pipeline):
    """Regenerate the Section 4.1 scalars and check the headline shares."""
    result = benchmark(impact.run, pipeline)
    assert result.measured("user_impact_share") > 0.9
    assert result.measured("user_reject_share") > 0.75
    assert result.measured("reject_event_share") > 0.5
