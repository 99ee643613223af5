"""ActivityPub-like federation substrate.

Pleroma (and Mastodon) instances interoperate through the ActivityPub
protocol: activities such as ``Create`` (a new post), ``Follow``, ``Delete``
and ``Flag`` (a report) are delivered from the origin instance to the
inboxes of interested remote instances.  Incoming activities pass through the
receiving instance's MRF pipeline (see :mod:`repro.mrf`), which is exactly
where the moderation policies studied by the paper take effect.
"""

from repro.activitypub.activities import (
    Activity,
    ActivityType,
    create_activity,
)
from repro.activitypub.actors import Actor
from repro.activitypub.delivery import (
    DeliveryReport,
    FederationDelivery,
    FederationStats,
)

__all__ = [
    "Activity",
    "ActivityType",
    "create_activity",
    "Actor",
    "DeliveryReport",
    "FederationDelivery",
    "FederationStats",
]
