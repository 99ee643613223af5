"""Per-instance crawling primitives.

:class:`InstanceCrawler` snapshots instance metadata (the paper does this
every four hours); :class:`TimelineCrawler` pages through the public
Timeline API to collect posts.  Both work purely through
:class:`~repro.api.client.APIClient` and record failures rather than raising,
because the campaign must keep going when individual instances are down.

Both crawlers also expose batched entry points — :meth:`InstanceCrawler.snapshot_many`
and :meth:`TimelineCrawler.collect_many` — that route through the API
layer's batch engine (:meth:`~repro.api.client.APIClient.metadata_many` /
:meth:`~repro.api.client.APIClient.stream_timeline`).  Without retries the
batched paths produce bit-identical snapshots, collections, failures and
request accounting; they only eliminate per-request transport overhead and
reuse parsed metadata across snapshot rounds (validated by payload
identity, so a changed payload is always re-parsed).  A single snapshot and
a batched one turn their metadata response into a snapshot, and send its
nodeinfo and peers follow-ups, through the same
:meth:`InstanceCrawler.snapshot_from`.

:attr:`InstanceCrawler.failures` holds every failure recorded one at a
time; the campaign wraps it, with the refusals it answers without a
request, in a :class:`~repro.crawler.snapshots.FailureLog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.api.client import APIClient, APIError
from repro.api.http import HTTPResponse
from repro.crawler.snapshots import CrawlFailure, InstanceSnapshot, TimelineCollection

#: The three endpoints the paper's crawler fetches per instance.
INSTANCE_PATH = "/api/v1/instance"
PEERS_PATH = "/api/v1/instance/peers"
NODEINFO_PATH = "/nodeinfo/2.0"


def _parse_software(payload: dict[str, Any]) -> str:
    """Infer the server software from an ``/api/v1/instance`` payload."""
    if "pleroma" in payload:
        return "pleroma"
    version = str(payload.get("version", "")).lower()
    for candidate in ("pleroma", "mastodon", "misskey", "peertube", "hubzilla", "writefreely"):
        if candidate in version:
            return candidate
    return "unknown"


def _parse_pleroma_version(payload: dict[str, Any]) -> str:
    """Extract the Pleroma version from the compatibility version string.

    Non-Pleroma software has no ``"Pleroma "`` marker in its version string;
    returning the raw compatibility string there would mislabel e.g. a
    Mastodon ``"3.3.0"`` as a Pleroma version, so it yields ``""`` instead.
    """
    version = str(payload.get("version", ""))
    marker = "Pleroma "
    if marker in version:
        return version.split(marker, 1)[1].rstrip(") ")
    return ""


def failure_from_response(
    domain: str, now: float, response: HTTPResponse, prefix: str = ""
) -> CrawlFailure:
    """Build a :class:`CrawlFailure` from a failed response.

    Every field but the domain and timestamp comes from the response's
    stored classification: its error message, and the retrying client's
    attribution annotations — attempts spent (``X-Attempts``) and
    injected-fault kind (``X-Fault``) — so resilience bookkeeping survives
    into the crawl record.
    """
    return CrawlFailure(
        domain=domain,
        timestamp=now,
        status_code=int(response.status),
        reason=prefix + response.message,
        attempts=response.attempts,
        fault_kind=response.fault_kind,
    )


@dataclass
class SnapshotTemplate:
    """Metadata parsed once per distinct payload, reused across rounds.

    ``payload`` is the exact object the parse ran on: the server's
    metadata round returns the *same* cached dict while the instance's
    metadata fingerprint is unchanged, so an ``is`` check is a sound (and
    free) validity test — any rebuilt payload, such as the fresh one each
    single request gets, triggers a fresh parse.

    ``proto`` is a prototype ``__dict__`` for :class:`InstanceSnapshot`;
    each round copies it and stamps the timestamp, which skips re-parsing
    the payload and the dataclass ``__init__`` walk.  The MRF dicts inside
    it are shared across that domain's snapshots (like the delivery
    engine shares rewritten post copies across receivers) — snapshot
    consumers treat them as read-only, and the dataset builder copies
    what it stores.
    """

    payload: dict[str, Any]
    proto: dict[str, Any]
    needs_nodeinfo: bool

    def snapshot(self, domain: str, now: float) -> InstanceSnapshot:
        """Return this metadata's snapshot of ``domain`` at ``now``, without peers."""
        fields = self.proto.copy()
        # The snapshot carries the domain as requested (not the payload's
        # self-reported uri), exactly like the per-request path.
        fields["domain"] = domain
        fields["timestamp"] = now
        snapshot = object.__new__(InstanceSnapshot)
        snapshot.__dict__ = fields
        return snapshot


class InstanceCrawler:
    """Snapshot instance metadata and peer lists through the public API."""

    def __init__(self, client: APIClient) -> None:
        self.client = client
        self.failures: list[CrawlFailure] = []
        #: The parsed metadata of each domain's latest successful response.
        self.templates: dict[str, SnapshotTemplate] = {}

    def snapshot(self, domain: str, now: float, fetch_peers: bool = True) -> InstanceSnapshot | None:
        """Snapshot one instance; return ``None`` (and record) on failure."""
        response = self.client.get(domain, INSTANCE_PATH)
        return self.snapshot_from(domain, response, now, fetch_peers)

    # ------------------------------------------------------------------ #
    # Batched snapshots
    # ------------------------------------------------------------------ #
    def snapshot_many(
        self, domains: Iterable[str], now: float, fetch_peers: bool = True
    ) -> dict[str, InstanceSnapshot]:
        """Snapshot many instances through the API layer's batch engine.

        The whole round's metadata requests are served in one batch call;
        each snapshot's follow-ups are sent as :meth:`snapshot` sends them.
        Without retries, snapshots, recorded failures (contents *and*
        order) and request accounting are identical to calling
        :meth:`snapshot` once per domain in the given order.  A retrying
        client retries the metadata requests in rounds, each advancing the
        clock once, where sequential calls would wait per request.
        """
        domains = list(domains)
        responses = self.client.metadata_many(domains)
        snapshots: dict[str, InstanceSnapshot] = {}
        for domain, response in zip(domains, responses):
            snapshot = self.snapshot_from(domain, response, now, fetch_peers)
            if snapshot is not None:
                snapshots[domain] = snapshot
        return snapshots

    def snapshot_from(
        self, domain: str, response: HTTPResponse, now: float, fetch_peers: bool
    ) -> InstanceSnapshot | None:
        """Turn one metadata response into a snapshot, or record its failure.

        A successful response's payload is parsed once per distinct payload
        object.  Software the payload does not name is resolved through
        nodeinfo, which is how the paper's crawler classified Mastodon-style
        servers; with ``fetch_peers`` the peer list is requested too.  A
        failed follow-up is recorded (reason-prefixed ``nodeinfo:`` or
        ``peers:``) and the snapshot is kept.
        """
        failures = self.failures
        if not response.ok:
            failures.append(failure_from_response(domain, now, response))
            return None
        payload = response.body
        template = self.templates.get(domain)
        if template is None or template.payload is not payload:
            template = self.templates[domain] = self._parse_template(payload)
        snapshot = template.snapshot(domain, now)
        if template.needs_nodeinfo:
            nodeinfo = self.client.get(domain, NODEINFO_PATH)
            if nodeinfo.ok:
                software = nodeinfo.body.get("software", {}).get("name", "unknown")
                snapshot.software = str(software) or "unknown"
            else:
                failures.append(
                    failure_from_response(domain, now, nodeinfo, prefix="nodeinfo: ")
                )
        if fetch_peers:
            peers = self.client.get(domain, PEERS_PATH)
            if peers.ok:
                snapshot.peers = tuple(peers.body)
            else:
                failures.append(
                    failure_from_response(domain, now, peers, prefix="peers: ")
                )
        return snapshot

    @staticmethod
    def _parse_template(payload: dict[str, Any]) -> SnapshotTemplate:
        stats = payload.get("stats", {})
        software = _parse_software(payload)
        federation = (
            payload.get("pleroma", {}).get("metadata", {}).get("federation", {})
        )
        exposed = bool(federation) and bool(federation.get("exposable", False))
        proto = {
            "domain": str(payload.get("uri", "")),
            "timestamp": 0.0,
            "software": software,
            "version": _parse_pleroma_version(payload),
            "user_count": int(stats.get("user_count", 0)),
            "status_count": int(stats.get("status_count", 0)),
            "peer_count": int(stats.get("domain_count", 0)),
            "registrations_open": bool(payload.get("registrations", False)),
            "policies_exposed": exposed,
            "enabled_policies": (
                tuple(federation.get("mrf_policies", ())) if exposed else ()
            ),
            "mrf_simple": (
                {
                    action: list(targets)
                    for action, targets in federation.get("mrf_simple", {}).items()
                }
                if exposed
                else {}
            ),
            "mrf_object_age": (
                dict(federation.get("mrf_object_age", {})) if exposed else {}
            ),
            "peers": (),
        }
        return SnapshotTemplate(
            payload=payload,
            proto=proto,
            needs_nodeinfo=software == "unknown",
        )


class TimelineCrawler:
    """Collect public posts by paging through the Timeline API."""

    def __init__(self, client: APIClient, page_size: int = 40) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.client = client
        self.page_size = page_size

    def collect(
        self,
        domain: str,
        now: float,
        local_only: bool = True,
        max_posts: int | None = None,
    ) -> TimelineCollection:
        """Collect up to ``max_posts`` public posts from ``domain``."""
        collection = TimelineCollection(domain=domain, timestamp=now)
        max_id: str | None = None
        while True:
            try:
                page = self.client.public_timeline(
                    domain, local=local_only, limit=self.page_size, max_id=max_id
                )
            except APIError as error:
                collection.reachable = False
                collection.status_code = int(error.status)
                collection.attempts = error.attempts
                collection.fault_kind = error.fault_kind
                break
            collection.pages_fetched += 1
            if not page:
                break
            collection.posts.extend(page)
            max_id = page[-1]["id"]
            if max_posts is not None and len(collection.posts) >= max_posts:
                collection.posts = collection.posts[:max_posts]
                break
            if len(page) < self.page_size:
                break
        return collection

    # ------------------------------------------------------------------ #
    # Batched collection
    # ------------------------------------------------------------------ #
    def collect_batched(
        self,
        domain: str,
        now: float,
        local_only: bool = True,
        max_posts: int | None = None,
    ) -> TimelineCollection:
        """Collect one instance's timeline as a single server-side stream.

        The resulting collection — posts, page count, reachability and
        status code — and the per-page request accounting are identical to
        :meth:`collect`.
        """
        stream = self.client.stream_timeline(
            domain,
            local=local_only,
            page_size=self.page_size,
            max_posts=max_posts,
        )
        collection = TimelineCollection(domain=domain, timestamp=now)
        collection.attempts = stream.attempts
        collection.fault_kind = stream.fault_kind
        if not stream.ok:
            collection.reachable = False
            collection.status_code = int(stream.status)
            return collection
        collection.pages_fetched = stream.pages
        collection.posts = stream.statuses
        return collection

    def collect_many(
        self,
        domains: Iterable[str],
        now: float,
        local_only: bool = True,
        max_posts: int | None = None,
    ) -> list[TimelineCollection]:
        """Collect many instances' timelines, one stream each."""
        return [
            self.collect_batched(domain, now, local_only=local_only, max_posts=max_posts)
            for domain in domains
        ]
