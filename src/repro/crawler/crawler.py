"""Per-instance crawling primitives.

:class:`InstanceCrawler` snapshots instance metadata (the paper does this
every four hours); :class:`TimelineCrawler` pages through the public
Timeline API to collect posts.  Both work purely through
:class:`~repro.api.client.APIClient` and record failures rather than raising,
because the campaign must keep going when individual instances are down.

Both crawlers also expose batched entry points — :meth:`InstanceCrawler.snapshot_many`
and :meth:`TimelineCrawler.collect_many` — that route through the API
layer's batch engine (:meth:`~repro.api.client.APIClient.get_many` /
:meth:`~repro.api.client.APIClient.stream_timeline`).  Without retries the
batched paths produce bit-identical snapshots, collections, failures and
request accounting; they only eliminate per-request transport overhead and
reuse parsed metadata across snapshot rounds (validated by payload
identity, so a changed payload is always re-parsed).
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


def _failure_from_response(
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


def _failure_from_error(
    domain: str, now: float, error: APIError, prefix: str = ""
) -> CrawlFailure:
    """Build a :class:`CrawlFailure` from an :class:`APIError` (same fields)."""
    return CrawlFailure(
        domain=domain,
        timestamp=now,
        status_code=int(error.status),
        reason=f"{prefix}{error.message}",
        attempts=error.attempts,
        fault_kind=error.fault_kind,
    )


@dataclass
class SnapshotTemplate:
    """Metadata parsed once per distinct payload, reused across rounds.

    ``payload`` is the exact object the parse ran on: the batch server
    returns the *same* cached dict while the instance's metadata
    fingerprint is unchanged, so an ``is`` check is a sound (and free)
    validity test — any rebuilt payload triggers a fresh parse.

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
        try:
            payload = self.client.instance_metadata(domain)
        except APIError as error:
            self.failures.append(_failure_from_error(domain, now, error))
            return None

        stats = payload.get("stats", {})
        software = _parse_software(payload)
        if software == "unknown":
            # Mastodon-style instances expose their software name only
            # through nodeinfo, which is how the paper's crawler classified
            # non-Pleroma servers.
            software = self._software_from_nodeinfo(domain, now)
        snapshot = InstanceSnapshot(
            domain=domain,
            timestamp=now,
            software=software,
            version=_parse_pleroma_version(payload),
            user_count=int(stats.get("user_count", 0)),
            status_count=int(stats.get("status_count", 0)),
            peer_count=int(stats.get("domain_count", 0)),
            registrations_open=bool(payload.get("registrations", False)),
        )
        self._attach_mrf(snapshot, payload)
        if fetch_peers:
            snapshot.peers = self._fetch_peers(domain, now)
        return snapshot

    # ------------------------------------------------------------------ #
    # Batched snapshots
    # ------------------------------------------------------------------ #
    def snapshot_many(
        self, domains: Iterable[str], now: float, fetch_peers: bool = True
    ) -> dict[str, InstanceSnapshot]:
        """Snapshot many instances through the API layer's batch engine.

        The whole round's metadata requests are served in one batch call;
        the conditional follow-ups (nodeinfo for unclassifiable software,
        peers on the first round) ride in one fused group per snapshot.
        Without retries, snapshots, recorded failures (contents *and*
        order) and request accounting are identical to calling
        :meth:`snapshot` once per domain in the given order.  A retrying
        client retries the batch in rounds, each advancing the clock once,
        where sequential calls would wait per request.
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
        object; the nodeinfo and peers follow-ups it needs are sent as one
        group, and their failures are recorded after it.
        """
        if not response.ok:
            self.failures.append(_failure_from_response(domain, now, response))
            return None
        payload = response.body
        template = self.templates.get(domain)
        if template is None or template.payload is not payload:
            template = self.templates[domain] = self._parse_template(payload)

        nodeinfo_response: HTTPResponse | None = None
        peers_response: HTTPResponse | None = None
        if template.needs_nodeinfo or fetch_peers:
            follow_paths = []
            if template.needs_nodeinfo:
                follow_paths.append(NODEINFO_PATH)
            if fetch_peers:
                follow_paths.append(PEERS_PATH)
            follow = self.client.get_many(domain, follow_paths)
            if template.needs_nodeinfo:
                nodeinfo_response = follow[0]
            if fetch_peers:
                peers_response = follow[-1]

        snapshot = template.snapshot(domain, now)
        if nodeinfo_response is not None:
            snapshot.software = self._software_from_nodeinfo_response(
                domain, now, nodeinfo_response
            )
        if peers_response is not None:
            if peers_response.ok:
                snapshot.peers = tuple(peers_response.body)
            else:
                self.failures.append(
                    _failure_from_response(
                        domain, now, peers_response, prefix="peers: "
                    )
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

    # ------------------------------------------------------------------ #
    # Shared parsing helpers
    # ------------------------------------------------------------------ #
    def _software_from_nodeinfo(self, domain: str, now: float) -> str:
        """Resolve the server software through nodeinfo.

        A failed nodeinfo probe is recorded as a :class:`CrawlFailure`
        (reason-prefixed ``nodeinfo:``) — a real crawler logs the probe it
        could not complete rather than silently classifying the instance as
        unknown software.
        """
        try:
            payload = self.client.nodeinfo(domain)
        except APIError as error:
            self.failures.append(
                _failure_from_error(domain, now, error, prefix="nodeinfo: ")
            )
            return "unknown"
        return str(payload.get("software", {}).get("name", "unknown")) or "unknown"

    def _software_from_nodeinfo_response(
        self, domain: str, now: float, response: HTTPResponse
    ) -> str:
        """Batched twin of :meth:`_software_from_nodeinfo`."""
        if not response.ok:
            self.failures.append(
                _failure_from_response(domain, now, response, prefix="nodeinfo: ")
            )
            return "unknown"
        payload = response.body
        return str(payload.get("software", {}).get("name", "unknown")) or "unknown"

    def _attach_mrf(self, snapshot: InstanceSnapshot, payload: dict[str, Any]) -> None:
        """Populate the snapshot's MRF fields from the metadata payload."""
        federation = (
            payload.get("pleroma", {}).get("metadata", {}).get("federation", {})
        )
        if not federation or not federation.get("exposable", False):
            snapshot.policies_exposed = False
            return
        snapshot.policies_exposed = True
        snapshot.enabled_policies = tuple(federation.get("mrf_policies", ()))
        snapshot.mrf_simple = {
            action: list(targets)
            for action, targets in federation.get("mrf_simple", {}).items()
        }
        snapshot.mrf_object_age = dict(federation.get("mrf_object_age", {}))

    def _fetch_peers(self, domain: str, now: float) -> tuple[str, ...]:
        """Fetch the peer list, tolerating failures."""
        try:
            return tuple(self.client.instance_peers(domain))
        except APIError as error:
            self.failures.append(
                _failure_from_error(domain, now, error, prefix="peers: ")
            )
            return ()


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
