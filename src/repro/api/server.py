"""The API server: serves every instance of a registry over the in-process
transport.

One :class:`FediverseAPIServer` fronts an entire
:class:`~repro.fediverse.registry.FediverseRegistry`.  A request names the
instance domain it targets; the server first applies that instance's
availability (so 404/403/502/503/410 instances fail exactly as they did for
the paper's crawler) and then routes the request to the endpoint handlers.

Besides the per-request :meth:`FediverseAPIServer.handle` path, the server
exposes the two batch entry points of the crawl engine:
:meth:`FediverseAPIServer.metadata_round` serves a snapshot round's
metadata requests in one call (from a fingerprint-validated payload cache),
and :meth:`FediverseAPIServer.stream_timeline` serves an entire paged
timeline collection in one call while keeping request accounting identical
to a client paging through it.

Cached responses (metadata payloads, availability errors) are shared by
every caller and every round, so they are frozen
(:func:`~repro.api.http.freeze_json`): no caller can corrupt what the next
one sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.api.http import (
    USER_AGENT_HEADER,
    HTTPRequest,
    HTTPResponse,
    HTTPStatus,
    freeze_json,
)
from repro.api.router import Router
from repro.fediverse.errors import UnknownInstanceError
from repro.fediverse.instance import Instance
from repro.fediverse.post import Post, mentions_in
from repro.fediverse.registry import FediverseRegistry

#: Default page size of the public timeline endpoint (Mastodon's default is
#: 20, with a maximum of 40; Pleroma accepts larger pages).
DEFAULT_TIMELINE_LIMIT = 20
MAX_TIMELINE_LIMIT = 40

#: The error message of a user-agent-blocked 403 — distinct from every
#: availability reason, so crawl failures attribute it unambiguously.
UA_BLOCKED_REASON = "user agent blocked"


def agent_blocked(instance: Instance, user_agent: str) -> bool:
    """Return ``True`` when ``instance`` refuses this ``user_agent``.

    Epicyon-style matching: a case-insensitive substring test of each
    blocked token against the presented agent string.  An empty agent
    string is never blocked (the simulation's internal callers — delivery,
    tests poking the server directly — present no User-Agent).
    """
    blocked = instance.blocked_user_agents
    if not blocked or not user_agent:
        return False
    agent = user_agent.lower()
    return any(token.lower() in agent for token in blocked)


def serialise_status(post: Post) -> dict[str, Any]:
    """Serialise a post for the timeline API, bypassing the seed's URI path.

    Produces exactly :meth:`~repro.fediverse.post.Post.to_dict` (pinned by a
    test), but builds the object URI with a plain f-string: ``post.domain``
    is normalised at construction, so the per-post ``normalise_domain`` walk
    inside ``make_post_uri`` is provably redundant on this path.
    """
    return {
        "id": post.post_id,
        "uri": f"https://{post.domain}/objects/{post.post_id}",
        "account": post.author,
        "content": post.content,
        "created_at": post.created_at,
        "visibility": post.visibility.value,
        "sensitive": post.sensitive,
        "spoiler_text": post.subject or "",
        "in_reply_to_id": post.in_reply_to,
        "language": post.language,
        "tags": list(post.tags),
        "media_attachments": [
            {
                "url": attachment.url,
                "type": attachment.media_type,
                "description": attachment.description,
            }
            for attachment in post.attachments
        ],
        "mentions": mentions_in(post.content),
        "bot": post.is_bot,
    }


@dataclass(frozen=True)
class TimelineStream:
    """A whole paged timeline collection, served in one batch call.

    ``pages`` is the number of page requests a client paging with the given
    page size would have made — the stream keeps request accounting
    identical to the per-page path, it only skips the per-page transport.

    ``retry_after``/``fault_kind``/``attempts`` are populated only by the
    fault-injection transport and the retrying client; the plain server
    always leaves them at their defaults.
    """

    status: HTTPStatus
    reason: str
    statuses: list[dict[str, Any]]
    pages: int
    retry_after: float | None = None
    fault_kind: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Return ``True`` when the timeline was served."""
        return 200 <= int(self.status) < 300


def count_timeline_pages(
    total: int, page_size: int, effective: int, max_posts: int | None
) -> tuple[int, int]:
    """Replay the client paging loop arithmetically.

    Returns ``(collected, pages)`` for a timeline of ``total`` posts served
    with a per-page clamp of ``effective`` posts to a client requesting
    ``page_size``-sized pages: every iteration is one page request, stopping
    on an empty page, a short page (relative to the *client's* page size) or
    the ``max_posts`` cap.  Shared by :meth:`FediverseAPIServer.stream_timeline`
    and the fault injector's truncated-stream twin.
    """
    collected = 0
    pages = 1
    while True:
        page_len = min(effective, total - collected)
        if page_len == 0:
            break
        collected += page_len
        if max_posts is not None and collected >= max_posts:
            collected = max_posts
            break
        if page_len < page_size:
            break
        pages += 1
    return collected, pages


class FediverseAPIServer:
    """Serve the Mastodon/Pleroma public API for every registered instance."""

    def __init__(self, registry: FediverseRegistry) -> None:
        self.registry = registry
        self.router = Router()
        self.requests_served = 0
        #: Metadata responses served by :meth:`metadata_round`, keyed by
        #: domain and validated against :meth:`Instance.metadata_fingerprint`
        #: (the single-request path stays stateless and seed-faithful).  Cached
        #: payloads are frozen, since every caller shares them.
        self._metadata_cache: dict[str, tuple[tuple, HTTPResponse]] = {}
        #: Availability-error responses, keyed by (status, reason) — the
        #: full availability fingerprint at the serving instant, since both
        #: fields are re-derived from :meth:`InstanceAvailability.status_at`
        #: on every call.  An instance flipping down mid-campaign (churn)
        #: therefore keys a *different* entry; nothing here can go stale.
        #: The responses are frozen and content-equal, so they are shared.
        self._error_cache: dict[tuple[int, str], HTTPResponse] = {}
        self._register_routes()

    # ------------------------------------------------------------------ #
    # Transport entry point
    # ------------------------------------------------------------------ #
    def handle(self, request: HTTPRequest) -> HTTPResponse:
        """Handle one request addressed to one instance."""
        self.requests_served += 1
        try:
            instance = self.registry.get(request.domain)
        except UnknownInstanceError:
            return HTTPResponse.error(HTTPStatus.NOT_FOUND, "unknown instance")

        now = self.registry.clock.now()
        if not instance.availability.ok_at(now):
            status = HTTPStatus(instance.availability.status_at(now))
            return HTTPResponse.error(status, instance.availability.reason_at(now))
        agent = request.headers.get(USER_AGENT_HEADER, "")
        if agent_blocked(instance, agent):
            return HTTPResponse.error(HTTPStatus.FORBIDDEN, UA_BLOCKED_REASON)
        return self.router.dispatch(request)

    def get(
        self, domain: str, url: str, *, user_agent: str = ""
    ) -> HTTPResponse:
        """Convenience wrapper: handle a GET described by a path-with-query."""
        headers = {USER_AGENT_HEADER: user_agent} if user_agent else None
        return self.handle(HTTPRequest.from_url(domain, url, headers))

    # ------------------------------------------------------------------ #
    # Batch entry points (the crawl engine)
    # ------------------------------------------------------------------ #
    def metadata_payload(self, instance: Instance) -> Any:
        """Return the instance-metadata payload, cached across rounds.

        The cache is validated against
        :meth:`~repro.fediverse.instance.Instance.metadata_fingerprint`, so
        any mutation reachable through the regular mutators (users, posts,
        peers, descriptive fields, version-bumping MRF configuration
        changes) rebuilds the payload.  While the fingerprint is unchanged
        the *same* (frozen, read-only) payload object is returned, which is
        what lets the crawler validate its parsed-template cache with an
        ``is`` check.
        """
        return self._serve_metadata(instance).body

    def metadata_round(
        self, domains: Sequence[str], *, user_agent: str = ""
    ) -> list[HTTPResponse]:
        """Serve one snapshot round's metadata requests in a single call.

        Returns one response per domain, in order — exactly what the same
        sequence of :meth:`handle` calls would produce at this instant —
        with one availability evaluation per domain and cached payloads and
        error responses.  Domains must already be normalised (crawl rounds
        draw them from directory listings and instance records).
        """
        self.requests_served += len(domains)
        registry = self.registry
        now = registry.clock.now()
        get = registry.get_normalised
        serve = self._serve_metadata
        refusal = self.refusal
        responses = []
        append = responses.append
        for domain in domains:
            try:
                instance = get(domain)
            except UnknownInstanceError:
                append(self._availability_error(404, "unknown instance"))
                continue
            refused = refusal(instance, now, user_agent)
            append(serve(instance) if refused is None else refused)
        return responses

    def refusal(
        self, instance: Instance, now: float, user_agent: str
    ) -> HTTPResponse | None:
        """Return the error ``instance`` answers every request with at ``now``.

        That is its availability failure, else a block of ``user_agent``;
        ``None`` means it serves the request.  Both depend only on the
        instant and the agent string, so the crawl can tell a quiet
        domain-round's outcome without sending its request.
        """
        availability = instance.availability
        status = availability.status_at(now)
        if status != 200:
            return self._availability_error(status, availability.reason_at(now))
        if agent_blocked(instance, user_agent):
            return self._availability_error(403, UA_BLOCKED_REASON)
        return None

    def credit(self, count: int) -> None:
        """Count ``count`` requests the crawl answered without sending them."""
        self.requests_served += count

    def _availability_error(self, status: int, reason: str) -> HTTPResponse:
        """Return the shared frozen error response for one availability state.

        The ``(status, reason)`` key *is* the availability fingerprint at
        the serving instant — both values come from
        ``InstanceAvailability.status_at/reason_at(now)`` on every call —
        so a churned instance flipping from 200 to 503 mid-campaign simply
        selects a different entry; cached entries can never serve a stale
        availability.
        """
        key = (status, reason)
        response = self._error_cache.get(key)
        if response is None:
            response = HTTPResponse.error(HTTPStatus(status), reason)
            self._error_cache[key] = response
        return response

    def stream_timeline(
        self,
        domain: str,
        *,
        local: bool = False,
        page_size: int = DEFAULT_TIMELINE_LIMIT,
        max_posts: int | None = None,
        user_agent: str = "",
    ) -> TimelineStream:
        """Serve a whole paged timeline collection in one call.

        Replays the exact accounting of a client paging with ``page_size``
        through ``/api/v1/timelines/public``: ``pages`` page requests are
        counted (the server-side limit clamp applies per page, while the
        short-page stop condition uses the client's requested size), and
        the statuses are the concatenation of the pages that client would
        have received.  Serving them in one pass replaces the per-page
        ``ids.index(max_id)`` scan + slice — quadratic in timeline length —
        with a single walk.
        """
        self.requests_served += 1  # at least one page request is always made
        try:
            instance = self.registry.get(domain)
        except UnknownInstanceError:
            return TimelineStream(HTTPStatus.NOT_FOUND, "unknown instance", [], 1)
        availability = instance.availability
        now = self.registry.clock.now()
        if not availability.ok_at(now):
            status = HTTPStatus(availability.status_at(now))
            return TimelineStream(status, availability.reason_at(now), [], 1)
        if agent_blocked(instance, user_agent):
            return TimelineStream(HTTPStatus.FORBIDDEN, UA_BLOCKED_REASON, [], 1)
        if not instance.expose_public_timeline:
            return TimelineStream(
                HTTPStatus.FORBIDDEN,
                "public timeline requires authentication",
                [],
                1,
            )

        effective = max(1, min(page_size, MAX_TIMELINE_LIMIT))
        timeline = (
            instance.timelines.public
            if local
            else instance.timelines.whole_known_network
        )
        ids = timeline.latest(limit=0)  # the full timeline, newest first
        collected, pages = count_timeline_pages(
            len(ids), page_size, effective, max_posts
        )
        self.requests_served += pages - 1
        local_posts = instance.posts
        remote_posts = instance.remote_posts
        statuses = [
            serialise_status(
                local_posts[post_id]
                if post_id in local_posts
                else remote_posts[post_id]
            )
            for post_id in ids[:collected]
        ]
        return TimelineStream(HTTPStatus.OK, "", statuses, pages)

    # ------------------------------------------------------------------ #
    # Endpoint handlers
    # ------------------------------------------------------------------ #
    def _register_routes(self) -> None:
        self.router.add("/api/v1/instance", self._instance_endpoint)
        self.router.add("/api/v1/instance/peers", self._peers_endpoint)
        self.router.add("/api/v1/timelines/public", self._public_timeline_endpoint)
        self.router.add("/nodeinfo/2.0", self._nodeinfo_endpoint)
        self.router.add("/api/v1/accounts/{username}", self._account_endpoint)
        self.router.add("/api/v1/accounts/{username}/statuses", self._account_statuses_endpoint)

    def _serve_metadata(self, instance: Instance) -> HTTPResponse:
        # The cached payload is frozen: it is shared by every caller of
        # metadata_round, and freezing keeps one caller's mutation from
        # corrupting what the others (and later rounds) see.
        fingerprint = instance.metadata_fingerprint()
        cached = self._metadata_cache.get(instance.domain)
        if cached is not None and cached[0] == fingerprint:
            return cached[1]
        response = HTTPResponse.json_ok(freeze_json(instance.to_api_dict()))
        self._metadata_cache[instance.domain] = (fingerprint, response)
        return response

    def _instance_for(self, request: HTTPRequest) -> Instance:
        return self.registry.get(request.domain)

    def _instance_endpoint(self, request: HTTPRequest) -> HTTPResponse:
        """``/api/v1/instance``: metadata including the MRF configuration."""
        instance = self._instance_for(request)
        return HTTPResponse.json_ok(instance.to_api_dict())

    def _peers_endpoint(self, request: HTTPRequest) -> HTTPResponse:
        """``/api/v1/instance/peers``: every domain ever federated with."""
        return HTTPResponse.json_ok(sorted(self._instance_for(request).peers))

    def _public_timeline_endpoint(self, request: HTTPRequest) -> HTTPResponse:
        """``/api/v1/timelines/public``: the public (or whole-known-network) timeline."""
        instance = self._instance_for(request)
        if not instance.expose_public_timeline:
            return HTTPResponse.error(
                HTTPStatus.FORBIDDEN, "public timeline requires authentication"
            )
        local_only = request.bool_param("local", default=False)
        # A malformed ``limit`` raises ValueError, which the router boundary
        # converts to a 400 response.
        limit = request.int_param("limit", DEFAULT_TIMELINE_LIMIT)
        limit = max(1, min(limit, MAX_TIMELINE_LIMIT))
        max_id = request.param("max_id")

        timeline = (
            instance.timelines.public if local_only else instance.timelines.whole_known_network
        )
        post_ids = timeline.latest(limit=limit, max_id=max_id)
        statuses: list[dict[str, Any]] = []
        for post_id in post_ids:
            post = instance.get_post(post_id)
            statuses.append(post.to_dict())
        return HTTPResponse.json_ok(statuses)

    def _nodeinfo_endpoint(self, request: HTTPRequest) -> HTTPResponse:
        """``/nodeinfo/2.0``: software name/version and usage counts."""
        instance = self._instance_for(request)
        if not instance.expose_nodeinfo:
            return HTTPResponse.error(HTTPStatus.NOT_FOUND, "nodeinfo not published")
        return HTTPResponse.json_ok(
            {
                "version": "2.0",
                "software": {
                    "name": instance.software.value,
                    "version": instance.version,
                },
                "protocols": ["activitypub"],
                "openRegistrations": instance.registrations_open,
                "usage": {
                    "users": {"total": instance.user_count},
                    "localPosts": instance.local_post_count,
                },
                "metadata": {
                    "federation": instance.describe_mrf() if instance.is_pleroma else {},
                },
            }
        )

    def _account_endpoint(self, request: HTTPRequest, username: str) -> HTTPResponse:
        """``/api/v1/accounts/{username}``: a single local account."""
        instance = self._instance_for(request)
        if not instance.has_user(username):
            return HTTPResponse.error(HTTPStatus.NOT_FOUND, f"unknown account: {username}")
        return HTTPResponse.json_ok(instance.get_user(username).to_dict())

    def _account_statuses_endpoint(self, request: HTTPRequest, username: str) -> HTTPResponse:
        """``/api/v1/accounts/{username}/statuses``: a user's local posts."""
        instance = self._instance_for(request)
        if not instance.has_user(username):
            return HTTPResponse.error(HTTPStatus.NOT_FOUND, f"unknown account: {username}")
        user = instance.get_user(username)
        limit = request.int_param("limit", DEFAULT_TIMELINE_LIMIT)
        statuses = []
        for post_id in reversed(user.post_ids[-max(1, limit):]):
            statuses.append(instance.get_post(post_id).to_dict())
        return HTTPResponse.json_ok(statuses)

