"""Build an analysis-ready dataset from crawl output."""

from __future__ import annotations

import re
from typing import Iterable
from urllib.parse import urlsplit

from repro.crawler.snapshots import CrawlFailure, InstanceSnapshot, TimelineCollection
from repro.fediverse.identifiers import normalise_domain
from repro.datasets.schema import (
    InstanceRecord,
    PolicySettingRecord,
    PostRecord,
    RejectEdge,
    UserRecord,
)
from repro.datasets.store import Dataset


#: A domain made only of these characters is the whole netloc ``urlsplit``
#: finds in ``https://<domain>/...``: none of them ends, strips or fails
#: the parse.
_PLAIN_DOMAIN = re.compile(r"[a-z0-9._-]+")


def _post_origin_domain(post: dict) -> str:
    """Derive a post's origin domain from its object URI (or author handle)."""
    uri = post.get("uri", "")
    if uri:
        host = urlsplit(uri).netloc
        if host:
            return host
    account = post.get("account", "")
    if "@" in account:
        return account.rsplit("@", 1)[1]
    return ""


def build_dataset(
    snapshots: dict[str, InstanceSnapshot],
    timelines: Iterable[TimelineCollection] = (),
    failures: Iterable[CrawlFailure] = (),
    snapshot_counts: dict[str, int] | None = None,
    first_seen: dict[str, float] | None = None,
    discovered_domains: Iterable[str] = (),
) -> Dataset:
    """Assemble a :class:`~repro.datasets.store.Dataset` from crawl output.

    ``snapshots`` maps each successfully crawled domain to its most recent
    metadata snapshot; ``failures`` carries the final failure for domains
    that could never be crawled (those become unreachable instance records,
    reproducing the paper's 404/403/502/503/410 breakdown).
    ``discovered_domains`` lists every domain seen through the Peers API;
    domains never crawled become lightweight non-Pleroma records, mirroring
    how the paper counts 9,969 discovered instances of which only the 1,534
    Pleroma ones are crawled.
    """
    dataset = Dataset()
    snapshot_counts = snapshot_counts or {}
    first_seen = first_seen or {}

    timelines = list(timelines)
    timeline_reachability = {
        collection.domain: collection.reachable for collection in timelines
    }

    for domain, snapshot in snapshots.items():
        record = InstanceRecord(
            domain=domain,
            software=snapshot.software,
            version=snapshot.version,
            reachable=True,
            status_code=200,
            user_count=snapshot.user_count,
            status_count=snapshot.status_count,
            peer_count=snapshot.peer_count,
            registrations_open=snapshot.registrations_open,
            policies_exposed=snapshot.policies_exposed,
            timeline_reachable=timeline_reachability.get(domain, False),
            enabled_policies=snapshot.enabled_policies,
            peers=snapshot.peers,
            first_seen=first_seen.get(domain, snapshot.timestamp),
            last_seen=snapshot.timestamp,
            snapshots=snapshot_counts.get(domain, 1),
        )
        dataset.add_instance(record)

        for policy in snapshot.enabled_policies:
            config: dict = {}
            if policy == "SimplePolicy":
                config = {action: list(t) for action, t in snapshot.mrf_simple.items()}
            elif policy == "ObjectAgePolicy":
                config = dict(snapshot.mrf_object_age)
            dataset.add_policy_setting(
                PolicySettingRecord(domain=domain, policy=policy, config=config)
            )

        dataset.add_reject_edges(
            RejectEdge(source=source, target=target, action=action)
            for source, target, action in snapshot.simple_policy_edges()
        )

    # Unreachable instances: keep the last failure per domain.
    last_failure: dict[str, CrawlFailure] = {}
    for failure in failures:
        last_failure[failure.domain] = failure
    for domain, failure in last_failure.items():
        if domain in dataset.instances:
            continue
        dataset.add_instance(
            InstanceRecord(
                domain=domain,
                software="pleroma",
                reachable=False,
                status_code=failure.status_code,
                first_seen=failure.timestamp,
                last_seen=failure.timestamp,
            )
        )

    # Domains only ever seen through peer lists: record them as non-Pleroma
    # shells so the instance population matches what the crawler discovered.
    for domain in discovered_domains:
        try:
            normalised = normalise_domain(domain)
        except ValueError:
            continue
        if normalised in dataset.instances:
            continue
        dataset.add_instance(
            InstanceRecord(domain=normalised, software="unknown", reachable=False, status_code=0)
        )

    # Posts and the users derived from them.
    for collection in timelines:
        if not collection.reachable:
            continue
        domain = collection.domain
        # A local post's URI sits under its collection's domain, which is
        # then its origin: the crawler reads local timelines, so only the
        # rare other post pays for a parse.
        local = f"https://{domain}/" if _PLAIN_DOMAIN.fullmatch(domain) else None
        for post in collection.posts:
            author = post.get("account", "")
            if local is not None and post.get("uri", "").startswith(local):
                origin = domain
            else:
                origin = _post_origin_domain(post) or domain
            record = PostRecord(
                post_id=post.get("id", ""),
                author=author,
                domain=origin,
                content=post.get("content", ""),
                created_at=float(post.get("created_at", 0.0)),
                collected_from=collection.domain,
                sensitive=bool(post.get("sensitive", False)),
                has_media=bool(post.get("media_attachments")),
                visibility=post.get("visibility", "public"),
            )
            dataset.add_post(record)
            if author:
                existing = dataset.users.get(author)
                if existing is None:
                    dataset.add_user(
                        UserRecord(
                            handle=author,
                            domain=origin,
                            bot=bool(post.get("bot", False)),
                            post_count=1,
                        )
                    )
                else:
                    existing.post_count += 1
    return dataset
