"""Tests for the dataset schema, store and export."""

from __future__ import annotations

import json

import pytest

from repro.datasets.export import dataset_to_dict, save_dataset, write_csv_tables
from repro.datasets.schema import (
    InstanceRecord,
    PolicySettingRecord,
    PostRecord,
    RejectEdge,
    UserRecord,
)
from repro.datasets.store import Dataset


@pytest.fixture
def dataset() -> Dataset:
    ds = Dataset()
    ds.add_instance(
        InstanceRecord(
            domain="alpha.example",
            software="pleroma",
            user_count=10,
            status_count=100,
            enabled_policies=("SimplePolicy", "ObjectAgePolicy"),
            peers=("beta.example",),
            timeline_reachable=True,
        )
    )
    ds.add_instance(
        InstanceRecord(domain="bad.example", software="pleroma", user_count=50, status_count=900)
    )
    ds.add_instance(InstanceRecord(domain="down.example", software="pleroma", reachable=False, status_code=502))
    ds.add_instance(InstanceRecord(domain="masto.example", software="mastodon", user_count=5))
    ds.add_policy_setting(
        PolicySettingRecord(
            domain="alpha.example",
            policy="SimplePolicy",
            config={"reject": ["bad.example"], "media_removal": ["pics.example"]},
        )
    )
    ds.add_policy_setting(PolicySettingRecord(domain="alpha.example", policy="ObjectAgePolicy"))
    ds.add_reject_edge(RejectEdge("alpha.example", "bad.example", "reject"))
    ds.add_reject_edge(RejectEdge("alpha.example", "pics.example", "media_removal"))
    ds.add_user(UserRecord(handle="troll@bad.example", domain="bad.example", post_count=2))
    ds.add_post(
        PostRecord(
            post_id="b1",
            author="troll@bad.example",
            domain="bad.example",
            content="you idiot",
            created_at=1.0,
            collected_from="bad.example",
        )
    )
    ds.add_post(
        PostRecord(
            post_id="b2",
            author="troll@bad.example",
            domain="bad.example",
            content="nice day",
            created_at=2.0,
            collected_from="alpha.example",
        )
    )
    return ds


class TestSchema:
    def test_instance_record_normalises_domain(self):
        record = InstanceRecord(domain="Alpha.Example/", software="pleroma")
        assert record.domain == "alpha.example"
        assert record.is_pleroma

    def test_post_record_is_local(self):
        local = PostRecord(
            post_id="1", author="a@a.example", domain="a.example",
            content="x", created_at=0.0, collected_from="a.example",
        )
        remote_copy = PostRecord(
            post_id="1", author="a@a.example", domain="a.example",
            content="x", created_at=0.0, collected_from="b.example",
        )
        assert local.is_local and not remote_copy.is_local


class TestStore:
    def test_software_partitions(self, dataset):
        assert len(dataset.pleroma_instances()) == 3
        assert len(dataset.non_pleroma_instances()) == 1
        assert len(dataset.reachable_pleroma_instances()) == 2

    def test_unreachable_breakdown(self, dataset):
        assert dataset.unreachable_status_breakdown() == {502: 1}

    def test_policy_lookups(self, dataset):
        assert dataset.instances_with_policy("SimplePolicy") == ["alpha.example"]
        assert "ObjectAgePolicy" in dataset.policy_names()

    def test_edge_lookups(self, dataset):
        assert dataset.rejects_received("bad.example") == 1
        assert dataset.rejects_applied("alpha.example") == 1
        assert dataset.rejected_domains() == ["bad.example"]
        assert set(dataset.moderated_domains()) == {"bad.example", "pics.example"}

    def test_duplicate_edges_ignored(self, dataset):
        before = len(dataset.reject_edges)
        dataset.add_reject_edge(RejectEdge("alpha.example", "bad.example", "reject"))
        assert len(dataset.reject_edges) == before

    def test_duplicate_posts_ignored(self, dataset):
        before = len(dataset.posts)
        dataset.add_post(
            PostRecord(
                post_id="b1", author="troll@bad.example", domain="bad.example",
                content="you idiot", created_at=1.0,
            )
        )
        assert len(dataset.posts) == before

    def test_post_lookups(self, dataset):
        assert len(dataset.posts_by("troll@bad.example")) == 2
        assert len(dataset.posts_from("bad.example")) == 2
        assert len(dataset.local_posts()) == 1
        assert len(dataset.users_with_posts()) == 1

    def test_stats(self, dataset):
        stats = dataset.stats()
        assert stats["instances_total"] == 4
        assert stats["pleroma_instances"] == 3
        assert stats["crawlable_pleroma_instances"] == 2
        assert stats["reject_edges"] == 1
        assert stats["moderation_edges"] == 2


class TestExport:
    def test_save_and_load(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "crawl.json", indent=2)
        assert path.exists()
        assert json.loads(path.read_text(encoding="utf-8")) == dataset_to_dict(dataset)

    def test_csv_export(self, dataset, tmp_path):
        written = write_csv_tables(dataset, tmp_path)
        assert set(written) == {"instances", "policy_settings", "reject_edges", "users", "posts"}
        instances_csv = written["instances"].read_text(encoding="utf-8")
        assert "alpha.example" in instances_csv
        policy_csv = written["policy_settings"].read_text(encoding="utf-8")
        assert "SimplePolicy" in policy_csv
        assert "reject" in policy_csv and "bad.example" in policy_csv
