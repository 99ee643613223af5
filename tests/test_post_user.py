"""Tests for posts, media attachments and users."""

from __future__ import annotations

import pytest

from repro.fediverse.post import MediaAttachment, Post, Visibility
from repro.fediverse.user import User


def make_post(**overrides) -> Post:
    defaults = dict(
        post_id="p1",
        author="alice@alpha.example",
        domain="alpha.example",
        content="hello world",
        created_at=10.0,
    )
    defaults.update(overrides)
    return Post(**defaults)


class TestPost:
    def test_uri_uses_origin_domain(self):
        assert make_post().uri == "https://alpha.example/objects/p1"

    def test_domain_normalised(self):
        post = make_post(domain="Alpha.Example")
        assert post.domain == "alpha.example"

    def test_mentions_extracted(self):
        post = make_post(content="hey @bob@beta.example and @carol@gamma.example")
        assert post.mentions == ("bob@beta.example", "carol@gamma.example")
        assert post.mention_count == 2

    def test_mention_count_deduplicates(self):
        post = make_post(content="@bob@beta.example @bob@beta.example")
        assert post.mention_count == 1

    def test_hashtags_lowercased(self):
        post = make_post(content="great day #Caturday #FOSS")
        assert post.hashtags == ("caturday", "foss")

    def test_links_extracted(self):
        post = make_post(content="see https://example.test/page for details")
        assert post.links == ("https://example.test/page",)

    def test_has_media(self):
        attachment = MediaAttachment(url="https://alpha.example/m/1.png")
        assert make_post(attachments=(attachment,)).has_media
        assert not make_post().has_media

    def test_visibility_public_flag(self):
        assert make_post().is_public
        assert not make_post(visibility=Visibility.DIRECT).is_public
        assert not make_post(visibility=Visibility.FOLLOWERS_ONLY).is_public

    def test_age(self):
        post = make_post(created_at=100.0)
        assert post.age(250.0) == 150.0
        assert post.age(50.0) == 0.0

    def test_with_changes_does_not_mutate_original(self):
        post = make_post()
        changed = post.with_changes(sensitive=True)
        assert changed.sensitive and not post.sensitive
        assert changed.post_id == post.post_id

    def test_to_dict_contains_api_fields(self):
        data = make_post().to_dict()
        assert data["id"] == "p1"
        assert data["account"] == "alice@alpha.example"
        assert data["visibility"] == "public"
        assert "media_attachments" in data


class TestUser:
    def test_handle_and_actor_uri(self):
        user = User(username="alice", domain="Alpha.Example")
        assert user.handle == "alice@alpha.example"

    def test_display_name_defaults_to_username(self):
        assert User(username="alice", domain="alpha.example").display_name == "alice"

    def test_follow_bookkeeping(self):
        user = User(username="alice", domain="alpha.example")
        user.add_follower("bob@beta.example")
        user.add_following("carol@gamma.example")
        assert user.follower_count == 1
        assert user.following_count == 1

    def test_cannot_follow_self(self):
        user = User(username="alice", domain="alpha.example")
        with pytest.raises(ValueError):
            user.add_follower("alice@alpha.example")
        with pytest.raises(ValueError):
            user.add_following("alice@alpha.example")

    def test_account_age(self):
        user = User(username="alice", domain="alpha.example", created_at=100.0)
        assert user.account_age(400.0) == 300.0

    def test_to_dict(self):
        user = User(username="alice", domain="alpha.example", bot=True)
        data = user.to_dict()
        assert data["acct"] == "alice@alpha.example"
        assert data["bot"] is True
        assert data["statuses_count"] == 0
