"""Tests for fediverse identifier helpers."""

from __future__ import annotations

import pytest

from repro.fediverse.identifiers import (
    domain_matches,
    make_actor_uri,
    make_handle,
    make_post_uri,
    normalise_domain,
    parse_handle,
)


class TestNormaliseDomain:
    def test_lowercases(self):
        assert normalise_domain("Example.Social") == "example.social"

    def test_strips_scheme_and_slash(self):
        assert normalise_domain("https://example.social/") == "example.social"
        assert normalise_domain("http://example.social") == "example.social"

    def test_strips_whitespace(self):
        assert normalise_domain("  example.social ") == "example.social"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            normalise_domain("   ")

    def test_idempotent(self):
        once = normalise_domain("HTTPS://Foo.Example/")
        assert normalise_domain(once) == once


class TestHandles:
    def test_make_handle(self):
        assert make_handle("alice", "Alpha.Example") == "alice@alpha.example"

    def test_make_handle_empty_username(self):
        with pytest.raises(ValueError):
            make_handle("", "alpha.example")

    def test_parse_handle(self):
        assert parse_handle("alice@alpha.example") == ("alice", "alpha.example")

    def test_parse_handle_with_at_prefix(self):
        assert parse_handle("@alice@alpha.example") == ("alice", "alpha.example")

    def test_parse_invalid_handle(self):
        with pytest.raises(ValueError):
            parse_handle("not-a-handle")

    def test_roundtrip(self):
        handle = make_handle("carol", "gamma.example")
        assert make_handle(*parse_handle(handle)) == handle


class TestUris:
    def test_post_uri(self):
        assert make_post_uri("alpha.example", "42") == "https://alpha.example/objects/42"

    def test_actor_uri(self):
        assert make_actor_uri("alpha.example", "alice") == "https://alpha.example/users/alice"


class TestDomainMatches:
    def test_exact_match(self):
        assert domain_matches("alpha.example", "alpha.example")

    def test_case_insensitive(self):
        assert domain_matches("Alpha.Example", "alpha.example")

    def test_wildcard_matches_subdomain(self):
        assert domain_matches("media.alpha.example", "*.alpha.example")

    def test_wildcard_matches_apex(self):
        assert domain_matches("alpha.example", "*.alpha.example")

    def test_wildcard_does_not_match_other_domain(self):
        assert not domain_matches("beta.example", "*.alpha.example")

    def test_no_partial_suffix_match(self):
        assert not domain_matches("evilalpha.example", "alpha.example")
