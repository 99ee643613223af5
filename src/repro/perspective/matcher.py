"""The compiled term-matching engine behind the Perspective substitute.

Scoring used to pay a full Python tokenise of every text (one ``findall``
materialising every token string) plus one merged-table dict probe per
token, even though the merged lexicon is ~60 terms and the overwhelming
majority of tokens hit nothing.  The engine compiles the merged lexicon
into a single C-level scan instead:

* one compiled regex — a trie-structured alternation over the lexicon
  terms wrapped in tokenizer-consistent boundaries
  (``(?<![a-z0-9'])…(?![a-z0-9'])`` against the lowercased text) — finds
  every lexicon token in one pass, in token order; and
* a counting-only token pass supplies the density denominator, and only
  runs when the first scan actually hit something (a zero-hit text scores
  0.0 on every attribute regardless of its token count).

Because the tokeniser alphabet is ``[a-z0-9']``, a maximal run of those
characters *is* a token, so the boundary lookarounds make the alternation
match exactly the tokens the seed's ``tokenize`` would have produced.
Matches arrive in token order and skipped non-lexicon tokens contribute
the float identity ``+0.0``, so per-attribute partial sums stay bitwise
identical to the seed summation.

For corpus-sized batches the engine additionally offers a **batched blob
scan** (:meth:`CompiledLexiconMatcher.scan`): texts are joined into one
separator-delimited blob, tokenised vectorised with NumPy on its UTF-8
bytes (the token alphabet is pure ASCII, so byte-level runs equal
str-level tokens), and terms are matched by length-grouped byte
comparison.  The per-text accumulation loop walks matches in position
order, preserving the bit-exact contract.
"""

from __future__ import annotations

import re

import numpy as np

#: The tokeniser used across the Perspective substitute (kept in sync with
#: :data:`repro.perspective.lexicon._WORD_RE`).
_WORD_RE = re.compile(r"[a-z0-9']+")

#: The tokeniser alphabet: a lexicon term that is not one maximal run of
#: these characters can never equal a token, so it is dropped from the
#: compiled pattern (the merged dict still holds it, matching the seed's
#: ``table.get(token)`` semantics, which could never return it either).
_TOKEN_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789'")

#: The 256-entry is-token-byte lookup table of the vectorised scan.
_TOKEN_BYTES = np.zeros(256, dtype=bool)
_TOKEN_BYTES[[ord(char) for char in _TOKEN_CHARS]] = True

_LOOKBEHIND = r"(?<![a-z0-9'])"
_LOOKAHEAD = r"(?![a-z0-9'])"


def _trie_pattern(terms: list[str]) -> str:
    """Return a trie-structured alternation matching exactly ``terms``.

    A flat ``a|ab|b`` alternation retries every branch at every candidate
    position; factoring shared prefixes into a character trie lets the
    regex engine discard whole term families after one character, which
    measures ~1.5x faster on miss-heavy text with the default lexicon.
    """
    trie: dict = {}
    for term in terms:
        node = trie
        for char in term:
            node = node.setdefault(char, {})
        node[""] = True

    def emit(node: dict) -> str:
        if len(node) == 1 and "" in node:
            return ""
        alternatives = []
        optional = False
        for char, child in sorted(node.items()):
            if char == "":
                optional = True
                continue
            alternatives.append(re.escape(char) + emit(child))
        if len(alternatives) == 1 and not optional:
            return alternatives[0]
        body = "(?:" + "|".join(alternatives) + ")"
        return body + ("?" if optional else "")

    return emit(trie)


class CompiledLexiconMatcher:
    """One lexicon configuration compiled into C-level scans.

    Instances are immutable snapshots of a merged lexicon table; the
    owning :class:`~repro.perspective.lexicon.Lexicon` rebuilds them on
    demand and drops them whenever ``add_term``/``remove_term`` mutates
    the configuration (mirroring ``merged_table`` invalidation).
    """

    __slots__ = ("weights", "pattern", "width", "_by_key", "_term_keys")

    def __init__(self, merged: dict[str, tuple[float, ...]], width: int) -> None:
        #: token -> per-attribute weight vector (the merged lexicon table).
        self.weights = merged
        #: Number of scored attributes (the length of every weight vector).
        self.width = width
        matchable = [
            term for term in merged if term and not set(term) - _TOKEN_CHARS
        ]
        if matchable:
            self.pattern = re.compile(
                _LOOKBEHIND + _trie_pattern(matchable) + _LOOKAHEAD
            )
        else:
            # Nothing the tokeniser could ever produce: every scan misses.
            self.pattern = None
        #: Packed (first byte, last byte, clamped length) key -> the terms
        #: sharing it, as (utf-8 bytes, byte length).  The NumPy scan uses
        #: the keys as a cheap vectorised prefilter so the exact byte
        #: comparison only runs on the handful of colliding tokens.
        by_key: dict[int, list[tuple[str, bytes, int]]] = {}
        for term in matchable:
            encoded = term.encode()
            key = _pack_key(encoded[0], encoded[-1], len(encoded))
            by_key.setdefault(key, []).append((term, encoded, len(encoded)))
        self._by_key = by_key
        self._term_keys = sorted(by_key)

    # ------------------------------------------------------------------ #
    # Per-text scans
    # ------------------------------------------------------------------ #
    def hits(self, lowered: str) -> tuple[float, ...] | None:
        """Return the per-attribute summed hit weights of ``lowered``.

        ``None`` means no lexicon term occurred at all (the overwhelmingly
        common case), letting callers skip the token-counting pass.  Sums
        accumulate in token order, exactly like the per-token baseline.
        """
        pattern = self.pattern
        if pattern is None:
            return None
        iterator = pattern.finditer(lowered)
        first = next(iterator, None)
        if first is None:
            return None
        weights = self.weights
        totals = list(weights[first.group()])
        for match in iterator:
            for position, weight in enumerate(weights[match.group()]):
                totals[position] += weight
        return tuple(totals)

    @staticmethod
    def count_tokens(lowered: str) -> int:
        """The counting-only token pass: ``len(tokenize(text))`` without
        keeping the token strings around afterwards."""
        return len(_WORD_RE.findall(lowered))

    def scan_text(self, text: str) -> tuple[int, tuple[float, ...] | None]:
        """Return the ``(token_count, hit_vector)`` column of one text.

        The count is only materialised when the text actually hit the
        lexicon — a zero-hit column is ``(0, None)`` and scores 0.0 on
        every attribute no matter how many tokens the text holds.
        """
        lowered = text.lower()
        found = self.hits(lowered)
        if found is None:
            return (0, None)
        return (self.count_tokens(lowered), found)

    # ------------------------------------------------------------------ #
    # Batched blob scan
    # ------------------------------------------------------------------ #
    def scan(self, texts: list[str]) -> list[tuple[int, tuple[float, ...] | None]]:
        """Return one ``(token_count, hit_vector)`` column per text.

        Columns carry everything a score derivation needs: zero-hit texts
        get ``(0, None)``; hit texts get their exact token count and the
        token-order-accumulated weight vector.  The batched path and the
        per-text path produce identical columns.
        """
        if not texts:
            return []
        if len(texts) < 32:
            return [self.scan_text(text) for text in texts]
        return self._scan_numpy(texts)

    def _scan_numpy(self, texts: list[str]) -> list[tuple[int, tuple[float, ...] | None]]:
        """Vectorised :meth:`scan`: tokenise the whole corpus on its UTF-8
        bytes and match terms by length-grouped byte comparison.

        The token alphabet is pure ASCII and UTF-8 continuation bytes are
        all >= 0x80, so byte-level token runs are exactly the str-level
        tokens; '\\n' separators keep texts apart.  Only the final
        accumulation (sparse: one iteration per lexicon hit) runs in
        Python, in match-position order — i.e. token order per text.
        """
        joined = "\n".join(texts)
        if joined.isascii():
            # ASCII corpus (the common case): lowercasing is 1:1, so one
            # C-level lower+encode of the whole blob replaces the per-text
            # loop and char offsets equal byte offsets.
            blob = joined.lower().encode()
            sizes = np.fromiter(map(len, texts), np.int64, len(texts))
        else:
            encoded = [text.lower().encode() for text in texts]
            blob = b"\n".join(encoded)
            sizes = np.fromiter(map(len, encoded), np.int64, len(encoded))
        data = np.frombuffer(blob, dtype=np.uint8)
        # Text i occupies bytes [bounds[i], bounds[i] + sizes[i]).
        bounds = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(sizes + 1, out=bounds[1:])

        is_token = _TOKEN_BYTES[data]
        after, before = is_token[1:], is_token[:-1]
        token_starts = np.flatnonzero(after & ~before) + 1
        if is_token[0]:
            token_starts = np.concatenate(([0], token_starts))
        counts = np.diff(np.searchsorted(token_starts, bounds))
        columns: list[tuple[int, tuple[float, ...] | None]] = [
            (0, None) for _ in texts
        ]
        if not token_starts.size or self.pattern is None:
            return columns
        token_ends = np.flatnonzero(before & ~after) + 1
        if is_token[-1]:
            token_ends = np.concatenate((token_ends, [len(data)]))
        token_lengths = token_ends - token_starts

        # Prefilter: almost no token is a lexicon term, so compare packed
        # (first byte, last byte, clamped length) keys first and only byte-
        # compare the few tokens whose key collides with a term's.
        token_keys = (
            (data[token_starts].astype(np.int32) << 16)
            | (data[token_ends - 1].astype(np.int32) << 8)
            | np.minimum(token_lengths, 255).astype(np.int32)
        )
        term_keys = np.asarray(self._term_keys, dtype=np.int32)
        try:
            key_hits = np.isin(token_keys, term_keys, kind="table")
        except TypeError:  # pragma: no cover - numpy without kind=
            key_hits = np.isin(token_keys, term_keys)
        candidate_rows = np.flatnonzero(key_hits)
        if not candidate_rows.size:
            return columns
        candidate_starts = token_starts[candidate_rows]
        candidate_keys = token_keys[candidate_rows]
        candidate_lengths = token_lengths[candidate_rows]

        matched_positions: list = []
        matched_vectors: list[tuple[float, ...]] = []
        weights = self.weights
        for key, terms in self._by_key.items():
            in_key = np.flatnonzero(candidate_keys == key)
            if not in_key.size:
                continue
            for term, term_bytes, length in terms:
                selected = in_key[candidate_lengths[in_key] == length]
                if not selected.size:
                    continue
                starts = candidate_starts[selected]
                window = data[starts[:, None] + np.arange(length)]
                hit = (window == np.frombuffer(term_bytes, dtype=np.uint8)).all(axis=1)
                if not hit.any():
                    continue
                positions = starts[hit]
                matched_positions.append(positions)
                matched_vectors.extend([weights[term]] * len(positions))
        if not matched_positions:
            return columns

        # Accumulate in match-position order — i.e. token order per text —
        # on native ints (iterating NumPy scalars costs ~10x per element).
        all_positions = np.concatenate(matched_positions)
        order = np.argsort(all_positions, kind="stable").tolist()
        rows = (np.searchsorted(bounds, all_positions, side="right") - 1).tolist()
        totals: dict[int, list[float]] = {}
        for index in order:
            row = rows[index]
            vector = matched_vectors[index]
            running = totals.get(row)
            if running is None:
                totals[row] = list(vector)
            else:
                for position, weight in enumerate(vector):
                    running[position] += weight
        for row, running in totals.items():
            columns[row] = (int(counts[row]), tuple(running))
        return columns


def _pack_key(first: int, last: int, length: int) -> int:
    """Pack (first byte, last byte, length clamped to 255) into one int."""
    return (first << 16) | (last << 8) | min(length, 255)

