"""Reply-thread (conversation) helpers.

Mastodon/Pleroma thread replies via ``in_reply_to`` and group them under a
conversation id (the thread root's URI).  Clients prepend the accumulated
participant mentions to each reply, which is exactly the mechanic the
Hellthread policy keys on: deep threads accumulate enough distinct
``@user@domain`` tokens to cross the delist/reject mention floors, while
shallow threads stay under them.  The generator uses these helpers to
build reply storms with that realistic depth→mentions growth.
"""

from __future__ import annotations

from typing import Iterable

#: ``Post.extra`` key carrying the thread's conversation id (root URI).
CONVERSATION_FIELD = "conversation"


def mention_block(participants: Iterable[str]) -> str:
    """Render the mention prefix a client prepends to a thread reply.

    ``participants`` are full ``user@domain`` handles; order is preserved
    (callers pass them in thread-accumulation order) and duplicates are
    the caller's responsibility to avoid.
    """
    return " ".join(f"@{handle}" for handle in participants)


def reply_content(participants: Iterable[str], body: str) -> str:
    """Compose a reply's content: accumulated mentions, then the body."""
    mentions = mention_block(participants)
    return f"{mentions} {body}" if mentions else body
