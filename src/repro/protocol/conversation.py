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

#: ``Post.extra`` key carrying the thread's conversation id (root URI).
CONVERSATION_FIELD = "conversation"


def add_mention(prefix: str, handle: str) -> str:
    """Return a reply's mention prefix with ``handle`` joined to the thread.

    A reply's content is this prefix, then the body: one ``@user@domain``
    mention per participant, in the order they joined the thread, each
    followed by a space.  Growing the prefix as each participant joins
    saves re-joining the whole block for every reply.
    """
    return f"{prefix}@{handle} "
