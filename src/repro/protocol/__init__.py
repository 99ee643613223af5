"""Protocol-realism subsystem: boosts and conversations.

The measured fediverse is not a stream of ``Create`` activities: real MRF
pipelines spend much of their time on boosts (``Announce``), favourites
(``Like``) and reply threads.  This package models those protocol mechanics
on top of the existing activity model, following Epicyon's ``announce.py``
and ``conversation.py``:

* :mod:`repro.protocol.announce` — hot-post selection for boost cascades:
  the planted set of posts that re-fan across origins in the ``viral``
  scenario.
* :mod:`repro.protocol.conversation` — reply-thread (conversation)
  helpers: the conversation field and the accumulated mention prefix that
  makes deep threads cross the Hellthread mention floors at realistic depth.

Everything here is inert by default: the generator only emits the new
activity types when a scenario turns the corresponding knobs on, so
Create-only configurations stay bit-identical to the pre-protocol engine
(the ``protocol`` bench stage gates this).
"""

from repro.protocol.announce import select_hot_posts
from repro.protocol.conversation import add_mention

__all__ = [
    "add_mention",
    "select_hot_posts",
]
