"""Minimal HTTP request/response objects for the in-process API."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import IntEnum
from types import MappingProxyType
from typing import Any
from urllib.parse import parse_qsl, urlsplit

#: Standard header carrying the server's requested retry delay (seconds).
RETRY_AFTER_HEADER = "Retry-After"
#: Simulation-side attribution header: which injected fault produced this
#: response.  A real crawler never sees it; the measurement-bias analysis
#: and the resilience bookkeeping (``CrawlFailure.fault_kind``) do.
FAULT_HEADER = "X-Fault"
#: Annotation added by the retrying client to a response it gave up on:
#: how many attempts the logical request consumed.
ATTEMPTS_HEADER = "X-Attempts"
#: The request header carrying the client's self-identification.
USER_AGENT_HEADER = "User-Agent"
#: The product token instances match (case-insensitively, as a substring)
#: to refuse known measurement crawlers — the Epicyon-style blocking the
#: ``ua_blocking_share`` scenario knob plants on instances.
CRAWLER_UA_TOKEN = "repro-crawler"
#: The User-Agent string the measurement client sends with every request.
#: It honestly names the crawler, so UA-blocking instances refuse it.
DEFAULT_USER_AGENT = f"{CRAWLER_UA_TOKEN}/1.0 (measurement campaign)"


class HTTPStatus(IntEnum):
    """The status codes used by the simulated fediverse.

    The non-200 codes are exactly those the paper reports for uncrawlable
    instances (Section 3): 404 not found, 403 authorisation required,
    502 bad gateway, 503 service unavailable and 410 gone — plus the
    transient codes the fault-injection layer produces (408 request
    timeout, 429 rate limited, 500 transient error, 504 gateway timeout).
    """

    OK = 200
    BAD_REQUEST = 400
    FORBIDDEN = 403
    NOT_FOUND = 404
    REQUEST_TIMEOUT = 408
    GONE = 410
    TOO_MANY_REQUESTS = 429
    INTERNAL_SERVER_ERROR = 500
    BAD_GATEWAY = 502
    SERVICE_UNAVAILABLE = 503
    GATEWAY_TIMEOUT = 504

    @property
    def reason(self) -> str:
        """Return the canonical reason phrase."""
        return _REASONS[int(self)]


_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    408: "Request Timeout",
    410: "Gone",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: A shared immutable empty header mapping (the default for responses).
EMPTY_HEADERS: Mapping[str, str] = MappingProxyType({})

#: Statuses the base simulated server never emits, so retrying them can
#: never change a zero-fault crawl: 408/429/500/504 are injector-only.
TRANSIENT_STATUSES = frozenset({408, 429, 500, 504})
#: The ``X-Fault`` value of a malformed (non-JSON) 200 body.  Equal to
#: ``FaultKind.MALFORMED``, spelled out because :mod:`repro.faults` imports
#: this module.
MALFORMED_FAULT = "malformed"


class FrozenList(list):
    """An immutable list, equal to (and interchangeable with) the list it froze.

    Cached JSON payloads are handed to every consumer of the server's batch
    path, so their nested lists must reject mutation — but they must also
    stay ``==`` to the fresh lists the stateless per-request path builds
    (tuples would not).  Subclassing ``list`` keeps equality, iteration and
    ``isinstance`` checks intact; only the mutators are disabled.
    """

    def _immutable(self, *args, **kwargs):
        raise TypeError("cannot modify a frozen response payload")

    __setitem__ = _immutable
    __delitem__ = _immutable
    __iadd__ = _immutable
    __imul__ = _immutable
    append = _immutable
    extend = _immutable
    insert = _immutable
    remove = _immutable
    pop = _immutable
    clear = _immutable
    sort = _immutable
    reverse = _immutable


def freeze_json(value: Any) -> Any:
    """Recursively freeze a JSON-style payload for safe cross-client sharing.

    Mappings become :class:`~types.MappingProxyType` views (like the frozen
    error bodies), lists become :class:`FrozenList`\\ s; scalars pass through.
    Frozen payloads compare equal to their mutable originals, so cached and
    freshly-built responses remain interchangeable.
    """
    if isinstance(value, Mapping):
        return MappingProxyType(
            {key: freeze_json(item) for key, item in value.items()}
        )
    if isinstance(value, list):
        return FrozenList(freeze_json(item) for item in value)
    return value


@dataclass(frozen=True)
class HTTPRequest:
    """A GET request addressed to one instance."""

    domain: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_url(cls, domain: str, url: str, headers: dict[str, str] | None = None) -> "HTTPRequest":
        """Build a request from a path-with-query string (e.g. ``/a/b?x=1``)."""
        parts = urlsplit(url)
        query = dict(parse_qsl(parts.query))
        return cls(domain=domain, path=parts.path, query=query, headers=dict(headers or {}))

    def param(self, name: str, default: str | None = None) -> str | None:
        """Return one query parameter."""
        return self.query.get(name, default)

    def int_param(self, name: str, default: int) -> int:
        """Return one query parameter parsed as an integer."""
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"query parameter {name!r} is not an integer: {raw!r}") from exc

    def bool_param(self, name: str, default: bool = False) -> bool:
        """Return one query parameter parsed as a boolean."""
        raw = self.query.get(name)
        if raw is None:
            return default
        return raw.strip().lower() in ("1", "true", "yes", "on")


@dataclass(frozen=True)
class HTTPResponse:
    """The response produced by the API server for one request.

    Headers are copied and frozen behind ``MappingProxyType``, and the
    response is classified once, at construction: ``ok``, ``retry_after``,
    ``fault_kind``, ``attempts``, ``message`` and ``transient`` are stored
    fields, not re-derived from the headers on every read.  Most responses
    are shared objects — the server's cached metadata responses and
    availability errors — so each is classified once however many rounds
    read it.
    """

    status: HTTPStatus
    body: Any = None
    headers: Mapping[str, str] = field(default_factory=lambda: EMPTY_HEADERS)
    #: ``True`` for 2xx responses.
    ok: bool = field(init=False, repr=False, compare=False)
    #: The ``Retry-After`` delay in seconds, when present and numeric.
    retry_after: float | None = field(init=False, repr=False, compare=False)
    #: The injected-fault attribution of this response (or ``""``).
    fault_kind: str = field(init=False, repr=False, compare=False)
    #: Attempts the retrying client spent on the request (``X-Attempts``).
    attempts: int = field(init=False, repr=False, compare=False)
    #: The error message of a failed response's body (or ``""``).
    message: str = field(init=False, repr=False, compare=False)
    #: Whether a retry is worth it: a status the base server never emits
    #: (:data:`TRANSIENT_STATUSES`), a ``Retry-After`` header, or a
    #: malformed-body attribution.  Permanent failures are never transient.
    transient: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        headers = MappingProxyType(dict(self.headers)) if self.headers else EMPTY_HEADERS
        code = int(self.status)
        ok = 200 <= code < 300
        retry_after = None
        fault_kind = ""
        attempts = 1
        if headers:
            raw = headers.get(RETRY_AFTER_HEADER)
            if raw is not None:
                try:
                    retry_after = float(raw)
                except ValueError:
                    pass
            fault_kind = headers.get(FAULT_HEADER, "")
            attempts = int(headers.get(ATTEMPTS_HEADER, "1") or 1)
        body = self.body
        message = ""
        if not ok and isinstance(body, Mapping):
            message = str(body.get("error", ""))
        store = object.__setattr__
        store(self, "headers", headers)
        store(self, "ok", ok)
        store(self, "retry_after", retry_after)
        store(self, "fault_kind", fault_kind)
        store(self, "attempts", attempts)
        store(self, "message", message)
        store(
            self,
            "transient",
            code in TRANSIENT_STATUSES
            or retry_after is not None
            or fault_kind == MALFORMED_FAULT,
        )

    def json(self) -> Any:
        """Return the JSON body, raising on error responses."""
        if not self.ok:
            raise ValueError(f"cannot read body of a {int(self.status)} response")
        return self.body

    def header(self, name: str, default: str | None = None) -> str | None:
        """Return one response header."""
        return self.headers.get(name, default)

    @classmethod
    def json_ok(cls, body: Any) -> "HTTPResponse":
        """Build a 200 response carrying a JSON body."""
        return cls(status=HTTPStatus.OK, body=body)

    @classmethod
    def error(
        cls,
        status: HTTPStatus,
        message: str = "",
        headers: Mapping[str, str] | None = None,
    ) -> "HTTPResponse":
        """Build an error response with a standard error body.

        Error responses are shared across consumers (the server's
        availability-error cache hands one object to a whole batch), so
        their body is frozen behind ``MappingProxyType`` like every
        response's headers — a consumer mutating one cannot corrupt its
        siblings.
        """
        body = MappingProxyType({"error": message or status.reason})
        return cls(status=status, body=body, headers=headers or EMPTY_HEADERS)
