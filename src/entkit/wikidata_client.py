"""Resolve surface forms to Wikidata IDs and Wikipedia URLs over SPARQL.

The transport is injectable: tests and offline runs use a fixture transport
built from canned JSON, live runs use an HTTP transport with a request-rate
limiter and retry with backoff. Resolution itself never raises on endpoint
trouble; it reports an ``endpoint_error`` status instead.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence
from urllib.parse import unquote, urlparse

from ._tsv import breaks_tsv, tsv_rows
from .errors import DataError, TransportError
from .symbols import ENTITY_PREFIX

if TYPE_CHECKING:
    import requests

DEFAULT_ENDPOINT = "https://query.wikidata.org/sparql"
QID_PATTERN = re.compile(r"Q\d+")

SURFACE_QUERY = """SELECT ?id ?str WHERE {{
  ?id rdfs:label ?str .
  VALUES ?str {{ '{surface}'@en }} .
  FILTER((LANG(?str)) = 'en') .
}}"""

SITELINK_QUERY = """SELECT ?id ?wikiurl WHERE {{
  VALUES ?id {{ wd:{qid} }} .
  ?wikiurl schema:about ?id .
  ?wikiurl schema:inLanguage 'en' .
  FILTER REGEX(str(?wikiurl), '.*en.wikipedia.org.*') .
}}"""


class ResolutionStatus(Enum):
    RESOLVED = "resolved"
    AMBIGUOUS_RESOLVED_LOWEST = "ambiguous_resolved_lowest"
    NOT_FOUND = "not_found"
    ENDPOINT_ERROR = "endpoint_error"


@dataclass(frozen=True)
class ResolutionResult:
    surface: str
    qid: str | None
    wikipedia_url: str | None
    status: ResolutionStatus


def _escape_literal(text: str) -> str:
    return text.replace("\\", "\\\\").replace("'", "\\'")


def surface_query(surface: str) -> str:
    return SURFACE_QUERY.format(surface=_escape_literal(surface))


def sitelink_query(qid: str) -> str:
    if not QID_PATTERN.fullmatch(qid):
        raise ValueError(f"malformed Wikidata id {qid!r}")
    return SITELINK_QUERY.format(qid=qid)


class HttpTransport:
    """requests-backed transport with rate limiting and retry.

    At most ``rate_per_sec`` requests per second are issued. Failed requests
    retry up to ``retries`` times with exponential backoff before raising
    TransportError. A client error (4xx) raises at once, except 429, which
    is retried after the ``Retry-After`` seconds when the response gives
    them. ``requests`` is imported only when a transport is made, so offline
    commands never load it.
    """

    def __init__(
        self,
        endpoint: str = DEFAULT_ENDPOINT,
        rate_per_sec: float = 5.0,
        retries: int = 3,
        backoff: float = 1.0,
        timeout: float = 30.0,
        session: requests.Session | None = None,
    ):
        import requests

        self.endpoint = endpoint
        self.min_interval = 1.0 / rate_per_sec if rate_per_sec > 0 else 0.0
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.session = session or requests.Session()
        self._last_request = 0.0

    def _throttle(self):
        wait = self._last_request + self.min_interval - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        self._last_request = time.monotonic()

    def query(self, sparql: str) -> dict:
        import requests

        last_error: Exception | None = None
        for attempt in range(self.retries):
            self._throttle()
            wait = self.backoff * (2**attempt)
            try:
                resp = self.session.get(
                    self.endpoint,
                    params={"query": sparql, "format": "json"},
                    headers={"Accept": "application/sparql-results+json"},
                    timeout=self.timeout,
                )
                resp.raise_for_status()
                return resp.json()
            except requests.HTTPError as exc:
                status = exc.response.status_code if exc.response is not None else 0
                if status == 429:
                    wait = _retry_after(exc.response, wait)
                elif 400 <= status < 500:
                    raise TransportError(
                        f"endpoint {self.endpoint} failed: {exc}"
                    ) from None
                last_error = exc
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
            if attempt + 1 < self.retries:
                time.sleep(wait)
        raise TransportError(f"endpoint {self.endpoint} failed: {last_error}")


def _retry_after(resp, default: float) -> float:
    """Seconds to wait from a ``Retry-After`` header given in seconds, else
    ``default``."""
    try:
        seconds = float(resp.headers["Retry-After"])
    except (KeyError, TypeError, ValueError):
        return default
    return seconds if 0.0 <= seconds < math.inf else default


class FixtureTransport:
    """Canned transport answering the client's own queries from a fixture dict.

    The fixture maps surfaces to Q-id lists and Q-ids to Wikipedia URLs:
    ``{"labels": {"Jean Marais": ["Q168359"]}, "sitelinks": {...},
    "fail": false}``. Each entry answers the exact text ``surface_query`` or
    ``sitelink_query`` makes for it, and any other query has no bindings.
    With ``fail`` set, every query raises TransportError, which is how
    endpoint outages are simulated.
    """

    def __init__(
        self,
        labels: Mapping[str, Sequence[str]] | None = None,
        sitelinks: Mapping[str, str] | None = None,
        fail: bool = False,
    ):
        self.labels = dict(labels or {})
        self.sitelinks = dict(sitelinks or {})
        self.fail = fail
        self._answers = {
            surface_query(surface): [
                {"id": {"value": f"http://www.wikidata.org/entity/{qid}"}}
                for qid in qids
            ]
            for surface, qids in self.labels.items()
        }
        self._answers.update(
            (sitelink_query(qid), [{"wikiurl": {"value": url}}] if url else [])
            for qid, url in self.sitelinks.items() if QID_PATTERN.fullmatch(qid)
        )

    @classmethod
    def from_json(cls, path) -> "FixtureTransport":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError:
                raise DataError(f"{path}: invalid JSON fixture") from None
        if not isinstance(raw, dict):
            raise DataError(f"{path}: fixture must be a JSON object")
        labels, sitelinks = raw.get("labels", {}), raw.get("sitelinks", {})
        fail = raw.get("fail", False)
        if not (isinstance(labels, dict) and all(
                isinstance(q, list) and all(isinstance(x, str) for x in q)
                for q in labels.values())):
            raise DataError(f"{path}: labels must map surfaces to lists of Q-ids")
        if not (isinstance(sitelinks, dict) and all(isinstance(u, str) for u in sitelinks.values())):
            raise DataError(f"{path}: sitelinks must map Q-ids to URL strings")
        if not isinstance(fail, bool):
            raise DataError(f"{path}: fail must be true or false")
        return cls(labels, sitelinks, fail)

    def query(self, sparql: str) -> dict:
        if self.fail:
            raise TransportError("fixture endpoint is configured to fail")
        return {"results": {"bindings": self._answers.get(sparql, [])}}


def _bindings(data: dict) -> list[dict]:
    try:
        return data["results"]["bindings"]
    except (KeyError, TypeError):
        raise TransportError("malformed SPARQL response") from None


def qid_to_wikipedia_url(qid: str, transport) -> str | None:
    """English Wikipedia URL for a Wikidata id, or None when it has none.

    A URL holding a tab or line break is ignored, as the cache and the
    result are tab-separated. Raises ValueError on a malformed id and
    TransportError when the endpoint is unreachable.
    """
    data = transport.query(sitelink_query(qid))
    urls = (b["wikiurl"]["value"] for b in _bindings(data) if "wikiurl" in b)
    return min((u for u in urls if "en.wikipedia.org" in u and not breaks_tsv(u)), default=None)


def resolve_surface(surface: str, transport) -> ResolutionResult:
    """Resolve one surface form; never raises on endpoint failure.

    Multiple matching ids resolve to the numerically lowest one with status
    ``ambiguous_resolved_lowest``.
    """
    if not surface:
        raise ValueError("cannot resolve an empty surface form")
    try:
        data = transport.query(surface_query(surface))
    except TransportError:
        return ResolutionResult(surface, None, None, ResolutionStatus.ENDPOINT_ERROR)

    qids = set()
    for b in _bindings(data):
        value = b.get("id", {}).get("value", "")
        m = QID_PATTERN.search(value)
        if m:
            qids.add(m.group(0))
    if not qids:
        return ResolutionResult(surface, None, None, ResolutionStatus.NOT_FOUND)
    qid = min(qids, key=lambda q: int(q[1:]))
    status = (
        ResolutionStatus.RESOLVED
        if len(qids) == 1
        else ResolutionStatus.AMBIGUOUS_RESOLVED_LOWEST
    )
    try:
        url = qid_to_wikipedia_url(qid, transport)
    except TransportError:
        return ResolutionResult(surface, qid, None, ResolutionStatus.ENDPOINT_ERROR)
    return ResolutionResult(surface, qid, url, status)


def url_to_entity_symbol(url: str) -> str:
    """Turn an en.wikipedia.org article URL into an ENTITY/ symbol.

    The final path segment is percent-decoded and prefixed, so
    ``.../wiki/Battleground_%28film%29`` becomes
    ``ENTITY/Battleground_(film)``.
    """
    parsed = urlparse(url)
    if parsed.netloc != "en.wikipedia.org" or not parsed.path.startswith("/wiki/"):
        raise DataError(f"not an en.wikipedia.org article URL: {url!r}")
    title = unquote(parsed.path[len("/wiki/") :])
    if not title:
        raise DataError(f"URL has no article title: {url!r}")
    return ENTITY_PREFIX + title


def load_cache(path) -> dict[str, ResolutionResult]:
    """Load a resolution cache TSV: ``surface<TAB>qid<TAB>url`` per line.

    Empty qid and url fields mark a cached not-found. Endpoint errors are
    never cached, so everything read back has a definite status.
    """
    cache: dict[str, ResolutionResult] = {}
    if not Path(path).exists():
        return cache
    for _lineno, (surface, qid, url) in tsv_rows(path, 3):
        if qid:
            cache[surface] = ResolutionResult(
                surface, qid, url or None, ResolutionStatus.RESOLVED
            )
        else:
            cache[surface] = ResolutionResult(
                surface, None, None, ResolutionStatus.NOT_FOUND
            )
    return cache


def append_cache_line(fh, result: ResolutionResult) -> None:
    """Write one cache line to the open text file ``fh`` and flush it, so
    an interrupted run keeps every line written before it stopped."""
    fh.write(f"{result.surface}\t{result.qid or ''}\t{result.wikipedia_url or ''}\n")
    fh.flush()


def resolve_batch(
    surfaces: Sequence[str], transport, cache_path=None
) -> list[ResolutionResult]:
    """Resolve many surfaces, resuming from and extending an on-disk cache.

    Cached surfaces are not re-queried. New definite results (resolved or
    not-found) are appended to the cache immediately, so an interrupted run
    resumes where it stopped. Endpoint errors are returned but not cached.
    The cache is opened once, when the first new result arrives.
    """
    cache = load_cache(cache_path) if cache_path else {}
    results: list[ResolutionResult] = []
    with contextlib.ExitStack() as stack:
        out = None
        for surface in surfaces:
            hit = cache.get(surface)
            if hit is not None:
                results.append(hit)
                continue
            result = resolve_surface(surface, transport)
            results.append(result)
            if result.status is not ResolutionStatus.ENDPOINT_ERROR:
                cache[surface] = result
                if cache_path:
                    if out is None:
                        out = stack.enter_context(open(cache_path, "a", encoding="utf-8"))
                    append_cache_line(out, result)
    return results


def load_resolution_map(path) -> dict[str, str]:
    """Surface-to-ENTITY/ symbol map from a resolution cache TSV."""
    mapping: dict[str, str] = {}
    for surface, result in load_cache(path).items():
        if result.wikipedia_url:
            mapping[surface] = url_to_entity_symbol(result.wikipedia_url)
    return mapping
