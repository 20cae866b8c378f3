"""Surface resolution over canned SPARQL fixtures, caching, and URL mapping."""

import json
from pathlib import Path
from unittest import mock
from urllib.parse import quote

import pytest

from entkit.errors import DataError
from entkit.wikidata_client import (
    FixtureTransport,
    HttpTransport,
    ResolutionResult,
    ResolutionStatus,
    TransportError,
    append_cache_line,
    load_cache,
    load_resolution_map,
    qid_to_wikipedia_url,
    resolve_batch,
    resolve_surface,
    sitelink_query,
    surface_query,
    url_to_entity_symbol,
)

LABELS = {
    "Jean Marais": ["Q168359"],
    "Paris": ["Q90", "Q7", "Q10"],
    "Ghost Town": ["Q555"],
}
SITELINKS = {
    "Q168359": "https://en.wikipedia.org/wiki/Jean_Marais",
    "Q7": "https://en.wikipedia.org/wiki/Seven_Thing",
}


def healthy():
    return FixtureTransport(LABELS, SITELINKS)


class TestQueries:
    def test_surface_query_embeds_literal(self):
        q = surface_query("Jean Marais")
        assert "VALUES ?str { 'Jean Marais'@en }" in q
        assert "rdfs:label" in q
        assert "FILTER((LANG(?str)) = 'en')" in q

    def test_surface_query_escapes_quotes_and_backslashes(self):
        q = surface_query(r"O'Brien \ Co")
        assert r"'O\'Brien \\ Co'@en" in q

    def test_escaping_round_trips_through_fixture(self):
        surface = r"O'Brien \ Co"
        transport = FixtureTransport({surface: ["Q1"]}, {})
        result = resolve_surface(surface, transport)
        assert result.qid == "Q1"
        assert result.status is ResolutionStatus.RESOLVED

    def test_sitelink_query_embeds_qid(self):
        q = sitelink_query("Q42")
        assert "VALUES ?id { wd:Q42 }" in q
        assert "schema:about" in q
        assert "en.wikipedia.org" in q

    @pytest.mark.parametrize("bad", ["42", "Q", "Q42x", "wd:Q42", ""])
    def test_sitelink_query_validates_qid(self, bad):
        with pytest.raises(ValueError, match="malformed Wikidata id"):
            sitelink_query(bad)


class TestFixtureTransport:
    def test_label_lookup_binds_entity_urls(self):
        data = healthy().query(surface_query("Jean Marais"))
        values = [b["id"]["value"] for b in data["results"]["bindings"]]
        assert values == ["http://www.wikidata.org/entity/Q168359"]

    def test_unknown_surface_gives_empty_bindings(self):
        data = healthy().query(surface_query("No Such Thing"))
        assert data == {"results": {"bindings": []}}

    def test_sitelink_lookup(self):
        data = healthy().query(sitelink_query("Q168359"))
        assert data["results"]["bindings"] == [
            {"wikiurl": {"value": SITELINKS["Q168359"]}}
        ]
        assert healthy().query(sitelink_query("Q555")) == {
            "results": {"bindings": []}
        }

    def test_unrecognized_query_gives_empty_bindings(self):
        assert healthy().query("SELECT * WHERE {}") == {
            "results": {"bindings": []}
        }

    def test_fail_mode_raises(self):
        with pytest.raises(TransportError):
            FixtureTransport(fail=True).query(surface_query("x"))

    def test_from_json(self, tmp_path):
        f = tmp_path / "fx.json"
        f.write_text(
            json.dumps({"labels": LABELS, "sitelinks": SITELINKS}),
            encoding="utf-8",
        )
        t = FixtureTransport.from_json(f)
        assert t.labels == LABELS
        assert t.sitelinks == SITELINKS
        assert t.fail is False

    def test_from_json_invalid(self, tmp_path):
        f = tmp_path / "fx.json"
        f.write_text("{", encoding="utf-8")
        with pytest.raises(DataError, match="invalid JSON fixture"):
            FixtureTransport.from_json(f)


class ScriptedTransport:
    """Answers each query from a queue of responses or exceptions."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.queries = []

    def query(self, sparql):
        self.queries.append(sparql)
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestQidToWikipediaUrl:
    def test_found(self):
        assert qid_to_wikipedia_url("Q168359", healthy()) == SITELINKS["Q168359"]

    def test_missing_sitelink_gives_none(self):
        assert qid_to_wikipedia_url("Q555", healthy()) is None

    def test_multiple_urls_pick_sorted_first(self):
        transport = ScriptedTransport(
            [
                {
                    "results": {
                        "bindings": [
                            {"wikiurl": {"value": "https://en.wikipedia.org/wiki/Zeta"}},
                            {"wikiurl": {"value": "https://en.wikipedia.org/wiki/Alpha"}},
                            {"wikiurl": {"value": "https://de.wikipedia.org/wiki/Aaa"}},
                        ]
                    }
                }
            ]
        )
        assert (
            qid_to_wikipedia_url("Q1", transport)
            == "https://en.wikipedia.org/wiki/Alpha"
        )

    def test_malformed_response(self):
        with pytest.raises(TransportError, match="malformed SPARQL response"):
            qid_to_wikipedia_url("Q1", ScriptedTransport([{"oops": 1}]))


class TestResolveSurface:
    def test_unique_label_resolves(self):
        result = resolve_surface("Jean Marais", healthy())
        assert result == ResolutionResult(
            "Jean Marais", "Q168359", SITELINKS["Q168359"],
            ResolutionStatus.RESOLVED,
        )

    def test_ambiguous_resolves_numerically_lowest(self):
        result = resolve_surface("Paris", healthy())
        # Q7 < Q10 < Q90 numerically; lexicographic order would pick Q10.
        assert result.qid == "Q7"
        assert result.status is ResolutionStatus.AMBIGUOUS_RESOLVED_LOWEST
        assert result.wikipedia_url == SITELINKS["Q7"]

    def test_unknown_surface_not_found(self):
        result = resolve_surface("No Such Thing", healthy())
        assert result.qid is None
        assert result.wikipedia_url is None
        assert result.status is ResolutionStatus.NOT_FOUND

    def test_resolved_without_sitelink_keeps_status(self):
        result = resolve_surface("Ghost Town", healthy())
        assert result.qid == "Q555"
        assert result.wikipedia_url is None
        assert result.status is ResolutionStatus.RESOLVED

    def test_endpoint_failure_reports_instead_of_raising(self):
        result = resolve_surface("Jean Marais", FixtureTransport(fail=True))
        assert result.status is ResolutionStatus.ENDPOINT_ERROR
        assert result.qid is None

    def test_failure_during_sitelink_lookup(self):
        transport = ScriptedTransport(
            [
                {
                    "results": {
                        "bindings": [
                            {"id": {"value": "http://www.wikidata.org/entity/Q5"}}
                        ]
                    }
                },
                TransportError("boom"),
            ]
        )
        result = resolve_surface("x", transport)
        assert result.status is ResolutionStatus.ENDPOINT_ERROR
        assert result.qid == "Q5"
        assert result.wikipedia_url is None

    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError, match="empty surface"):
            resolve_surface("", healthy())


class FlakySession:
    """Stands in for requests.Session: fails n times, then succeeds."""

    def __init__(self, failures, payload=None):
        import requests

        self.failures = failures
        self.payload = payload or {"results": {"bindings": []}}
        self.calls = []
        self._exc = requests.ConnectionError("no route")

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append((url, params["query"], params["format"]))
        if self.failures > 0:
            self.failures -= 1
            raise self._exc

        class Resp:
            def __init__(self, payload):
                self._payload = payload

            def raise_for_status(self):
                pass

            def json(self):
                return self._payload

        return Resp(self.payload)


class TestHttpTransport:
    def test_success_after_transient_failures(self):
        session = FlakySession(failures=2)
        transport = HttpTransport(
            "http://example.test/sparql", rate_per_sec=0.0, retries=3,
            backoff=0.0, session=session,
        )
        assert transport.query("SELECT 1") == {"results": {"bindings": []}}
        assert len(session.calls) == 3
        url, sparql, fmt = session.calls[0]
        assert url == "http://example.test/sparql"
        assert sparql == "SELECT 1"
        assert fmt == "json"

    def test_exhausted_retries_raise_transport_error(self):
        session = FlakySession(failures=99)
        transport = HttpTransport(
            "http://example.test/sparql", rate_per_sec=0.0, retries=3,
            backoff=0.0, session=session,
        )
        with pytest.raises(TransportError, match="example.test"):
            transport.query("SELECT 1")
        assert len(session.calls) == 3


class StatusSession:
    """Stands in for requests.Session: answers each request with the next
    (status code, headers) pair, raising ``requests.HTTPError`` from
    ``raise_for_status`` on codes of 400 and up."""

    def __init__(self, *answers):
        self.answers = list(answers)
        self.calls = 0

    def get(self, url, params=None, headers=None, timeout=None):
        import requests

        status, resp_headers = self.answers[self.calls]
        self.calls += 1

        class Resp:
            status_code = status
            headers = resp_headers

            def raise_for_status(self):
                if self.status_code >= 400:
                    raise requests.HTTPError(f"{self.status_code} error", response=self)

            def json(self):
                return {"results": {"bindings": []}}

        return Resp()


@pytest.fixture
def sleeps(monkeypatch):
    """Record the backoff sleeps of the HTTP transport instead of sleeping."""
    import entkit.wikidata_client as wikidata_client

    slept = []
    monkeypatch.setattr(wikidata_client.time, "sleep", slept.append)
    return slept


def status_transport(session):
    return HttpTransport(
        "http://example.test/sparql", rate_per_sec=0.0, retries=3,
        backoff=5.0, session=session,
    )


class TestHttpStatus:
    @pytest.mark.parametrize("status", [400, 403, 404])
    def test_client_error_fails_at_once(self, sleeps, status):
        session = StatusSession((status, {}), (200, {}))
        with pytest.raises(TransportError, match=str(status)):
            status_transport(session).query("SELECT 1")
        assert session.calls == 1
        assert sleeps == []

    def test_too_many_requests_waits_for_retry_after(self, sleeps):
        session = StatusSession((429, {"Retry-After": "2"}), (200, {}))
        assert status_transport(session).query("SELECT 1") == {
            "results": {"bindings": []}
        }
        assert session.calls == 2
        assert sleeps == [2.0]

    def test_too_many_requests_without_header_backs_off(self, sleeps):
        session = StatusSession((429, {}), (429, {"Retry-After": "soon"}), (200, {}))
        status_transport(session).query("SELECT 1")
        assert sleeps == [5.0, 10.0]

    def test_too_many_requests_stays_within_retry_budget(self, sleeps):
        session = StatusSession(*[(429, {"Retry-After": "1"})] * 3)
        with pytest.raises(TransportError, match="429"):
            status_transport(session).query("SELECT 1")
        assert session.calls == 3
        assert sleeps == [1.0, 1.0]

    def test_server_error_is_retried_with_backoff(self, sleeps):
        session = StatusSession((503, {"Retry-After": "1"}), (200, {}))
        status_transport(session).query("SELECT 1")
        assert session.calls == 2
        assert sleeps == [5.0]


class TestUrlSymbolMapping:
    def test_percent_decoding(self):
        assert (
            url_to_entity_symbol(
                "https://en.wikipedia.org/wiki/Battleground_%28film%29"
            )
            == "ENTITY/Battleground_(film)"
        )

    @pytest.mark.parametrize(
        "url,msg",
        [
            ("https://de.wikipedia.org/wiki/Thing", "not an en.wikipedia.org"),
            ("https://en.wikipedia.org/w/index.php?title=X", "not an en.wikipedia.org"),
            ("https://en.wikipedia.org/wiki/", "no article title"),
        ],
    )
    def test_rejects_non_article_urls(self, url, msg):
        with pytest.raises(DataError, match=msg):
            url_to_entity_symbol(url)

    @pytest.mark.parametrize(
        "symbol",
        [
            "ENTITY/Jean_Marais",
            "ENTITY/Battleground_(film)",
            "ENTITY/O'Brien",
            "ENTITY/A,_B._and_C",
            "ENTITY/Café_de_Flore",
        ],
    )
    def test_symbol_url_round_trip(self, symbol):
        # Any percent-encoding of the title decodes back to the symbol.
        url = "https://en.wikipedia.org/wiki/" + quote(symbol.removeprefix("ENTITY/"))
        assert url_to_entity_symbol(url) == symbol


class TestCache:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_cache(tmp_path / "nope.tsv") == {}

    def test_append_then_load_round_trip(self, tmp_path):
        f = tmp_path / "cache.tsv"
        results = [
            ResolutionResult(
                "Jean Marais", "Q168359", SITELINKS["Q168359"],
                ResolutionStatus.RESOLVED,
            ),
            ResolutionResult("Ghost Town", "Q555", None, ResolutionStatus.RESOLVED),
            ResolutionResult("Nobody", None, None, ResolutionStatus.NOT_FOUND),
        ]
        with open(f, "a", encoding="utf-8") as fh:
            for r in results:
                append_cache_line(fh, r)
        cache = load_cache(f)
        assert cache["Jean Marais"] == results[0]
        assert cache["Ghost Town"] == results[1]
        assert cache["Nobody"] == results[2]

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "cache.tsv"
        f.write_text("only two\tfields\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1: expected 3"):
            load_cache(f)


class CountingTransport:
    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def query(self, sparql):
        self.count += 1
        return self.inner.query(sparql)


class TestResolveBatch:
    SURFACES = ["Jean Marais", "Nobody", "Paris"]

    def test_batch_statuses(self, tmp_path):
        results = resolve_batch(self.SURFACES, healthy(), tmp_path / "c.tsv")
        assert [r.status for r in results] == [
            ResolutionStatus.RESOLVED,
            ResolutionStatus.NOT_FOUND,
            ResolutionStatus.AMBIGUOUS_RESOLVED_LOWEST,
        ]

    def test_cache_prevents_requerying(self, tmp_path):
        cache = tmp_path / "c.tsv"
        transport = CountingTransport(healthy())
        resolve_batch(self.SURFACES, transport, cache)
        first = transport.count
        assert first > 0
        again = resolve_batch(self.SURFACES, transport, cache)
        assert transport.count == first
        assert [r.surface for r in again] == self.SURFACES

    def test_duplicate_surfaces_resolve_once(self, tmp_path):
        transport = CountingTransport(healthy())
        results = resolve_batch(
            ["Nobody", "Nobody"], transport, tmp_path / "c.tsv"
        )
        assert transport.count == 1  # one label query, no sitelink lookup
        assert results[0] == results[1]

    def test_endpoint_errors_are_returned_but_not_cached(self, tmp_path):
        cache = tmp_path / "c.tsv"
        down = resolve_batch(self.SURFACES, FixtureTransport(fail=True), cache)
        assert all(r.status is ResolutionStatus.ENDPOINT_ERROR for r in down)
        assert not cache.exists()
        up = resolve_batch(self.SURFACES, healthy(), cache)
        assert [r.status for r in up] == [
            ResolutionStatus.RESOLVED,
            ResolutionStatus.NOT_FOUND,
            ResolutionStatus.AMBIGUOUS_RESOLVED_LOWEST,
        ]

    def test_interrupted_run_resumes(self, tmp_path):
        cache = tmp_path / "c.tsv"
        # First run dies between the two surfaces: only the first is cached.
        resolve_batch(["Jean Marais"], healthy(), cache)
        transport = CountingTransport(healthy())
        results = resolve_batch(["Jean Marais", "Ghost Town"], transport, cache)
        assert [r.surface for r in results] == ["Jean Marais", "Ghost Town"]
        # Only Ghost Town needed queries: one label, one (empty) sitelink.
        assert transport.count == 2

    def test_cache_opens_once_and_each_line_is_flushed_before_the_next_query(
        self, tmp_path
    ):
        cache = tmp_path / "c.tsv"
        on_disk = []

        class Peeking:
            def query(self, sparql):
                on_disk.append(cache.read_text(encoding="utf-8") if cache.exists() else "")
                return healthy().query(sparql)

        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if Path(file) == cache:
                opened.append(args)
            return real_open(file, *args, **kwargs)

        with mock.patch("builtins.open", counting_open):
            resolve_batch(self.SURFACES, Peeking(), cache)
        assert opened == [("a",)]
        lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 3
        # Before each surface's first query, every earlier line is on disk.
        assert sorted(set(on_disk)) == ["", lines[0], lines[0] + lines[1]]

    def test_ambiguity_status_degrades_to_resolved_in_cache(self, tmp_path):
        cache = tmp_path / "c.tsv"
        live = resolve_batch(["Paris"], healthy(), cache)
        assert live[0].status is ResolutionStatus.AMBIGUOUS_RESOLVED_LOWEST
        cached = resolve_batch(["Paris"], FixtureTransport(fail=True), cache)
        assert cached[0].status is ResolutionStatus.RESOLVED
        assert cached[0].qid == live[0].qid


class TestLoadResolutionMap:
    def test_only_rows_with_urls_map(self, tmp_path):
        cache = tmp_path / "c.tsv"
        resolve_batch(["Jean Marais", "Ghost Town", "Nobody"], healthy(), cache)
        assert load_resolution_map(cache) == {
            "Jean Marais": "ENTITY/Jean_Marais"
        }
