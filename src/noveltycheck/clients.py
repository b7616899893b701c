"""Abstract model and search clients plus their deterministic mocks.

Every nondeterministic external service sits behind one of the two
interfaces here, so the rest of the pipeline stays testable offline.
Mock clients are driven by JSON fixture files and are thread safe.
"""

from __future__ import annotations

import json
import logging
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from .codec import decode
from .errors import LlmError, SearchError
from .papers import PublicationDate, VerificationVerdict

logger = logging.getLogger(__name__)


class LlmClient(ABC):
    """Blocking text-completion interface.

    Implementations must be safe for concurrent calls; the pipeline never
    shares mutable per-request state across workers.
    """

    @abstractmethod
    def complete(self, system_prompt: str, user_prompt: str, temperature: float = 0.0) -> str:
        """Return the model's text response or raise LlmError."""


@dataclass
class SearchHit:
    """One result from the semantic search engine."""

    title: str
    abstract: str = ""
    url: Optional[str] = None
    identifiers: dict[str, str] = field(default_factory=dict)
    relevance_score: float = 0.0
    verdict: Optional[VerificationVerdict] = None
    publication_date: Optional[PublicationDate] = None
    full_text: Optional[str] = None

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SearchHit":
        """Decode one hit; no title, or a field of the wrong type, raises."""
        for key in ("title", "abstract", "url", "full_text"):
            if d.get(key) is not None and not isinstance(d[key], str):
                raise TypeError(f"{key} is a {type(d[key]).__name__}, not a string")
        verdict = None
        if d.get("verdict"):
            verdict = VerificationVerdict.from_dicts(d["verdict"])
        date = None
        if d.get("publication_date"):
            date = decode(PublicationDate, d["publication_date"])
        return cls(
            title=d["title"],
            abstract=d.get("abstract") or "",
            url=d.get("url"),
            identifiers=dict(d.get("identifiers", {})),
            relevance_score=float(d.get("relevance_score", 0.0)),
            verdict=verdict,
            publication_date=date,
            full_text=d.get("full_text"),
        )


def parse_hits(items: Any) -> list[SearchHit]:
    """Decode one query's result list; a malformed hit is dropped with a warning.

    A hit with no title or a null or non-numeric relevance score, say, must
    not cost the query its other hits.
    """
    if not isinstance(items, list):
        raise SearchError(f"search results are not a list: {type(items).__name__}")
    hits: list[SearchHit] = []
    for i, item in enumerate(items):
        try:
            if not isinstance(item, Mapping):
                raise TypeError(f"hit is a {type(item).__name__}, not an object")
            hits.append(SearchHit.from_dict(item))
        except (KeyError, TypeError, ValueError) as exc:
            logger.warning("dropping malformed search hit %d: %r", i, exc)
    return hits


class SearchClient(ABC):
    """Natural-language query interface to the paper search service.

    Queries are passed through verbatim; no boolean operators are ever
    constructed on this side.
    """

    @abstractmethod
    def search(self, query: str) -> list[SearchHit]:
        """Return hits for the query or raise SearchError."""


# --- mocks -------------------------------------------------------------------


class MockLlmClient(LlmClient):
    """Fixture-driven model client.

    The fixture is a JSON document::

        {"rules": [{"system_contains": "...", "user_contains": "...",
                    "response": <str or JSON value>,
                    "responses": [<consumed one per call>]}, ...],
         "default": <optional response>}

    The first rule whose substrings all match wins. ``responses`` sequences
    are consumed under a lock; once exhausted the last entry repeats.
    """

    def __init__(self, fixture: Mapping[str, Any]) -> None:
        self._rules = list(fixture.get("rules", []))
        self._default = fixture.get("default")
        self._counters: dict[int, int] = {}
        self._lock = threading.Lock()
        self.calls: list[dict[str, Any]] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "MockLlmClient":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    @staticmethod
    def _render(value: Any) -> str:
        if isinstance(value, str):
            return value
        return json.dumps(value, ensure_ascii=False)

    def complete(self, system_prompt: str, user_prompt: str, temperature: float = 0.0) -> str:
        with self._lock:
            self.calls.append(
                {"system": system_prompt, "user": user_prompt, "temperature": temperature}
            )
            for idx, rule in enumerate(self._rules):
                sys_sub = rule.get("system_contains")
                user_sub = rule.get("user_contains")
                if sys_sub and sys_sub not in system_prompt:
                    continue
                if user_sub and user_sub not in user_prompt:
                    continue
                if "responses" in rule:
                    seq = rule["responses"]
                    n = self._counters.get(idx, 0)
                    self._counters[idx] = n + 1
                    return self._render(seq[min(n, len(seq) - 1)])
                if rule.get("error"):
                    raise LlmError(str(rule["error"]))
                return self._render(rule.get("response", ""))
            if self._default is not None:
                return self._render(self._default)
        raise LlmError("no mock response matched the request")

    def call_count(self, system_contains: str) -> int:
        with self._lock:
            return sum(1 for c in self.calls if system_contains in c["system"])


class MockSearchClient(SearchClient):
    """Fixture-driven search client.

    The fixture maps query text to a result spec::

        {"queries": {"<query>": {"results": [hit...], "fail_times": 0}},
         "default": []}

    ``fail_times`` makes the first N calls for that query raise, which is
    how retry behavior is exercised in tests.
    """

    def __init__(self, fixture: Mapping[str, Any]) -> None:
        self._queries = dict(fixture.get("queries", {}))
        self._default = fixture.get("default", [])
        self._failures: dict[str, int] = {}
        self._lock = threading.Lock()
        self.calls: list[str] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "MockSearchClient":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def search(self, query: str) -> list[SearchHit]:
        with self._lock:
            self.calls.append(query)
            spec = self._queries.get(query)
            if spec is None:
                return parse_hits(self._default)
            fail_times = int(spec.get("fail_times", 0))
            done = self._failures.get(query, 0)
            if done < fail_times:
                self._failures[query] = done + 1
                raise SearchError(f"mock failure {done + 1}/{fail_times} for query")
            return parse_hits(spec.get("results", []))


# --- HTTP clients -------------------------------------------------------------


def _post_json(url: str, payload: Any, api_key: Optional[str], timeout: float) -> Any:
    """POST ``payload`` as JSON, with a bearer token when a key is set, and decode the reply.

    Raises ``requests``' errors for a failed request or an HTTP error status,
    and ``ValueError`` for a body that is not JSON.
    """
    import requests

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
    logger.info("POST %s -> status %s", url, resp.status_code)
    resp.raise_for_status()
    return resp.json()


class HttpLlmClient(LlmClient):
    """Minimal chat-completions client for an OpenAI-style endpoint."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = 120.0,
    ) -> None:
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout

    def complete(self, system_prompt: str, user_prompt: str, temperature: float = 0.0) -> str:
        payload = {
            "model": self.model,
            "temperature": temperature,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
        }
        url = f"{self.endpoint}/chat/completions"
        try:
            reply = _post_json(url, payload, self.api_key, self.timeout)
            content = reply["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"reply content is {type(content).__name__}, not a string")
            return content
        except Exception as exc:
            raise LlmError(f"llm endpoint failure: {exc}") from exc


class HttpSearchClient(SearchClient):
    """Minimal JSON-over-HTTP search client.

    Expects ``POST {endpoint}`` with ``{"query": ...}`` to return
    ``{"results": [{title, abstract, url, identifiers, relevance_score,
    verdict}, ...]}``.
    """

    def __init__(self, endpoint: str, api_key: Optional[str] = None, timeout: float = 60.0) -> None:
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout

    def search(self, query: str) -> list[SearchHit]:
        try:
            reply = _post_json(self.endpoint, {"query": query}, self.api_key, self.timeout)
            return parse_hits(reply.get("results", []))
        except Exception as exc:
            raise SearchError(f"search endpoint failure: {exc}") from exc
